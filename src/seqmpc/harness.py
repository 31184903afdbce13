"""Scenario definitions, the closed-loop driver, metrics and sweeps.

A scenario bundles the plant parameters, initial conditions, piecewise
reference profiles and the controller configuration(s).  `run_scenario`
alternates the controller and the plant for the requested duration and
returns a uniformly sampled record of everything.  The run's constants
have one owner, `ScenarioConfig`: on each step the loop passes the sampling
period and the DC-link capacitance to the controller and the plant, the
DC-link PI settings (built once per run) to `build_references`, and the
rotor inertia and the profile's load torque to the plant.  The controller
also gets the run's step plan, its buffers built once before step 0
(`prediction.StepPlan`).  Metric helpers
reduce a record to THD / RMSE / switching-frequency / node-count figures;
`sweep` crosses controller-parameter lists and collects one metrics row per
configuration.  Runs are fully deterministic for a given configuration.

`ScenarioConfig`'s field defaults are the only record of each config key's
type and of whether it is a list: the config file reader and writer read
both from them, and a CLI override flag sets a list field to a one-item list.
"""

from __future__ import annotations

import configparser
import csv
import io
import itertools
import math
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import _kernels as _k
from .controller import ControllerConfig, DcLinkPi, build_references, control_step
from .plant import (
    GridParams,
    MachineParams,
    PlantState,
    SimulationBlowUpError,
    electromagnetic_torque,
    plant_step,
    power_output,
)
from .prediction import SequenceError, StepPlan, build_multistep, build_step_models
from .solver import NotPositiveDefiniteError, SolverError, assemble_qp

RPM_TO_RAD_S = 2.0 * math.pi / 60.0

#: CSV floats are printed with this format for byte-stable output
FLOAT_FMT = "%.9g"

#: any state magnitude beyond this is treated as a diverged simulation
_DIVERGENCE_LIMIT = 1e9

#: an accepted effort weight must still factor on step 0 when divided by
#: this, which covers e.g. a DC-link voltage or grid EMF twice the initial one
EFFORT_WEIGHT_MARGIN = 4.0


class ConfigError(ValueError):
    """A scenario configuration file or override is invalid."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: plant constants, profiles and controller grid.

    `horizons`/`n_ks`/`n_ls`/`lambdas`/`modes` hold lists so the same type
    drives both single runs (singletons) and sweeps (cross product).
    """

    duration: float = 0.5
    t_s: float = 50e-6
    substeps: int = 10

    # plant constants
    r_s: float = 0.1379
    l_s: float = 0.019
    psi_pm: float = 0.42675
    pole_pairs: int = 3
    r_n: float = 0.156
    l_n: float = 0.020
    e_peak: float = 250.0
    omega_n: float = 100.0 * math.pi
    c_dc: float = 1100e-6
    inertia: float = 0.05
    v_dc_ref: float = 700.0

    # initial state
    v_dc0: float = 700.0
    v_imb0: float = 0.0
    omega_m0: float = 0.0
    theta_e0: float = 0.0

    # reference profiles: ((time, value), ...) sorted by time
    speed_rpm: tuple = ((0.0, 1125.0),)
    torque_nm: tuple = ((0.0, 25.0),)

    # outer loops
    speed_kp: float = 1.0
    t_e_max: float = 60.0
    pi_kp: float = -0.5
    pi_ki: float = -20.0
    pi_clamp: float = 50.0

    # controller grid
    horizons: tuple = (3,)
    n_ks: tuple = (4,)
    n_ls: tuple = (4,)
    lambdas: tuple = (0.1,)
    modes: tuple = ("sequential",)

    # metrics
    thd_periods: int = 5
    steady_fraction: float = 0.4

    def __post_init__(self):
        for f in fields(self):
            if not all(math.isfinite(v) for v in _floats(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite")
        if self.duration <= 0 or self.t_s <= 0:
            raise ConfigError("duration and t_s must be positive")
        if self.substeps < 1:
            raise ConfigError("substeps must be >= 1")
        if not (self.c_dc > 0 and self.inertia > 0):
            raise ConfigError("c_dc and inertia must be positive")
        if self.t_e_max < 0 or self.pi_clamp < 0:
            raise ConfigError("t_e_max and pi_clamp must be >= 0")
        if not 0 < self.steady_fraction <= 1:
            raise ConfigError("steady_fraction must lie in (0, 1]")
        if self.thd_periods < 1:
            raise ConfigError("thd_periods must be >= 1")
        for name in ("speed_rpm", "torque_nm"):
            prof = getattr(self, name)
            # a tuple, as `_floats` checks only tuples for finite numbers
            if not (isinstance(prof, tuple) and prof and all(map(_is_pair, prof))):
                raise ConfigError(f"{name} must be a nonempty tuple of (time, value) pairs")
            times = [t for t, _ in prof]
            if times != sorted(times):
                raise ConfigError("profiles must be sorted by time")
        # the other plant parameters and the initial state check themselves
        try:
            self.machine()
            self.grid()
            self.initial_state()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def machine(self) -> MachineParams:
        return MachineParams(self.r_s, self.l_s, self.psi_pm, self.pole_pairs)

    def grid(self) -> GridParams:
        return GridParams(self.r_n, self.l_n, self.e_peak, self.omega_n)

    def dc_link_pi(self) -> DcLinkPi:
        return DcLinkPi(self.pi_kp, self.pi_ki, self.pi_clamp, self.v_dc_ref)

    def controller(self) -> ControllerConfig:
        for name in ("horizons", "n_ks", "n_ls", "lambdas", "modes"):
            if len(getattr(self, name)) != 1:
                raise ConfigError(f"`run` needs a single value for {name}")
        return self._controller(
            self.horizons[0], self.n_ks[0], self.n_ls[0], self.lambdas[0], self.modes[0]
        )

    def controller_grid(self):
        combos = itertools.product(
            self.horizons, self.n_ks, self.n_ls, self.lambdas, self.modes
        )
        return [self._controller(*combo) for combo in combos]

    def _controller(self, n_h, n_k, n_l, lam, mode) -> ControllerConfig:
        try:
            ctrl = ControllerConfig(n_h=n_h, n_k=n_k, n_l=n_l, lam=lam, mode=mode)
            # the run's plan, after `standard_sd` sets its lists to one: it
            # rejects too many candidate pairs before allocating
            plan = StepPlan(n_h, ctrl.n_k, ctrl.n_l)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # along the common-mode switch vector only the effort term keeps the
        # condensed Gram matrix positive definite, so a positive but tiny
        # weight fails the factorization; reject it here, not on step 0
        models = build_step_models(
            self.initial_state(), self.machine(), self.grid(), self.t_s, self.c_dc, plan
        )
        try:
            assemble_qp(
                build_multistep(models.sides, n_h, plan), np.zeros((2, 2)),
                np.zeros((2, 2 * n_h)), np.zeros((2, 3)), lam / EFFORT_WEIGHT_MARGIN, plan,
            )
        except NotPositiveDefiniteError as exc:
            raise ConfigError(
                f"effort weight lam={lam:g} is too small for this plant at horizon {n_h}"
            ) from exc
        return ctrl

    def initial_state(self) -> PlantState:
        return PlantState.initial(
            v_dc=self.v_dc0,
            v_imb=self.v_imb0,
            omega_m=self.omega_m0,
            theta_e=self.theta_e0,
        )

    def n_steps(self) -> int:
        return int(round(self.duration / self.t_s))

    def fundamental_hz(self) -> float:
        """Machine electrical frequency implied by the speed reference in
        effect at the run's last step, the one `run_scenario` looks up
        there (a profile entry after the run's end is never reached); a
        reversed rotation has the frequency of its magnitude."""
        rpm = profile_value(self.speed_rpm, (self.n_steps() - 1) * self.t_s)
        return self.pole_pairs * abs(rpm) / 60.0

    def check_metric_windows(self):
        """Raise ConfigError unless the run covers the windows that
        `compute_metrics` reduces: the THD window, and a steady window of at
        least two steps, the fewest a switching frequency is counted over.

        Not part of the construction checks: a scenario that never computes
        metrics may be shorter.  The CLI calls it before the first step.
        """
        steps = self.n_steps()
        try:
            thd_window(self.t_s, self.fundamental_hz(), self.thd_periods, steps)
        except ConfigError as exc:
            raise ConfigError(
                f"THD window of {self.thd_periods} periods at {self.fundamental_hz():g} Hz "
                f"against a run of {steps} steps: {exc}"
            ) from exc
        window = steady_slice(steps, self.steady_fraction)
        steady = window.stop - window.start
        if steady < 2:
            raise ConfigError(
                f"steady window of steady_fraction={self.steady_fraction:g} covers "
                f"{steady} of {steps} steps; metrics need at least 2"
            )


def _floats(value):
    """Every float in a config field's value, nested tuples included."""
    if isinstance(value, tuple):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, float):
        yield value


def _is_pair(item) -> bool:
    """Whether a profile item is a (time, value) tuple of two real numbers."""
    return isinstance(item, tuple) and len(item) == 2 and all(
        isinstance(v, (int, float)) for v in item
    )


def steady_slice(n_samples: int, fraction: float) -> slice:
    """The trailing `fraction` of `n_samples` samples, which the
    steady-state metrics cover."""
    return slice(int(round(n_samples * (1.0 - fraction))), n_samples)


def profile_value(profile, t: float) -> float:
    value = profile[0][1]
    for t_i, v_i in profile:
        if t_i <= t + 1e-15:
            value = v_i
        else:
            break
    return value


# ---------------------------------------------------------------------------
# time series
# ---------------------------------------------------------------------------

TS_COLUMNS = (
    "t", "i_m_d", "i_m_q", "i_m_a", "i_m_b", "i_m_c",
    "i_n_al", "i_n_be", "v_dc", "v_imb",
    "omega_m", "t_e", "t_e_ref", "i_q_ref",
    "p", "q", "p_ref", "q_ref",
    "s_m_a", "s_m_b", "s_m_c", "s_n_a", "s_n_b", "s_n_c",
    "j_m", "j_n", "j_o", "nodes_m", "nodes_n",
)


class TimeSeries:
    """Column store of per-step records, sampled at the controller period."""

    def __init__(self):
        self.data = {name: [] for name in TS_COLUMNS}
        self._appends = tuple(self.data[name].append for name in TS_COLUMNS)

    def append(self, *row):
        """Record one step: one value per column, in TS_COLUMNS order."""
        for add, value in zip(self._appends, row, strict=True):
            add(value)

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.data[name])

    def __len__(self):
        return len(self.data["t"])

    def steady_slice(self, fraction: float) -> slice:
        return steady_slice(len(self), fraction)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            _write_rows(fh, TS_COLUMNS, zip(*(self.data[c] for c in TS_COLUMNS)))


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return FLOAT_FMT % float(value)


def _write_rows(fh, header, rows):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def run_scenario(cfg: ScenarioConfig, controller: ControllerConfig | None = None) -> TimeSeries:
    """Simulate the closed loop and record every controller period.

    Raises SimulationBlowUpError if the plant state leaves the finite
    range, and SolverError if a control step's subproblem cannot be solved
    or a sequence check inside it fails (SequenceError), each annotated with
    the step index.  Any other exception of a step, a programming error,
    leaves unchanged.
    """
    ctrl = controller if controller is not None else cfg.controller()
    machine = cfg.machine()
    grid = cfg.grid()
    pi = cfg.dc_link_pi()
    state = cfg.initial_state()
    integral = 0.0  # of the DC-link PI regulator
    u_prev_m = u_prev_n = (0, 0, 0)  # the level tuples applied before step 0
    plan = StepPlan(ctrl.n_h, ctrl.n_k, ctrl.n_l)  # the step's buffers, built once per run
    series = TimeSeries()

    for step in range(cfg.n_steps()):
        i_md, i_mq = state.i_m_dq
        i_na, i_nb = state.i_n_ab
        scale = _state_scale(i_md, i_mq, i_na, i_nb, state.v_dc, state.omega_m)
        if scale > _DIVERGENCE_LIMIT:
            raise SimulationBlowUpError(f"step {step}: state diverged (|x| > {_DIVERGENCE_LIMIT:g})")
        t = step * cfg.t_s
        omega_ref = profile_value(cfg.speed_rpm, t) * RPM_TO_RAD_S
        t_mech = profile_value(cfg.torque_nm, t)

        # proportional speed loop with load feedforward supplies the torque
        # reference; positive gain brakes above the speed reference
        t_e_ref = cfg.speed_kp * (state.omega_m - omega_ref) + t_mech
        t_e_ref = float(min(max(t_e_ref, -cfg.t_e_max), cfg.t_e_max))
        i_q_ref, p_ref, integral = build_references(
            state, machine, pi, t_e_ref, omega_ref, integral, cfg.t_s
        )

        try:
            decision = control_step(
                state, ctrl, i_q_ref, p_ref, machine, grid, u_prev_m, u_prev_n, cfg.t_s,
                cfg.c_dc, plan,
            )
        except (SolverError, SequenceError) as exc:
            # a sequence check that fails inside a step is a failed step, not a bad config
            raise SolverError(f"step {step}: {exc}") from exc
        p, q = power_output((i_na, i_nb), _k.grid_emf2(state.t, grid.e_peak, grid.omega_n))
        i_ma, i_mb, i_mc = _k.clarke_pinv2(*_k.park_inv2(i_md, i_mq, state.theta_e))
        s_m, s_n = decision.s_m, decision.s_n
        # one value per column, in TS_COLUMNS order
        series.append(
            t, i_md, i_mq, i_ma, i_mb, i_mc,
            i_na, i_nb, state.v_dc, state.v_imb,
            state.omega_m, electromagnetic_torque(i_mq, machine),
            t_e_ref, i_q_ref,
            p, q, p_ref, 0.0,  # the reactive-power reference is structurally zero
            *s_m, *s_n,
            decision.j_m, decision.j_n, decision.j_o, decision.nodes_m, decision.nodes_n,
        )
        try:
            state = plant_step(
                state, s_m, s_n, machine, grid, cfg.c_dc, cfg.inertia, t_mech, cfg.t_s,
                cfg.substeps,
            )
        except SimulationBlowUpError as exc:
            raise SimulationBlowUpError(f"step {step}: {exc}") from exc
        u_prev_m, u_prev_n = s_m, s_n
    return series


def _state_scale(i_md, i_mq, i_na, i_nb, v_dc, omega_m) -> float:
    """The largest magnitude of the state's currents, DC-link voltage and
    speed.  The state is finite here: `ScenarioConfig` rejects non-finite
    values, and `plant_step` raises before it returns a non-finite state."""
    return max(abs(i_md), abs(i_mq), abs(i_na), abs(i_nb), abs(v_dc), abs(omega_m))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunMetrics:
    thd_machine: float
    rmse_te: float
    rmse_q: float
    rmse_p: float
    rmse_v_imb: float
    rmse_v_dc: float
    f_sw_machine: float
    f_sw_grid: float
    avg_nodes: float
    max_nodes: int  # worst control step, machine plus grid decoder nodes


def compute_rmse(series, ref_series) -> float:
    series = np.asarray(series, float)
    ref = np.asarray(ref_series, float)
    if series.size == 0:
        raise ValueError("empty series")
    if series.shape != ref.shape:
        raise ValueError("series lengths differ")
    return float(np.sqrt(np.mean((series - ref) ** 2)))


def thd_window(t_s: float, fundamental_hz: float, window_periods: int, n_samples: int) -> int:
    """Samples in the THD window: `window_periods` periods of the
    fundamental, rounded to the nearest whole number of samples.

    Raises ConfigError unless the fundamental is positive and the window
    fits `n_samples` samples with at least two samples per period.
    """
    if fundamental_hz <= 0:
        raise ConfigError("fundamental frequency must be positive")
    n = int(round(window_periods / (fundamental_hz * t_s)))
    if n < 2 * window_periods or n > n_samples:
        raise ConfigError("window does not fit the signal")
    return n


def compute_thd(signal, t_s: float, fundamental_hz: float, window_periods: int):
    """Total harmonic distortion over a trailing integer-period window.

    The window (`thd_window`) is rounded to a whole number of samples, the
    fundamental lands on DFT bin `window_periods`, and only integer harmonic
    bins up to Nyquist enter the distortion sum.
    """
    signal = np.asarray(signal, float)
    n = thd_window(t_s, fundamental_hz, window_periods, signal.size)
    window = signal[-n:]
    spectrum = np.abs(np.fft.rfft(window))
    fund = spectrum[window_periods]
    if fund == 0.0:
        raise ConfigError("zero fundamental magnitude")
    harmonics = np.arange(2 * window_periods, spectrum.size, window_periods)
    return float(np.sqrt(np.sum(spectrum[harmonics] ** 2)) / fund)


def thd_spectrum(signal, t_s: float, fundamental_hz: float, window_periods: int):
    """(frequency, magnitude) arrays of the THD window, amplitude-scaled.

    A bin with a conjugate twin holds half of its component's amplitude, so
    it is scaled by 2/n; the 0 Hz bin, and the Nyquist bin of an even n,
    have none and are scaled by 1/n.
    """
    signal = np.asarray(signal, float)
    n = thd_window(t_s, fundamental_hz, window_periods, signal.size)
    window = signal[-n:]
    mags = np.abs(np.fft.rfft(window)) * 2.0 / n
    mags[0] /= 2.0
    if n % 2 == 0:
        mags[-1] /= 2.0
    freqs = np.fft.rfftfreq(n, t_s)
    return freqs, mags


def compute_switching_frequency(switch_series, t_s: float) -> float:
    """Per-phase average switching rate; a -1 -> 1 jump counts two changes."""
    levels = np.asarray(switch_series)
    if levels.ndim != 2 or levels.shape[1] != 3:
        raise ValueError("expected an (n, 3) level array")
    n = levels.shape[0]
    if n < 2:
        return 0.0
    changes = np.abs(np.diff(levels, axis=0)).sum()
    return float(changes / (3.0 * (n - 1) * t_s))


def compute_metrics(series: TimeSeries, cfg: ScenarioConfig) -> RunMetrics:
    """Steady-state metrics over the trailing fraction of the run; the
    decoder node counts (mean and worst step) cover every step."""
    sl = series.steady_slice(cfg.steady_fraction)
    f1 = cfg.fundamental_hz()
    thd = compute_thd(series.column("i_m_a"), cfg.t_s, f1, cfg.thd_periods)
    sw_m = np.stack(
        [series.column("s_m_a"), series.column("s_m_b"), series.column("s_m_c")], axis=1
    )[sl]
    sw_n = np.stack(
        [series.column("s_n_a"), series.column("s_n_b"), series.column("s_n_c")], axis=1
    )[sl]
    nodes = series.column("nodes_m") + series.column("nodes_n")
    return RunMetrics(
        thd_machine=thd,
        rmse_te=compute_rmse(series.column("t_e")[sl], series.column("t_e_ref")[sl]),
        rmse_q=compute_rmse(series.column("q")[sl], series.column("q_ref")[sl]),
        rmse_p=compute_rmse(series.column("p")[sl], series.column("p_ref")[sl]),
        rmse_v_imb=compute_rmse(
            series.column("v_imb")[sl], np.zeros_like(series.column("v_imb")[sl])
        ),
        rmse_v_dc=compute_rmse(
            series.column("v_dc")[sl],
            np.full(series.column("v_dc")[sl].shape, cfg.v_dc_ref),
        ),
        f_sw_machine=compute_switching_frequency(sw_m, cfg.t_s),
        f_sw_grid=compute_switching_frequency(sw_n, cfg.t_s),
        avg_nodes=float(np.mean(nodes)),
        max_nodes=int(np.max(nodes)),
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

METRIC_COLUMNS = tuple(f.name for f in fields(RunMetrics))
SWEEP_COLUMNS = ("n_h", "n_k", "n_l", "lambda", "mode", "status") + METRIC_COLUMNS


def sweep(cfg: ScenarioConfig):
    """Run every controller configuration of the grid; a cell that fails as
    a run can fail (SolverError, SimulationBlowUpError, or a ConfigError of
    the metrics, such as a THD window without fundamental current) becomes
    an `error:` row.  Any other exception, a plain ValueError included, is
    a bug and propagates.

    Returns a list of row dicts keyed by SWEEP_COLUMNS.
    """
    grid = cfg.controller_grid()
    if not grid:
        raise ConfigError("empty controller grid")
    rows = []
    for ctrl in grid:
        row = {
            "n_h": ctrl.n_h, "n_k": ctrl.n_k, "n_l": ctrl.n_l,
            "lambda": ctrl.lam, "mode": ctrl.mode,
        }
        try:
            series = run_scenario(cfg, ctrl)
            row.update(status="ok", **asdict(compute_metrics(series, cfg)))
        except (SolverError, SimulationBlowUpError, ConfigError) as exc:
            row.update(status=f"error: {exc}", **dict.fromkeys(METRIC_COLUMNS, math.nan))
        rows.append(row)
    return rows


def write_sweep_csv(rows, path):
    with open(path, "w", newline="") as fh:
        _write_rows(fh, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))


def write_metrics_csv(metrics: RunMetrics, ctrl: ControllerConfig, path):
    header = ("n_h", "n_k", "n_l", "lambda", "mode") + METRIC_COLUMNS
    row = [ctrl.n_h, ctrl.n_k, ctrl.n_l, ctrl.lam, ctrl.mode, *astuple(metrics)]
    with open(path, "w", newline="") as fh:
        _write_rows(fh, header, [row])


def write_spectrum_csv(series: TimeSeries, cfg: ScenarioConfig, path):
    f1 = cfg.fundamental_hz()
    freqs, mag_a = thd_spectrum(series.column("i_m_a"), cfg.t_s, f1, cfg.thd_periods)
    _, mag_b = thd_spectrum(series.column("i_m_b"), cfg.t_s, f1, cfg.thd_periods)
    _, mag_c = thd_spectrum(series.column("i_m_c"), cfg.t_s, f1, cfg.thd_periods)
    with open(path, "w", newline="") as fh:
        _write_rows(fh, ("freq_hz", "mag_a", "mag_b", "mag_c"), zip(freqs, mag_a, mag_b, mag_c))


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

_SECTIONS = {
    "scenario": ("duration", "t_s", "substeps"),
    "plant": (
        "r_s", "l_s", "psi_pm", "pole_pairs", "r_n", "l_n", "e_peak",
        "omega_n", "c_dc", "inertia", "v_dc_ref",
    ),
    "initial": ("v_dc0", "v_imb0", "omega_m0", "theta_e0"),
    "references": (
        "speed_rpm", "torque_nm", "speed_kp", "t_e_max", "pi_kp", "pi_ki", "pi_clamp",
    ),
    "controller": ("horizons", "n_ks", "n_ls", "lambdas", "modes"),
    "metrics": ("thd_periods", "steady_fraction"),
}

_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}


def _key_type(name: str) -> tuple:
    """(item type, whether a list) of a config key, read from its default.

    A scalar default gives its own type; a tuple default is a list of its
    first item's type, and a profile is a list of (time, value) tuples.
    """
    default = _DEFAULTS[name]
    if isinstance(default, tuple):
        return type(default[0]), True
    return type(default), False


def _parse_profile(raw: str):
    try:
        pairs = []
        for item in raw.split(","):
            t_str, v_str = item.split(":")
            pairs.append((float(t_str), float(v_str)))
        return tuple(pairs)
    except ValueError as exc:
        raise ConfigError(f"bad profile {raw!r}; expected 't:value, t:value'") from exc


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    item, is_list = _key_type(name)
    try:
        if item is tuple:
            return _parse_profile(raw)
        if is_list:
            return tuple(item(v.strip()) for v in raw.split(","))
        return item(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def load_config(path) -> ScenarioConfig:
    """Parse a flat key-value scenario file into a ScenarioConfig.

    The file is UTF-8, with no `%` interpolation; a file the parser rejects
    (no section header, a repeated key or section, bytes that are not
    UTF-8) and keys under `[DEFAULT]` raise ConfigError like an unknown key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if parser.defaults():  # they would reach every section as its own keys
        raise ConfigError(f"unknown section [{parser.default_section}]")
    known = {name: section for section, names in _SECTIONS.items() for name in names}
    overrides = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for name, raw in parser.items(section):
            if name not in known or known[name] != section:
                raise ConfigError(f"unknown key {name!r} in [{section}]")
            overrides[name] = _parse_value(name, raw)
    try:
        return ScenarioConfig(**overrides)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def dump_config(cfg: ScenarioConfig) -> str:
    """Render a ScenarioConfig back to the flat key-value format.

    A float is written as its shortest round-tripping repr, so `load_config`
    reads the dump back to an equal ScenarioConfig.
    """
    parser = configparser.ConfigParser()
    for section, names in _SECTIONS.items():
        parser[section] = {}
        for name in names:
            value = getattr(cfg, name)
            item, is_list = _key_type(name)
            if item is tuple:
                text = ", ".join(f"{t}:{v}" for t, v in value)
            elif is_list:
                text = ", ".join(str(v) for v in value)
            else:
                text = str(value)
            parser[section][name] = text
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
