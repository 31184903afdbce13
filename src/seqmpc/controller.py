"""One receding-horizon control step of the sequential scheme.

Per sampling period: read the plant state, refresh the current/power
references, condense and solve the machine-side and grid-side integer
least-squares subproblems for their k best candidates, pick the candidate
pair with the least predicted DC-link imbalance, and emit the first switch
block of each chosen sequence.  The sampling period and the DC-link
capacitance belong to the scenario; the closed loop passes them to
`build_references` and `control_step`, and `ControllerConfig` holds only the
controller's own settings.

References.  `build_references` builds the step's one `ReferenceState` from
the plant state, the torque and speed references of the outer loop and the
DC-link PI regulator's integral carried over from the previous step.  The
regulator's gains, clamp and voltage reference are fixed for a run: they
live in a `DcLinkPi` built once per run, which the loop passes on every
step, and the reference state keeps only what changes from step to step.

`standard_sd` mode is the no-balancing baseline: each side keeps a single
candidate, so the imbalance stage only scores the one pair of best sequences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._kernels import MAX_LAYERS
from .plant import LEVELS, GridParams, MachineParams, PlantState, SwitchState
from .prediction import StepPlan, SwitchSequence, build_multistep, build_step_models
# not called here; perfbench's traced `prediction.imbalance.us_per_step` looks it up here
from .prediction import predict_imbalance  # noqa: F401
from .solver import assemble_qp, k_best, select_pair

MODES = ("sequential", "standard_sd")

#: every switch state a converter side can apply, by its levels: built and
#: checked once, and shared, as the states are frozen
SWITCH_STATES = {levels: SwitchState(*levels) for levels in itertools.product(LEVELS, repeat=3)}

#: longest horizon: the decoder is generated with one nested loop per switch
#: level, three per stage, and compiles at most MAX_LAYERS of them
MAX_HORIZON = MAX_LAYERS // 3


@dataclass(frozen=True)
class ControllerConfig:
    """Horizon, candidate counts, effort weight and operating mode."""

    n_h: int = 3
    n_k: int = 1
    n_l: int = 1
    lam: float = 0.1
    mode: str = "sequential"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.n_h < 1 or self.n_k < 1 or self.n_l < 1:
            raise ValueError("n_h, n_k and n_l must be >= 1")
        if self.n_h > MAX_HORIZON:
            raise ValueError(
                f"n_h must be <= {MAX_HORIZON}: the sphere decoder nests one loop "
                f"per switch level (3 per stage) and Python compiles at most "
                f"{MAX_LAYERS} nested loops"
            )
        if not self.lam > 0:
            # the common-mode direction (1,1,1) of every stage is in the null
            # space of the converter map, so only the effort term makes the
            # condensed Gram matrix positive definite
            raise ValueError("effort weight lam must be positive")
        if self.mode == "standard_sd":
            # the baseline applies each side's best sequence, so its lists
            # hold one candidate and the imbalance stage only scores the pair
            object.__setattr__(self, "n_k", 1)
            object.__setattr__(self, "n_l", 1)


@dataclass(frozen=True)
class DcLinkPi:
    """Settings of the DC-link voltage PI regulator, fixed for a run.

    `kp`/`ki` act on (v_dc_ref - v_dc); with this plant raising the grid
    active power discharges the link, so stabilizing gains are negative.
    The regulator's output, the grid current reference, is clamped to
    [-clamp, clamp].  The values are not checked here: `ScenarioConfig`
    checks them once per run.
    """

    kp: float
    ki: float
    clamp: float
    v_dc_ref: float


@dataclass(slots=True)
class ReferenceState:
    """One step's current and power references plus the DC-link PI
    regulator's integral.

    The d-axis current and reactive-power references are structurally zero.
    """

    i_dq_ref: tuple = (0.0, 0.0)
    pq_ref: tuple = (0.0, 0.0)
    integral: float = 0.0


@dataclass(slots=True)
class ControlDecision:
    """Applied first blocks plus the full sequences and per-step telemetry.

    Nothing in it shares memory with the step plan: the sequences are rows
    of the decoder's candidate lists, the rest Python values.
    """

    s_m: SwitchState
    s_n: SwitchState
    full_u_m: SwitchSequence
    full_u_n: SwitchSequence
    j_m: float
    j_n: float
    j_o: float
    nodes_m: int
    nodes_n: int


def build_references(
    st: PlantState,
    machine: MachineParams,
    pi: DcLinkPi,
    t_e_ref: float,
    omega_m_ref: float,
    integral: float,
    dt: float,
) -> ReferenceState:
    """Refresh current and power references from the torque reference.

    The q-axis current reference inverts the torque map; the grid active
    power reference feeds forward the mechanical power and corrects the
    DC-link voltage through the clamped PI loop `pi`, whose integral enters
    as `integral` and leaves in the returned state.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    i_q_ref = t_e_ref / (1.5 * machine.pole_pairs * machine.psi_pm)
    err = pi.v_dc_ref - st.dc.v_dc
    integral = integral + dt * err
    if pi.ki != 0.0:
        bound = abs(pi.clamp / pi.ki)
        integral = float(min(max(integral, -bound), bound))
    i_g_ref = float(min(max(pi.kp * err + pi.ki * integral, -pi.clamp), pi.clamp))
    p_ref = st.dc.v_dc * i_g_ref + omega_m_ref * t_e_ref
    return ReferenceState(i_dq_ref=(0.0, i_q_ref), pq_ref=(p_ref, 0.0), integral=integral)


def stack_reference(refs: ReferenceState, n_h: int, out: np.ndarray | None = None) -> np.ndarray:
    """Stacked constant-over-horizon output references, (2, 2N): the machine
    side's row first, then the grid side's, written as Python floats into
    `out` (a fresh array without)."""
    if n_h < 1:
        raise ValueError("horizon must be >= 1")
    if out is None:
        out = np.empty((2, 2 * n_h))
    out[...] = refs.i_dq_ref * n_h, refs.pq_ref * n_h
    return out


def step_plan(cfg: ControllerConfig) -> StepPlan:
    """The step plan of `control_step` under `cfg`: both sides, its horizon,
    and its list lengths, the decoder's k capped at the 3^(3N) sequences."""
    sequences = 3 ** (3 * cfg.n_h)
    return StepPlan(cfg.n_h, min(cfg.n_k, sequences), min(cfg.n_l, sequences))


def control_step(
    st: PlantState,
    cfg: ControllerConfig,
    refs: ReferenceState,
    machine: MachineParams,
    grid: GridParams,
    u_prev_m: SwitchState,
    u_prev_n: SwitchState,
    t_s: float,
    c_dc: float,
    plan: StepPlan | None = None,
) -> ControlDecision:
    """Solve both subproblems and the imbalance stage for one sampling
    period `t_s`, with DC-link capacitance `c_dc`.

    Each side's model is built and discretized once; the multistep stacking
    and the imbalance stage share it.  Both sides' subproblems are stacked
    and go through the multistep stacking and the condensation together,
    machine side first.  Every stage works in `plan`'s buffers, which must
    be `step_plan(cfg)` or one like it; the closed loop passes one for the
    whole run, and a call without one builds it.
    """
    if plan is None:
        plan = step_plan(cfg)
    models = build_step_models(st, machine, grid, t_s, c_dc, plan)
    multi = build_multistep(models.sides, cfg.n_h, plan)
    u_prev = plan.u_prev  # the previous levels, Python ints, as floats
    u_prev[...] = ((u_prev_m.s_a, u_prev_m.s_b, u_prev_m.s_c),
                   (u_prev_n.s_a, u_prev_n.s_b, u_prev_n.s_c))
    y_ref = stack_reference(refs, cfg.n_h, plan.y_ref)
    assemble_qp(multi, models.x0, y_ref, u_prev, cfg.lam, plan)
    qp_m, qp_n = plan.qp_sides  # the sides of the plan's `qp`, the form assemble_qp returns
    cands_m = k_best(qp_m, cfg.n_k)
    cands_n = k_best(qp_n, cfg.n_l)
    u_m, u_n, j_o, im, il = select_pair(st, cands_m, cands_n, models, plan)
    return ControlDecision(  # fields in order
        SWITCH_STATES[cands_m.rows[im][:3]], SWITCH_STATES[cands_n.rows[il][:3]],
        u_m, u_n, cands_m.costs[im], cands_n.costs[il], j_o,
        cands_m.nodes_visited, cands_n.nodes_visited,
    )
