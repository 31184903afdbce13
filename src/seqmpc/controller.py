"""One receding-horizon control step of the sequential scheme.

Per sampling period: read the plant state, refresh the current/power
references, condense and solve the machine-side and grid-side integer
least-squares subproblems for their k best candidates, pick the candidate
pair with the least predicted DC-link imbalance, and emit the first switch
block of each chosen sequence as a level tuple, three Python ints taken from
the candidate list's row (`CandidateList` checked the levels once when the
decoder made them).  The decision carries the chosen pair as two ranks
into the step's k-best lists, not as sequences.  The previous step's level
tuples come back in as `u_prev_m` and `u_prev_n`, unchecked.  The sampling
period and the DC-link capacitance belong to the scenario; the closed loop
passes them to `build_references` and `control_step`, and
`ControllerConfig` holds only the controller's own settings.

References.  The machine side tracks the dq current reference (0, i_q_ref)
and the grid side the power reference (p_ref, 0): the d-axis current and
reactive-power references are structurally zero, so only `i_q_ref` and
`p_ref` change from step to step.  `build_references` computes them from
the plant state, the torque and speed references of the outer loop and the
DC-link PI regulator's integral carried over from the previous step, and
returns them with the new integral.  The regulator's gains, clamp and
voltage reference are fixed for a run: they live in a `DcLinkPi` built once
per run, which the loop passes on every step.

`standard_sd` mode is the no-balancing baseline: each side keeps a single
candidate, so the imbalance stage only scores the one pair of best sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels import MAX_LAYERS
from .plant import GridParams, MachineParams, PlantState
from .prediction import StepPlan, build_multistep, build_step_models
# not called here; perfbench's traced `prediction.imbalance.us_per_step` looks it up here
from .prediction import predict_imbalance  # noqa: F401
from .solver import assemble_qp, k_best, select_pair

MODES = ("sequential", "standard_sd")

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
    checks once per run that the clamp is not negative and the reference
    is positive.
    """

    kp: float
    ki: float
    clamp: float
    v_dc_ref: float


@dataclass(slots=True)
class ControlDecision:
    """Applied first blocks, the chosen ranks and per-step telemetry.

    `rank_m` and `rank_n` index the chosen sequences in the step's machine
    and grid k-best lists (`select_pair`'s choice); `s_m` and `s_n` are the
    first blocks of those rows.  Every field is a Python value, so nothing
    in it shares memory with the step plan.
    """

    s_m: tuple
    s_n: tuple
    rank_m: int
    rank_n: int
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
) -> tuple[float, float, float]:
    """(i_q_ref, p_ref, integral): the step's references and the PI
    regulator's new integral.

    The q-axis current reference inverts the torque map; the grid active
    power reference feeds forward the mechanical power and corrects the
    DC-link voltage through the clamped PI loop `pi`, whose integral enters
    as `integral`.  The d-axis current and reactive-power references are
    structurally zero and not returned.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    i_q_ref = t_e_ref / (1.5 * machine.pole_pairs * machine.psi_pm)
    err = pi.v_dc_ref - st.v_dc
    integral = integral + dt * err
    if pi.ki != 0.0:
        bound = abs(pi.clamp / pi.ki)
        integral = float(min(max(integral, -bound), bound))
    i_g_ref = float(min(max(pi.kp * err + pi.ki * integral, -pi.clamp), pi.clamp))
    p_ref = st.v_dc * i_g_ref + omega_m_ref * t_e_ref
    return i_q_ref, p_ref, integral


def control_step(
    st: PlantState,
    cfg: ControllerConfig,
    i_q_ref: float,
    p_ref: float,
    machine: MachineParams,
    grid: GridParams,
    u_prev_m: tuple,
    u_prev_n: tuple,
    t_s: float,
    c_dc: float,
    plan: StepPlan | None = None,
) -> ControlDecision:
    """Solve both subproblems and the imbalance stage for one sampling
    period `t_s`, with DC-link capacitance `c_dc`.

    Each side's model is built and discretized once; the multistep stacking
    and the imbalance stage share it.  The step's inputs go into `plan`, and
    every stage reads and writes its buffers, both sides together, machine
    first.  The plan must be `StepPlan(cfg.n_h, cfg.n_k, cfg.n_l)` or one
    like it: a plan for another horizon raises ValueError before anything
    is written into it.  The closed loop passes one for the whole run, and
    a call without one builds it.
    """
    if plan is None:
        plan = StepPlan(cfg.n_h, cfg.n_k, cfg.n_l)
    elif plan.n_h != cfg.n_h:
        raise ValueError(f"the plan is for horizon {plan.n_h}, not {cfg.n_h}")
    build_step_models(st, machine, grid, t_s, c_dc, plan)
    build_multistep(plan)
    plan.u_prev[...] = u_prev_m, u_prev_n  # the previous levels, Python ints, as floats
    plan.y_ref[...] = (0.0, i_q_ref) * cfg.n_h, (p_ref, 0.0) * cfg.n_h  # constant over the horizon
    qp_m, qp_n = assemble_qp(cfg.lam, plan)
    cands_m = k_best(qp_m, cfg.n_k)
    cands_n = k_best(qp_n, cfg.n_l)
    _, _, j_o, im, il = select_pair(st, cands_m, cands_n, plan)
    return ControlDecision(  # fields in order
        cands_m.rows[im][:3], cands_n.rows[il][:3],
        im, il, cands_m.costs[im], cands_n.costs[il], j_o,
        cands_m.nodes_visited, cands_n.nodes_visited,
    )
