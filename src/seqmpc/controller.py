"""One receding-horizon control step of the sequential scheme.

Per sampling period: read the plant state, refresh the current/power
references, condense and solve the machine-side and grid-side integer
least-squares subproblems for their k best candidates, pick the candidate
pair with the least predicted DC-link imbalance, and emit the first switch
block of each chosen sequence.

In `standard_sd` mode the imbalance stage is skipped and the single best
sequence of each side is applied directly (the no-balancing baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .plant import GridParams, MachineParams, PlantState, SwitchState
from .prediction import (
    SwitchSequence,
    build_multistep,
    build_step_models,
    predict_imbalance,
)
from .solver import assemble_qp, k_best, select_pair

MODES = ("sequential", "standard_sd")


@dataclass(frozen=True)
class ControllerConfig:
    """Horizon, candidate counts, effort weight and operating mode."""

    n_h: int = 3
    n_k: int = 1
    n_l: int = 1
    lam: float = 0.1
    t_s: float = 50e-6
    mode: str = "sequential"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.n_h < 1 or self.n_k < 1 or self.n_l < 1:
            raise ValueError("n_h, n_k and n_l must be >= 1")
        if self.t_s <= 0:
            raise ValueError("sampling period must be positive")
        if not self.lam > 0:
            # the common-mode direction (1,1,1) of every stage is in the null
            # space of the converter map, so only the effort term makes the
            # condensed Gram matrix positive definite
            raise ValueError("effort weight lam must be positive")
        if self.mode == "standard_sd":
            # baseline runs without the imbalance stage, so extra candidates
            # would never be used
            object.__setattr__(self, "n_k", 1)
            object.__setattr__(self, "n_l", 1)


@dataclass(frozen=True)
class ReferenceState:
    """Reference quantities plus the DC-link PI regulator state.

    The d-axis current and reactive-power references are structurally zero.
    `pi_kp`/`pi_ki` act on (v_dc_ref - v_dc); with this plant raising the
    grid active power discharges the link, so stabilizing gains are negative.
    """

    t_e_ref: float = 0.0
    i_dq_ref: tuple = (0.0, 0.0)
    pq_ref: tuple = (0.0, 0.0)
    integral: float = 0.0
    pi_kp: float = -0.5
    pi_ki: float = -20.0
    pi_clamp: float = 50.0
    v_dc_ref: float = 700.0
    omega_m_ref: float = 0.0


@dataclass(frozen=True)
class ControlDecision:
    """Applied first blocks plus the full sequences and per-step telemetry."""

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
    st: PlantState, machine: MachineParams, refs: ReferenceState, dt: float
) -> ReferenceState:
    """Refresh current and power references from the torque reference.

    The q-axis current reference inverts the torque map; the grid active
    power reference feeds forward the mechanical power and corrects the
    DC-link voltage through a clamped PI loop.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    i_q_ref = refs.t_e_ref / (1.5 * machine.pole_pairs * machine.psi_pm)
    err = refs.v_dc_ref - st.dc.v_dc
    integral = refs.integral + dt * err
    if refs.pi_ki != 0.0:
        bound = abs(refs.pi_clamp / refs.pi_ki)
        integral = float(np.clip(integral, -bound, bound))
    i_g_ref = float(
        np.clip(refs.pi_kp * err + refs.pi_ki * integral, -refs.pi_clamp, refs.pi_clamp)
    )
    p_ref = st.dc.v_dc * i_g_ref + refs.omega_m_ref * refs.t_e_ref
    return replace(
        refs,
        i_dq_ref=(0.0, i_q_ref),
        pq_ref=(p_ref, 0.0),
        integral=integral,
    )


def stack_reference(refs: ReferenceState, n_h: int):
    """Stacked constant-over-horizon output references for both sides."""
    if n_h < 1:
        raise ValueError("horizon must be >= 1")
    y_m = np.tile(np.asarray(refs.i_dq_ref, float), n_h)
    y_n = np.tile(np.asarray(refs.pq_ref, float), n_h)
    return y_m, y_n


def control_step(
    st: PlantState,
    cfg: ControllerConfig,
    refs: ReferenceState,
    machine: MachineParams,
    grid: GridParams,
    u_prev_m: SwitchState,
    u_prev_n: SwitchState,
) -> ControlDecision:
    """Solve both subproblems and the imbalance stage for one period.

    Each side's model is built and discretized once; the multistep stacking
    and the imbalance stage share it.
    """
    models = build_step_models(st, machine, grid, cfg.t_s)
    multi_m = build_multistep(models.machine, cfg.n_h)
    multi_n = build_multistep(models.grid, cfg.n_h)
    y_ref_m, y_ref_n = stack_reference(refs, cfg.n_h)

    qp_m = assemble_qp(multi_m, st.i_m_dq, y_ref_m, u_prev_m, cfg.lam)
    qp_n = assemble_qp(multi_n, st.i_n_ab, y_ref_n, u_prev_n, cfg.lam)
    cands_m = k_best(qp_m, cfg.n_k)
    cands_n = k_best(qp_n, cfg.n_l)

    if cfg.mode == "sequential":
        u_m, u_n, j_o = select_pair(st, cands_m, cands_n, models)
    else:
        u_m = cands_m.items[0][0]
        u_n = cands_n.items[0][0]
        path = predict_imbalance(st, u_m, u_n, models)
        j_o = float(path @ path)

    # select_pair returns the lists' own sequence objects
    j_m = next(c for s, c in cands_m.items if s is u_m)
    j_n = next(c for s, c in cands_n.items if s is u_n)
    return ControlDecision(
        s_m=SwitchState.from_array(u_m.first_block()),
        s_n=SwitchState.from_array(u_n.first_block()),
        full_u_m=u_m,
        full_u_n=u_n,
        j_m=j_m,
        j_n=j_n,
        j_o=j_o,
        nodes_m=cands_m.nodes_visited,
        nodes_n=cands_n.nodes_visited,
    )
