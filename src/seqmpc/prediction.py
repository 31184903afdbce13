"""Controller-side prediction models.

Builds the continuous subsystem matrices for the machine and grid sides with
the converter map folded into the input matrix (inputs are switch integers
end to end), discretizes them with a one-step Euler approximation, stacks
the result into the condensed multistep form, and rolls the nonlinear
DC-link imbalance prediction forward stage by stage.

All model matrices are frozen at their time-k values within a horizon: the
electrical angle, speed, grid EMF and DC-link gain are not advanced between
stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import (
    DcLinkState,
    GridParams,
    MachineParams,
    PlantState,
    converter_matrix,
    grid_emf,
)
from .transforms import CLARKE_MAT, CLARKE_PINV_MAT, park_matrix


class HorizonMismatchError(ValueError):
    """Two stacked quantities disagree on the horizon length."""


@dataclass(frozen=True)
class LinearSubsystem:
    """Continuous model  x' = state_mat x + input_mat u + drift,  y = output_mat x."""

    state_mat: np.ndarray  # 2x2
    input_mat: np.ndarray  # 2x3, switch integers -> state derivative
    drift: np.ndarray      # 2
    output_mat: np.ndarray  # 2x2


@dataclass(frozen=True)
class DiscreteModel:
    """Euler-discretized subsystem over one sampling period."""

    state_mat: np.ndarray
    input_mat: np.ndarray
    drift: np.ndarray
    output_mat: np.ndarray
    t_s: float


@dataclass(frozen=True)
class MultistepModel:
    """Condensed horizon model  Y = forced_map U + free_map x0 + drift_vec.

    `diff_mat` and `prev_sel` express the stacked switching effort
    diff_mat @ U - prev_sel @ u_prev as consecutive input differences.
    """

    forced_map: np.ndarray  # (2N, 3N), block lower triangular
    free_map: np.ndarray    # (2N, 2)
    drift_vec: np.ndarray   # (2N,)
    diff_mat: np.ndarray    # (3N, 3N)
    prev_sel: np.ndarray    # (3N, 3)
    horizon: int


@dataclass(frozen=True)
class SwitchSequence:
    """Stacked per-stage switch vector over the horizon, entries in {-1,0,1}."""

    levels: np.ndarray
    horizon: int

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=np.int64)
        object.__setattr__(self, "levels", lv)
        if lv.shape != (3 * self.horizon,):
            raise ValueError("sequence length must be 3 * horizon")
        if lv.size and (lv.min() < -1 or lv.max() > 1):
            raise ValueError("sequence entries must lie in {-1, 0, 1}")

    def as_tuple(self) -> tuple:
        return tuple(int(v) for v in self.levels)

    def block(self, stage: int) -> np.ndarray:
        return self.levels[3 * stage : 3 * stage + 3]

    def first_block(self) -> np.ndarray:
        return self.block(0)

    def __eq__(self, other):
        return isinstance(other, SwitchSequence) and self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())


def build_machine_subsystem(
    p: MachineParams, omega_e: float, dc: DcLinkState, theta_e: float
) -> LinearSubsystem:
    """PMSG stator model in dq with switch-integer input and identity output."""
    f = np.array([[-p.r_s / p.l_s, omega_e], [-omega_e, -p.r_s / p.l_s]])
    g = (park_matrix(theta_e) @ CLARKE_MAT @ converter_matrix(dc)) / p.l_s
    h = np.array([0.0, -(p.psi_pm / p.l_s) * omega_e])
    return LinearSubsystem(state_mat=f, input_mat=g, drift=h, output_mat=np.eye(2))


def build_grid_subsystem(p: GridParams, e_ab, dc: DcLinkState) -> LinearSubsystem:
    """RL grid-filter model in alpha/beta with (P, Q) as the output."""
    e_a, e_b = float(e_ab[0]), float(e_ab[1])
    f = (-p.r_n / p.l_n) * np.eye(2)
    g = (CLARKE_MAT @ converter_matrix(dc)) / p.l_n
    h = np.array([-e_a / p.l_n, -e_b / p.l_n])
    c = np.array([[e_a, e_b], [e_b, -e_a]])
    return LinearSubsystem(state_mat=f, input_mat=g, drift=h, output_mat=c)


def discretize(sys: LinearSubsystem, t_s: float) -> DiscreteModel:
    """One-step Euler discretization: x+ = (I + Ts F) x + Ts G u + Ts h."""
    if t_s <= 0:
        raise ValueError("sampling period must be positive")
    return DiscreteModel(
        state_mat=np.eye(2) + t_s * sys.state_mat,
        input_mat=t_s * sys.input_mat,
        drift=t_s * sys.drift,
        output_mat=sys.output_mat.copy(),
        t_s=t_s,
    )


def build_multistep(d: DiscreteModel, n_h: int) -> MultistepModel:
    """Stack the one-step model over `n_h` stages into condensed form."""
    if n_h < 1:
        raise ValueError("horizon must be >= 1")
    a, b, c, n = d.state_mat, d.input_mat, d.output_mat, d.drift
    ny, nu = c.shape[0], b.shape[1]

    powers = [np.eye(2)]
    for _ in range(n_h):
        powers.append(a @ powers[-1])

    forced = np.zeros((ny * n_h, nu * n_h))
    free = np.zeros((ny * n_h, 2))
    drift = np.zeros(ny * n_h)
    acc = n.copy()  # running sum of A^l n, l = 0..r
    for r in range(n_h):
        if r > 0:
            acc = acc + powers[r] @ n
        for col in range(r + 1):
            forced[ny * r : ny * r + ny, nu * col : nu * col + nu] = c @ powers[r - col] @ b
        free[ny * r : ny * r + ny, :] = c @ powers[r + 1]
        drift[ny * r : ny * r + ny] = c @ acc

    diff = np.eye(nu * n_h)
    for r in range(1, n_h):
        diff[nu * r : nu * r + nu, nu * (r - 1) : nu * r] = -np.eye(nu)
    prev = np.zeros((nu * n_h, nu))
    prev[:nu, :] = np.eye(nu)

    return MultistepModel(
        forced_map=forced,
        free_map=free,
        drift_vec=drift,
        diff_mat=diff,
        prev_sel=prev,
        horizon=n_h,
    )


def predict_outputs(m: MultistepModel, x0, u: SwitchSequence) -> np.ndarray:
    """Stacked output trajectory for one candidate input sequence."""
    return m.forced_map @ u.levels + m.free_map @ np.asarray(x0, float) + m.drift_vec


# ---------------------------------------------------------------------------
# DC-link imbalance rollout
# ---------------------------------------------------------------------------


def imbalance_contributions(
    x0, model: DiscreteModel, u: SwitchSequence, proj: np.ndarray, gain: float
) -> np.ndarray:
    """Per-stage imbalance increment of one converter side.

    `proj` reconstructs the three-phase current from the model state (Clarke
    pseudo-inverse, with the Park rotation folded in on the machine side);
    `gain` is Ts / C.  Stage j uses the state before that stage's input is
    applied, then propagates the state one Euler step.
    """
    x = np.asarray(x0, float).copy()
    out = np.empty(u.horizon)
    for j in range(u.horizon):
        blk = u.block(j)
        i_abc = proj @ x
        out[j] = gain * float(np.abs(blk) @ i_abc)
        x = model.state_mat @ x + model.input_mat @ blk + model.drift
    return out


def imbalance_path(v_imb0: float, contrib_m: np.ndarray, contrib_n: np.ndarray) -> np.ndarray:
    """Fold per-stage contributions into the predicted imbalance trajectory."""
    n = contrib_m.shape[0]
    out = np.empty(n)
    v = v_imb0
    for j in range(n):
        v = v + (contrib_m[j] - contrib_n[j])
        out[j] = v
    return out


def predict_imbalance(
    st: PlantState,
    u_m: SwitchSequence,
    u_n: SwitchSequence,
    machine: MachineParams,
    grid: GridParams,
    t_s: float,
) -> np.ndarray:
    """Predicted DC-link imbalance trajectory for one candidate pair.

    Both side models are frozen at time-k quantities; the imbalance update
    is bilinear in |switch| and the reconstructed phase currents.
    """
    if u_m.horizon != u_n.horizon:
        raise HorizonMismatchError(
            f"machine horizon {u_m.horizon} != grid horizon {u_n.horizon}"
        )
    model_m = discretize(
        build_machine_subsystem(machine, st.mech.omega_e, st.dc, st.mech.theta_e), t_s
    )
    model_n = discretize(build_grid_subsystem(grid, grid_emf(st.t, grid), st.dc), t_s)
    gain = t_s / st.dc.c
    proj_m = CLARKE_PINV_MAT @ park_matrix(st.mech.theta_e).T
    contrib_m = imbalance_contributions(st.i_m_dq, model_m, u_m, proj_m, gain)
    contrib_n = imbalance_contributions(st.i_n_ab, model_n, u_n, CLARKE_PINV_MAT, gain)
    return imbalance_path(st.dc.v_imb, contrib_m, contrib_n)
