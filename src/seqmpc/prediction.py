"""Controller-side prediction models.

Builds the continuous subsystem matrices for the machine and grid sides with
the converter map folded into the input matrix (inputs are switch integers
end to end), discretizes them with a one-step Euler approximation, stacks
the result into the condensed multistep form, and rolls the nonlinear
DC-link imbalance prediction forward stage by stage.

All model matrices are frozen at their time-k values within a horizon: the
electrical angle, speed, grid EMF and DC-link gain are not advanced between
stages.  `build_step_models` builds both sides' discretized models once per
control step, writing them into the two-side stack directly, bit-identically
to `discretize` of `build_machine_subsystem` and `build_grid_subsystem`
(which stay as the per-side definition); the multistep stacking and the
imbalance rollout reuse them.

Two-side convention: the machine and grid subproblems have the same shape,
so `build_step_models` stacks the two discretized models over a leading
side axis, machine first (`StepModels.sides`, and `StepModels.proj` for the
maps to phase currents); `StepModels.machine` and `StepModels.grid` are
views of its two items.  `build_multistep` and `imbalance_contributions`,
like `solver.condense` and `solver.assemble_qp`, broadcast over leading
axes, so one call serves both sides; on one side's model each is the same
function with no leading axis.  `solver.select_pair` rolls out both
candidate lists in one call, the shorter padded with zero rows that it
drops before scoring.  Each product is a stacked matmul, which
NumPy runs item by item through the same OpenBLAS call (gemm or gemv) on
the same item layout as the single-side product; every other operation is
elementwise or a copy.  So each side's arrays are bit-identical to those of
a call on that side alone.  Putting both sides into one 2-D matmul, a gemm
over the rows of both, would not be: gemm blocks a larger operand
differently and would move results in their last bits.

Arithmetic convention of the imbalance rollout: all k candidates of a side
move forward together as stacked matrix-vector products (`A @ X[:, :, None]`)
and are scored with a stacked self-product (`P[:, None, :] @ P[:, :, None]`).
NumPy runs each stacked item through the same BLAS gemv or dot call as a
single `A @ x` or `p @ p`, so the batch is bit-identical to rolling out one
candidate at a time.  A 2-D `A @ X` (gemm) and plain Python floats are not:
OpenBLAS's gemv and dot fuse multiply-adds, gemm blocks differently and
Python rounds every product, so either would move the predicted imbalance in
its last bits and could change which of two near-equal pairs is applied.

Call economy: a control step is short, so the NumPy calls around the BLAS
products cost more than the products themselves (1-3 us each).  What must
stay is every product above, as the same stacked matmul on the same item
shapes and strides: the input maps, the state-map powers and the products
of `build_multistep`, the rollout's gemv and dot calls.  Everything else is
free to take fewer calls as long as it computes the same IEEE operations
in the same order: `build_step_models` writes all its Python-float entries,
the states and the Park rotation into one array and hands out views of it,
and `imbalance_path` runs the left-to-right running sum as
`np.add.accumulate`, the ufunc method that `np.cumsum` wraps.  A copy never moves a bit, but the
layout it leaves can: a strided operand sends a product down another BLAS
path, so each operand is built C-contiguous like the one it replaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .plant import (
    LEVELS,
    DcLinkState,
    GridParams,
    MachineParams,
    PlantState,
    converter_matrix,
)
from .transforms import CLARKE_MAT, CLARKE_PINV_MAT, park_matrix


class SequenceError(ValueError):
    """A switch sequence, or a list of them, fails a check: a shape or level
    outside the alphabet, horizons that disagree, costs out of order.  Inside
    a control step such a failure is a failed step (see `run_scenario`)."""


class HorizonMismatchError(SequenceError):
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


@dataclass(frozen=True)
class MultistepModel:
    """Condensed horizon model  Y = forced_map U + free_map x0 + drift_vec.

    The switching effort diff_mat @ U - prev_sel @ u_prev depends on the
    horizon alone: `effort_maps(horizon)` gives both maps.
    """

    forced_map: np.ndarray  # (2N, 3N), block lower triangular
    free_map: np.ndarray    # (2N, 2)
    drift_vec: np.ndarray   # (2N,)
    horizon: int


@dataclass(frozen=True)
class SwitchSequence:
    """Stacked per-stage switch vector over the horizon, entries in {-1,0,1}."""

    levels: np.ndarray
    horizon: int

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=np.int64)
        object.__setattr__(self, "levels", lv)
        check_levels(lv, (3 * self.horizon,))

    def as_tuple(self) -> tuple:
        return tuple(int(v) for v in self.levels)

    def block(self, stage: int) -> np.ndarray:
        return self.levels[3 * stage : 3 * stage + 3]

    def __eq__(self, other):
        return isinstance(other, SwitchSequence) and self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())


_ALPHABET = frozenset(LEVELS)


def check_levels(levels: np.ndarray, shape: tuple) -> None:
    """Raise SequenceError unless `levels` has `shape`, whose last axis is the
    3 * horizon levels of a sequence, and every entry lies in {-1, 0, 1}."""
    if levels.shape != shape:
        raise SequenceError(
            f"sequence length must be 3 * horizon: shape {levels.shape}, not {shape}"
        )
    # on Python ints: two NumPy reductions cost ~3x more on a few levels
    if not _ALPHABET.issuperset(levels.ravel().tolist()):
        raise SequenceError("sequence entries must lie in {-1, 0, 1}")


def build_machine_subsystem(
    p: MachineParams, omega_e: float, dc: DcLinkState, theta_e: float
) -> LinearSubsystem:
    """PMSG stator model in dq with switch-integer input and identity output."""
    f = np.array([[-p.r_s / p.l_s, omega_e], [-omega_e, -p.r_s / p.l_s]])
    g = (park_matrix(theta_e) @ CLARKE_MAT @ converter_matrix(dc)) / p.l_s
    h = np.array([0.0, -(p.psi_pm / p.l_s) * omega_e])
    return LinearSubsystem(state_mat=f, input_mat=g, drift=h, output_mat=_identity(2))


def build_grid_subsystem(p: GridParams, e_ab, dc: DcLinkState) -> LinearSubsystem:
    """RL grid-filter model in alpha/beta with (P, Q) as the output."""
    e_a, e_b = float(e_ab[0]), float(e_ab[1])
    f = (-p.r_n / p.l_n) * _identity(2)
    g = (CLARKE_MAT @ converter_matrix(dc)) / p.l_n
    h = np.array([-e_a / p.l_n, -e_b / p.l_n])
    c = np.array([[e_a, e_b], [e_b, -e_a]])
    return LinearSubsystem(state_mat=f, input_mat=g, drift=h, output_mat=c)


def discretize(sys: LinearSubsystem, t_s: float) -> DiscreteModel:
    """One-step Euler discretization: x+ = (I + Ts F) x + Ts G u + Ts h."""
    if t_s <= 0:
        raise ValueError("sampling period must be positive")
    return DiscreteModel(
        state_mat=_identity(2) + t_s * sys.state_mat,
        input_mat=t_s * sys.input_mat,
        drift=t_s * sys.drift,
        output_mat=sys.output_mat.copy(),
    )


@functools.lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity, built once per size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=None)
def effort_maps(n_h: int) -> tuple:
    """Read-only (diff_mat, prev_sel) of the switching effort over `n_h` stages.

    Built once per horizon and shared by every multistep model.
    """
    if n_h < 1:
        raise ValueError("horizon must be >= 1")
    nu = 3
    diff = np.eye(nu * n_h)
    for r in range(1, n_h):
        diff[nu * r : nu * r + nu, nu * (r - 1) : nu * r] = -np.eye(nu)
    prev = np.zeros((nu * n_h, nu))
    prev[:nu, :] = np.eye(nu)
    diff.flags.writeable = False
    prev.flags.writeable = False
    return diff, prev


@functools.lru_cache(maxsize=None)
def _delay_index(n_h: int) -> np.ndarray:
    """(N, N) delay r - col of each block of the forced map; N marks the zero
    blocks above the diagonal."""
    r, col = np.indices((n_h, n_h))
    index = np.where(col <= r, r - col, n_h)
    index.flags.writeable = False
    return index


def build_multistep(d: DiscreteModel, n_h: int) -> MultistepModel:
    """Stack the one-step model over `n_h` stages into condensed form.

    Broadcasts over leading axes of the model's arrays, such as the side
    axis of `StepModels.sides` (see the module docstring).
    """
    if n_h < 1:
        raise ValueError("horizon must be >= 1")
    a, b, c, n = d.state_mat, d.input_mat, d.output_mat, d.drift
    lead = a.shape[:-2]
    k = len(lead)
    (ny, nx), nu = c.shape[-2:], b.shape[-1]
    # the stage axis comes first, the leading axes follow it, and moves
    # behind them once the stages are done
    stage_last = (*range(1, k + 1), 0, k + 1, k + 2)

    powers = np.empty((n_h + 1,) + a.shape)  # A^d, d = 0..N
    powers[0] = _identity(nx)
    for r in range(n_h):
        np.matmul(a, powers[r], out=powers[r + 1])
    c_powers = c @ powers  # C A^d
    blocks = np.zeros((n_h + 1,) + lead + (ny, nu))  # C A^d B once per delay d < N, then zero
    np.matmul(c_powers[:n_h], b, out=blocks[:n_h])
    forced = blocks[_delay_index(n_h)].transpose(*range(2, k + 2), 0, k + 2, 1, k + 3)
    forced = forced.reshape(lead + (ny * n_h, nu * n_h))
    free = c_powers[1:].transpose(stage_last).reshape(lead + (ny * n_h, nx))
    acc = powers[:n_h] @ n[..., None]  # A^l n, then running sums over l = 0..r
    acc[0] = n[..., None]
    for r in range(1, n_h):
        acc[r] += acc[r - 1]
    drift = (c @ acc).transpose(stage_last).reshape(lead + (ny * n_h,))
    return MultistepModel(forced, free, drift, n_h)


def predict_outputs(m: MultistepModel, x0, u: SwitchSequence) -> np.ndarray:
    """Stacked output trajectory for one candidate input sequence."""
    return m.forced_map @ u.levels + m.free_map @ np.asarray(x0, float) + m.drift_vec


# ---------------------------------------------------------------------------
# DC-link imbalance rollout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepModels:
    """Both discretized side models of one control step and the imbalance
    stage's inputs, all frozen at time-k quantities.

    `sides` stacks the two models over a leading side axis, machine first
    (see the module docstring); `machine` and `grid` are views of its items.
    `proj` stacks the two sides' maps from the model state to the phase
    currents the same way: the machine side's is the Clarke pseudo-inverse
    with the Park rotation folded in (`proj_m`), the grid side's the Clarke
    pseudo-inverse.  `gain` is Ts / C, and `x0` stacks the two sides' model
    states at time k, the machine dq currents and the grid alpha/beta
    currents.
    """

    sides: DiscreteModel
    proj: np.ndarray
    gain: float
    x0: np.ndarray

    @property
    def machine(self) -> DiscreteModel:
        return self._side(0)

    @property
    def grid(self) -> DiscreteModel:
        return self._side(1)

    @property
    def proj_m(self) -> np.ndarray:
        return self.proj[0]

    def _side(self, i: int) -> DiscreteModel:
        s = self.sides
        return DiscreteModel(s.state_mat[i], s.input_mat[i], s.drift[i], s.output_mat[i])


def build_step_models(
    st: PlantState, machine: MachineParams, grid: GridParams, t_s: float, c_dc: float
) -> StepModels:
    """Both sides' discretized models for the control step at `st`, written
    into the two-side stack directly, the imbalance gain t_s / c_dc and the
    stacked model states.

    Each entry is the one that `discretize` computes from
    `build_machine_subsystem` and `build_grid_subsystem`, by the same
    operations in the same order: I + Ts F, Ts h and the output maps on
    Python floats (1.0 + Ts f_ii, 0.0 + Ts f_ij and Ts h_i, signed zeros
    included), and the input maps as the same NumPy products
    (BLAS fuses their multiply-adds, which Python floats would not).  So the
    stack is bit-identical to building, discretizing and stacking each side.
    The Python-float entries, the states, the Park rotation and the
    inductances go into one array in one call, and the models are views of
    it; the two input maps are one stacked product, each item the same
    gemm as the side's own product.
    """
    if t_s <= 0:
        raise ValueError("sampling period must be positive")
    omega_e = machine.pole_pairs * st.mech.omega_m
    decay_m = -machine.r_s / machine.l_s
    decay_n = -grid.r_n / grid.l_n
    zero_n = 0.0 + t_s * (decay_n * 0.0)  # off the diagonal of I + Ts (decay_n I)
    e_a, e_b = _k.grid_emf2(st.t, grid.e_peak, grid.omega_n)
    cos_t, sin_t = math.cos(st.mech.theta_e), math.sin(st.mech.theta_e)
    flat = np.array((
        # state maps I + Ts F: machine, grid
        1.0 + t_s * decay_m, 0.0 + t_s * omega_e, 0.0 + t_s * -omega_e, 1.0 + t_s * decay_m,
        1.0 + t_s * (decay_n * 1.0), zero_n, zero_n, 1.0 + t_s * (decay_n * 1.0),
        # output maps: machine, grid
        1.0, 0.0, 0.0, 1.0, e_a, e_b, e_b, -e_a,
        # drifts Ts h: machine, grid
        t_s * 0.0, t_s * (-(machine.psi_pm / machine.l_s) * omega_e),
        t_s * (-e_a / grid.l_n), t_s * (-e_b / grid.l_n),
        # states: machine dq, grid alpha/beta currents
        *st.i_m_dq.tolist(), *st.i_n_ab.tolist(),
        # Park rotation (`park_matrix`) and the two inductances
        cos_t, sin_t, -sin_t, cos_t, machine.l_s, grid.l_n,
    ))
    maps = flat[:16].reshape(2, 2, 2, 2)
    park = flat[24:28].reshape(2, 2)
    input_mat = np.array((park @ CLARKE_MAT, CLARKE_MAT)) @ converter_matrix(st.dc)
    input_mat /= flat[28:30, None, None]
    input_mat *= t_s
    return StepModels(
        DiscreteModel(maps[0], input_mat, flat[16:20].reshape(2, 2), maps[1]),
        np.array((CLARKE_PINV_MAT @ park.T, CLARKE_PINV_MAT)),
        t_s / c_dc,
        flat[20:24].reshape(2, 2),
    )


def imbalance_contributions(
    x0, model: DiscreteModel, levels: np.ndarray, proj: np.ndarray, gain: float
) -> np.ndarray:
    """(..., k, N) per-stage imbalance increments of k candidate sequences
    of a converter side, given as a (..., k, 3N) level stack.

    `proj` reconstructs the three-phase current from the model state (Clarke
    pseudo-inverse, with the Park rotation folded in on the machine side);
    `gain` is Ts / C.  Stage j uses the state before that stage's input is
    applied, then propagates the state one Euler step.  All candidates move
    together as stacked matrix-vector products (see the module docstring).
    Broadcasts over leading axes of `x0`, the model's arrays, `levels` and
    `proj`, such as the side axis of `StepModels.sides` and `StepModels.proj`.
    """
    lead = levels.shape[:-2]
    k, n = levels.shape[-2], levels.shape[-1] // 3
    blocks = np.asarray(levels, dtype=np.float64).reshape(lead + (k, n, 3, 1))
    # B u_j of every stage but the last, whose input moves no state the rollout reads
    driven = model.input_mat[..., None, None, :, :] @ blocks[..., : n - 1, :, :]
    state_mat = model.state_mat[..., None, :, :]
    drift = model.drift[..., None, :, None]
    states = np.empty(lead + (k, n, 2, 1))  # the state before each stage's input
    states[..., 0, :, :] = np.asarray(x0, float)[..., None, :, None]
    for j in range(n - 1):
        np.add(
            state_mat @ states[..., j, :, :] + driven[..., j, :, :], drift,
            out=states[..., j + 1, :, :],
        )
    currents = proj[..., None, None, :, :] @ states
    active = np.abs(blocks).swapaxes(-1, -2)  # |u_j| as (1, 3) rows
    return gain * (active @ currents)[..., 0, 0]


def imbalance_path(v_imb0: float, contrib_m: np.ndarray, contrib_n: np.ndarray) -> np.ndarray:
    """Fold (k_m, N) and (k_n, N) per-stage contributions into the (k_m, k_n, N)
    predicted imbalance trajectories of every candidate pair."""
    step = contrib_m[:, None, :] - contrib_n[None, :, :]
    step[:, :, 0] += v_imb0
    # left to right: v_j = v_(j-1) + step_j, the accumulation `np.cumsum` runs
    return np.add.accumulate(step, axis=2, out=step)


def predict_imbalance(
    st: PlantState, u_m: SwitchSequence, u_n: SwitchSequence, models: StepModels
) -> np.ndarray:
    """Predicted DC-link imbalance trajectory for one candidate pair.

    Both side models are frozen at time-k quantities; the imbalance update
    is bilinear in |switch| and the reconstructed phase currents.  The
    controller scores pairs with `solver.select_pair`; this one-pair form is
    the reference that tests compare it with.
    """
    if u_m.horizon != u_n.horizon:
        raise HorizonMismatchError(
            f"machine horizon {u_m.horizon} != grid horizon {u_n.horizon}"
        )
    contrib_m = imbalance_contributions(
        st.i_m_dq, models.machine, u_m.levels[None, :], models.proj_m, models.gain
    )
    contrib_n = imbalance_contributions(
        st.i_n_ab, models.grid, u_n.levels[None, :], CLARKE_PINV_MAT, models.gain
    )
    return imbalance_path(st.dc.v_imb, contrib_m, contrib_n)[0, 0]
