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

A switch sequence goes in as level rows: its 3N levels, a tuple of ints or
a 1-D int array (a stack of them for the rollout), as `predict_outputs` and
`predict_imbalance` take it.  They do not check the levels; the one level
check is `solver.CandidateList`'s.  `SwitchSequence` is a list row as a
tuple, an output record that nothing here takes as input.

Two-side convention: the machine and grid subproblems have the same shape,
so `build_step_models` stacks the two discretized models over a leading
side axis, machine first (`StepModels.sides`, and `StepModels.proj` for the
maps to phase currents); `StepModels.machine` and `StepModels.grid` are
views of its two items.  `build_multistep` and `imbalance_contributions`,
like `solver.condense` and `solver.assemble_qp`, broadcast over leading
axes, so one call serves both sides; on one side's model each is the same
function with no leading axis.  The imbalance rollout moves all k
candidates of a side forward together as stacked matrix-vector products
(`A @ X[:, :, None]`) and scores them with a stacked self-product
(`P[:, None, :] @ P[:, :, None]`); `solver.select_pair` rolls out both
candidate lists in one call, the shorter padded with zero rows that it
drops before scoring.

The step plan.  A control step is short, so the NumPy calls around its
products cost more than the products themselves (about 1 us each).  A
`StepPlan` is built once for one shape: the leading axes (the side axis in
the controller), the horizon N and the list lengths k_m and k_n.  It holds
every operand buffer of the step, the views that the products read and
write, and the records that the planned functions return (`StepModels`,
`MultistepModel`, `QpForm` and the forms of its items), which wrap its
buffers.  The closed loop builds one per run and passes it down; a call
without one builds a fresh one for its arguments, so every call runs the
same code.  A step then runs only its products, each into one of the
plan's buffers, the elementwise writes, one flat-index gather that places
the forced, free and drift maps of `build_multistep` (`_map_index`, the
maps' transposes and reshapes run once per shape on the products'
positions), and the decoder.  Every view a product reads or writes is built
once, with the plan: the state x0 as a column of the models' values,
forced', the rollout's broadcast views of the side models and the path's
rows and columns.  A caller's array that is not the plan's own is copied
into the plan's buffer first (the planned functions check by identity), so
there is one path through each function.

Bit identity.  Each array of a step, here and in `solver`, is bit-identical
to computing each side alone and each candidate one at a time with fresh
NumPy results; tests/test_step_forms.py pins it.  Four rules keep it so.

- Stacking rule.  Each product is a stacked matmul, which NumPy runs item
  by item through the same OpenBLAS call (gemm, gemv or dot) on the same
  item layout as the single-side, single-candidate product; every other
  operation is elementwise or a copy.  One 2-D gemm over the rows of both
  sides or of all candidates would not be bit-identical: gemm blocks a
  larger operand differently.  Nor would Python floats: OpenBLAS's gemv and
  dot fuse multiply-adds, and Python rounds every product.  Either would
  move results in their last bits and could change which of two near-equal
  pairs is applied.
- Layout rule.  Every product's `out=` is a C-contiguous buffer of the
  result's shape, the layout a fresh result would have.  So NumPy runs the
  same BLAS call on the same items, bit for bit.  A buffer that a later
  product reads as a matrix (the forced and free maps, the factor) must be
  C-contiguous in any case: a strided matrix operand takes another BLAS
  path and moves results in their last bits (the pins of
  tests/test_step_forms.py fail on a plan whose factor buffer is strided).
  NumPy 2.4.6 gave the same bits for the strided `out=`s tried, but a
  non-BLAS-able output may also run NumPy's own loop, whose sums are not
  BLAS's; nothing here relies on either.
- Call-form rule.  Each product goes through the cheapest NumPy entry
  point that issues the same BLAS call.  A single matrix product runs
  through `ndarray.dot(b, out)`: the same cblas_dgemm as `np.matmul`, at
  about a third of its dispatch (0.4-0.8 us against 1.4-1.8 us).  A stacked
  product runs through `np.matmul`, its `out` passed by position.  A
  product over an empty stage axis, at N = 1, is skipped, and the product
  by the identity, A^1 = A @ I, is a copy of A: bit for bit the same for a
  finite A with no -0.0 entry (see `build_multistep`).  Values that are
  Python numbers (the references, the previous levels, the model entries)
  are written into the plan's buffers directly, not through a temporary
  array.
- Aliasing rule.  What a planned function returns is the plan's: it holds
  the current step until the next call with the same plan overwrites it.
  Nothing that outlives a step shares memory with a plan: the candidate
  lists and everything reachable from a `ControlDecision` are Python
  values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .plant import (
    GridParams,
    MachineParams,
    PlantState,
    converter_matrix,
)

#: 2x3 power-invariant Clarke matrix (abc -> alpha/beta), the scaling that
#: every power and torque expression assumes
CLARKE_MAT = _k.SQRT23 * np.array([[1.0, -0.5, -0.5], [0.0, _k.SQRT3_2, -_k.SQRT3_2]])

#: 3x2 Moore-Penrose pseudo-inverse of CLARKE_MAT: its transpose, since the
#: scaled matrix satisfies T @ T.T = I
CLARKE_PINV_MAT = CLARKE_MAT.T.copy()

#: states and outputs, and inputs (switch levels), of either side's model per stage
NX, NU = 2, 3

#: read-only identity of a side's state space
EYE2 = np.eye(NX)
EYE2.flags.writeable = False


class SequenceError(ValueError):
    """A switch sequence, or a list of them, fails a check: a shape or level
    outside the alphabet, horizons that disagree, costs out of order.  Inside
    a control step such a failure is a failed step (see `run_scenario`)."""


@dataclass(slots=True)
class LinearSubsystem:
    """A side's linear model with output  y = output_mat x.

    The builders' continuous model is  x' = state_mat x + input_mat u +
    drift; the one-step model of `discretize` and `build_step_models` is
    x+ = state_mat x + input_mat u + drift over one sampling period, and
    may stack sides over leading axes.
    """

    state_mat: np.ndarray  # 2x2
    input_mat: np.ndarray  # 2x3, switch integers -> state derivative or step
    drift: np.ndarray      # 2
    output_mat: np.ndarray  # 2x2


@dataclass(slots=True)
class MultistepModel:
    """Condensed horizon model  Y = forced_map U + free_map x0 + drift_vec.

    The switching effort diff_mat @ U - prev_sel @ u_prev depends on the
    horizon alone: `effort_maps(horizon)` gives both maps.
    """

    forced_map: np.ndarray  # (2N, 3N), block lower triangular
    free_map: np.ndarray    # (2N, 2)
    drift_vec: np.ndarray   # (2N,)
    horizon: int


@dataclass(slots=True)
class QpForm:
    """Condensed quadratic subproblem in both raw and triangular form
    (`solver.assemble_qp`).

    Invariants: factor is lower triangular with positive diagonal,
    factor.T @ factor == quad, quad @ unconstrained == lin, and
    target == factor @ unconstrained.  `factor_list` holds the factor's
    entries as the flat row-major list of Python floats that
    `_kernels.cholesky_lower` returned, which the decoder reads.  The form
    of a stack of subproblems carries the stack's leading axes on every
    array, and its `factor_list` is the list of its items' flat lists, in C
    order; the plan's `qp_items` are the forms of its items.
    """

    quad: np.ndarray
    lin: np.ndarray
    factor: np.ndarray
    unconstrained: np.ndarray
    target: np.ndarray
    horizon: int
    factor_list: list


class SwitchSequence(tuple):
    """One row of a k-best list, its 3N levels, as a tuple.

    An output record only, of rows that `solver.CandidateList` has already
    checked: `CandidateList.sequences`.  No function takes one as input; a
    switch sequence goes in as level rows.  It compares and hashes as its
    levels' tuple.
    """

    __slots__ = ()

    def as_tuple(self) -> tuple:
        return tuple(self)


def park_matrix(theta: float) -> np.ndarray:
    """The Park rotation alpha/beta -> dq at electrical angle `theta`."""
    ct, st = math.cos(theta), math.sin(theta)
    return np.array([[ct, st], [-st, ct]])


def build_machine_subsystem(
    p: MachineParams, omega_e: float, v_dc: float, v_imb: float, theta_e: float
) -> LinearSubsystem:
    """PMSG stator model in dq with switch-integer input and identity output."""
    f = np.array([[-p.r_s / p.l_s, omega_e], [-omega_e, -p.r_s / p.l_s]])
    g = (park_matrix(theta_e) @ CLARKE_MAT @ converter_matrix(v_dc, v_imb)) / p.l_s
    h = np.array([0.0, -(p.psi_pm / p.l_s) * omega_e])
    return LinearSubsystem(state_mat=f, input_mat=g, drift=h, output_mat=EYE2)


def build_grid_subsystem(p: GridParams, e_ab, v_dc: float, v_imb: float) -> LinearSubsystem:
    """RL grid-filter model in alpha/beta with (P, Q) as the output."""
    e_a, e_b = float(e_ab[0]), float(e_ab[1])
    f = (-p.r_n / p.l_n) * EYE2
    g = (CLARKE_MAT @ converter_matrix(v_dc, v_imb)) / p.l_n
    h = np.array([-e_a / p.l_n, -e_b / p.l_n])
    c = np.array([[e_a, e_b], [e_b, -e_a]])
    return LinearSubsystem(state_mat=f, input_mat=g, drift=h, output_mat=c)


def discretize(sys: LinearSubsystem, t_s: float) -> LinearSubsystem:
    """One-step Euler discretization: x+ = (I + Ts F) x + Ts G u + Ts h."""
    if t_s <= 0:
        raise ValueError("sampling period must be positive")
    return LinearSubsystem(
        state_mat=EYE2 + t_s * sys.state_mat,
        input_mat=t_s * sys.input_mat,
        drift=t_s * sys.drift,
        output_mat=sys.output_mat.copy(),
    )


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


def build_multistep(d: LinearSubsystem, n_h: int, plan: StepPlan | None = None) -> MultistepModel:
    """Stack the one-step model over `n_h` stages into condensed form.

    Broadcasts over leading axes of the model's arrays, such as the side
    axis of `StepModels.sides` (see the module docstring).  The products
    are the powers A^d, C A^d, the blocks C A^d B and C times the running
    sums of A^l n; one gather (`_map_index`) places them in the forced, free
    and drift maps, which are the plan's (a fresh one without `plan`).

    A^1 is a copy of A, not the product A @ I.  For a finite A with no -0.0
    entry the two are equal bit for bit, whatever order BLAS sums in: each
    entry is a_ij * 1 plus terms a_il * 0 = +-0.0, and x + +-0.0 == x but
    for x = -0.0.  Every state map here has such entries: each is 1.0 + x
    or 0.0 + x (`discretize`, `build_step_models`), and in round-to-nearest
    neither sum is ever -0.0.  At N = 1 the products and the running sum of
    the drift's later stages run over an empty stage axis and are skipped.
    """
    if plan is None:
        plan = StepPlan(n_h, lead=d.state_mat.shape[:-2])
    elif plan.n_h != n_h:
        raise ValueError(f"the plan is for horizon {plan.n_h}, not {n_h}")
    a, b, c = d.state_mat, d.input_mat, d.output_mat
    plan.power_first[...] = a  # A^1 = A @ I, bit for bit (see the docstring)
    for power, following in plan.power_steps:  # A^d, d = 2..N
        np.matmul(a, power, following)
    np.matmul(c, plan.powers, plan.c_powers)  # C A^d
    np.matmul(plan.c_powers_head, b, plan.blocks_head)  # C A^d B, d < N
    # A^l n, then running sums over l = 0..r; at N = 1 only A^0 n
    plan.drift_first[...] = d.drift
    if n_h > 1:
        np.matmul(plan.powers_inner, plan.drift_head, plan.drift_rest)
        np.add.accumulate(plan.drift_sums, 0, None, plan.drift_sums)
    np.matmul(c, plan.drift_sums, plan.c_drift_sums)
    np.take(plan.products, plan.map_index, None, plan.maps, "clip")
    return plan.multi


def predict_outputs(m: MultistepModel, x0, levels) -> np.ndarray:
    """Stacked output trajectory for one candidate sequence, given as its
    3N levels (a tuple of ints or a 1-D int array)."""
    return m.forced_map @ np.asarray(levels) + m.free_map @ np.asarray(x0, float) + m.drift_vec


# ---------------------------------------------------------------------------
# DC-link imbalance rollout
# ---------------------------------------------------------------------------


@dataclass(slots=True)
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

    sides: LinearSubsystem
    proj: np.ndarray
    gain: float
    x0: np.ndarray

    @property
    def machine(self) -> LinearSubsystem:
        return self._side(0)

    @property
    def grid(self) -> LinearSubsystem:
        return self._side(1)

    @property
    def proj_m(self) -> np.ndarray:
        return self.proj[0]

    def _side(self, i: int) -> LinearSubsystem:
        s = self.sides
        return LinearSubsystem(s.state_mat[i], s.input_mat[i], s.drift[i], s.output_mat[i])


# ---------------------------------------------------------------------------
# the step plan
# ---------------------------------------------------------------------------


def _views(buffer: np.ndarray, shapes) -> list:
    """C-contiguous views of consecutive pieces of the flat `buffer`, one
    per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[start : start + size].reshape(shape))
        start += size
    return views


def _product_shapes(lead: tuple, n_h: int) -> tuple:
    """Shapes of the products `build_multistep` gathers its maps from: the
    blocks C A^d B for d = 0..N (the last one zero), C A^d for d = 0..N and
    C times the drift sums, stage axis first."""
    return (
        (n_h + 1,) + lead + (NX, NU),
        (n_h + 1,) + lead + (NX, NX),
        (n_h,) + lead + (NX, 1),
    )


def _map_shapes(lead: tuple, n_h: int) -> tuple:
    """Shapes of the forced, free and drift maps of `build_multistep`."""
    return lead + (NX * n_h, NU * n_h), lead + (NX * n_h, NX), lead + (NX * n_h,)


@functools.lru_cache(maxsize=None)
def _map_index(lead: tuple, n_h: int) -> np.ndarray:
    """Read-only flat indices into the products (`_product_shapes`, one
    after the other) of the forced, free and drift maps' entries, one map
    after the other, each in C order.

    They come from the gather, transposes and reshapes that place the maps
    (the stage axis moves behind the leading axes), run once on the
    products' positions: gathering the values by them copies each entry to
    the same place.
    """
    k = len(lead)
    shapes = _product_shapes(lead, n_h)
    blocks, c_powers, c_drift = _views(np.arange(sum(map(math.prod, shapes))), shapes)
    stage_last = (*range(1, k + 1), 0, k + 1, k + 2)
    forced = blocks[_delay_index(n_h)].transpose(*range(2, k + 2), 0, k + 2, 1, k + 3)
    maps = (forced, c_powers[1:].transpose(stage_last), c_drift.transpose(stage_last))
    index = np.concatenate([m.reshape(-1) for m in maps])
    index.flags.writeable = False
    return index


#: most candidate pairs a plan scores: its path and score buffers hold
#: k_m * k_n * (N + 1) floats, so the product of two list lengths that each
#: pass the controller's checks could exhaust memory; 2^16 pairs take at most
#: 3.7 MB at the longest horizon, N = 6, and the largest product any
#: configuration here uses is 40 * 30
MAX_PAIRS = 2**16


class StepPlan:
    """The operand buffers of one control step, the views its products read
    and write, and the records its planned functions return, for one shape:
    leading axes `lead` (the side axis, machine first, in the controller),
    horizon `n_h` and list lengths `k_m` and `k_n`, each capped at the
    3^(3N) sequences of the horizon as the decoder caps its k (see the
    module docstring).  Raises ValueError, before allocating anything, when
    the capped lengths give more than MAX_PAIRS pairs.  The closed loop
    builds one per run; a planned function given none builds a fresh one
    for its arguments.  The model buffers and the candidate lists' rows
    exist for two sides only.
    """

    def __init__(self, n_h: int, k_m: int = 1, k_n: int = 1, lead: tuple = (2,)):
        if n_h < 1:
            raise ValueError("horizon must be >= 1")
        sequences = 3 ** (3 * n_h)
        pairs = min(k_m, sequences) * min(k_n, sequences)
        if pairs > MAX_PAIRS:
            raise ValueError(
                f"n_k={k_m} and n_l={k_n} at N_h={n_h} give {pairs} candidate pairs "
                f"(each list capped at the horizon's {sequences} sequences); "
                f"at most {MAX_PAIRS} are scored"
            )
        k_m, k_n = min(k_m, sequences), min(k_n, sequences)
        self.n_h, self.k_m, self.k_n = n_h, k_m, k_n
        n, nu = n_h, NU * n_h
        lead = tuple(lead)
        two_sides = lead == (2,)

        # `build_step_models`: its Python-float entries (the state maps, the
        # output maps, the drifts, the states, the Park rotation, the two
        # inductances and the converter map), the input maps' left factors
        # and the phase-current maps; each second item is the grid side's
        # constant Clarke matrix or pseudo-inverse
        self.values = values = np.empty(39)
        self.park = values[24:28].reshape(2, 2)
        self.park_t = self.park.T
        self.inductances = values[28:30, None, None]
        self.converter = values[30:39].reshape(3, 3)
        self.clarke = np.array((CLARKE_MAT, CLARKE_MAT))
        self.park_clarke = self.clarke[0]
        proj = np.array((CLARKE_PINV_MAT, CLARKE_PINV_MAT))
        self.proj_m = proj[0]
        sides = LinearSubsystem(
            values[:8].reshape(2, NX, NX), np.empty((2, NX, NU)),
            values[16:20].reshape(2, NX), values[8:16].reshape(2, NX, NX),
        )
        self.models = StepModels(sides, proj, 0.0, values[20:24].reshape(2, NX))

        # `build_multistep`: the powers A^d, the drift sums, the products and
        # the maps gathered from them
        self.powers = np.empty((n + 1,) + lead + (NX, NX))
        self.powers[0] = EYE2
        self.power_first = self.powers[1]
        self.power_steps = [(self.powers[r], self.powers[r + 1]) for r in range(1, n)]
        self.powers_inner = self.powers[1:n]
        self.drift_sums = np.empty((n,) + lead + (NX, 1))
        self.drift_head = self.drift_sums[0]
        self.drift_first, self.drift_rest = self.drift_head[..., 0], self.drift_sums[1:]
        shapes = _product_shapes(lead, n)
        self.products = np.zeros(sum(map(math.prod, shapes)))  # the zero block stays zero
        blocks, self.c_powers, self.c_drift_sums = _views(self.products, shapes)
        self.blocks_head, self.c_powers_head = blocks[:n], self.c_powers[:n]
        self.map_index = _map_index(lead, n)
        self.maps = np.empty(self.map_index.size)
        self.multi = MultistepModel(*_views(self.maps, _map_shapes(lead, n)), n)

        # `solver.condense` and `solver.assemble_qp`; in the controller the
        # state x0 is the models' own, a column view of their values
        self.x0_col = values[20:24].reshape(2, NX, 1) if two_sides else np.empty(lead + (NX, 1))
        self.x0 = self.x0_col[..., 0]
        if two_sides:
            self.models.x0 = self.x0
        self.forced_t = self.multi.forced_map.swapaxes(-1, -2)
        self.residual = np.empty(lead + (NX * n, 1))
        self.residual_flat = self.residual[..., 0]
        self.y_ref = np.empty(lead + (NX * n,))
        self.quad = np.empty(lead + (nu, nu))
        self.forced_residual = np.empty(lead + (nu, 1))
        self.forced_residual_flat = self.forced_residual[..., 0]
        self.u_prev = np.empty(lead + (3,))
        self.effort = np.zeros(lead + (nu,))  # weight * u_prev in the first stage, then zero
        self.effort_first = self.effort[..., :3]
        self.lin = np.empty(lead + (nu,))
        self.lin_col = self.lin[..., None]
        self.factor = np.empty(lead + (nu, nu))
        self.unconstrained = np.empty(lead + (nu, 1))
        self.target = np.empty(lead + (nu, 1))
        # the factors as `_kernels.cholesky_lower`'s flat lists, one per item
        self.factor_lists = [None] * math.prod(lead)
        self.qp = QpForm(self.quad, self.lin, self.factor, self.unconstrained[..., 0],
                         self.target[..., 0], n, self.factor_lists)
        qp = self.qp
        self.qp_items = [
            QpForm(qp.quad[i], qp.lin[i], qp.factor[i], qp.unconstrained[i], qp.target[i], n, None)
            for i in np.ndindex(lead)
        ] if lead else [qp]

        # `imbalance_contributions`: the model it rolls out (the step's models
        # for two sides) and its broadcast views, the level stack as floats,
        # the rows of a shorter list past its end staying zero, and the rollout
        k = max(k_m, k_n)
        if two_sides:
            rollout, rollout_proj = sides, proj
        else:
            rollout = LinearSubsystem(np.empty(lead + (NX, NX)), np.empty(lead + (NX, NU)),
                                      np.empty(lead + (NX,)), None)
            rollout_proj = np.empty(lead + (NU, NX))
        self.rollout, self.rollout_proj = rollout, rollout_proj
        self.rollout_input = rollout.input_mat[..., None, None, :, :]
        self.rollout_state = rollout.state_mat[..., None, :, :]
        self.rollout_drift = rollout.drift[..., None, :, None]
        self.rollout_current = rollout_proj[..., None, None, :, :]
        self.levels = np.zeros(lead + (k, nu))
        self.magnitudes = np.empty(lead + (k, nu))
        blocks = self.levels.reshape(lead + (k, n, 3, 1))
        self.driving = blocks[..., : n - 1, :, :]  # the last stage's input moves no state read
        self.active = self.magnitudes.reshape(lead + (k, n, 3, 1)).swapaxes(-1, -2)
        self.driven = np.empty(lead + (k, n - 1, NX, 1))
        self.states = np.empty(lead + (k, n, NX, 1))
        self.first_states = np.moveaxis(self.states[..., 0, :, 0], -2, 0)
        self.carry = np.empty(lead + (k, NX, 1))
        self.stages = [
            (self.states[..., j, :, :], self.driven[..., j, :, :], self.states[..., j + 1, :, :])
            for j in range(n - 1)
        ]
        self.currents = np.empty(lead + (k, n, 3, 1))
        self.dots = np.empty(lead + (k, n, 1, 1))
        self.dots_flat = self.dots[..., 0, 0]
        self.contrib = np.empty(lead + (k, n))

        # `imbalance_path` and `solver.select_pair`'s scores
        self.paths = np.empty((k_m, k_n, n))
        self.paths_first = self.paths[:, :, 0]
        rows = self.paths.reshape(-1, n)
        self.path_rows, self.path_cols = rows[:, None, :], rows[:, :, None]
        self.scores = np.empty((k_m * k_n, 1, 1))
        self.scores_flat = self.scores[:, 0, 0]

        if two_sides:
            self.levels_m, self.levels_n = self.levels[0, :k_m], self.levels[1, :k_n]
            self.contrib_m, self.contrib_n = self.contrib[0, :k_m], self.contrib[1, :k_n]
            self.contrib_m_col = self.contrib_m[:, None, :]
            self.contrib_n_row = self.contrib_n[None, :, :]


def build_step_models(
    st: PlantState, machine: MachineParams, grid: GridParams, t_s: float, c_dc: float,
    plan: StepPlan | None = None,
) -> StepModels:
    """Both sides' discretized models for the control step at `st`, written
    into the two-side stack directly, the imbalance gain t_s / c_dc and the
    stacked model states: the plan's `models` (a fresh plan's without
    `plan`).

    Each entry is the one that `discretize` computes from
    `build_machine_subsystem` and `build_grid_subsystem`, by the same
    operations in the same order: I + Ts F, Ts h and the output maps on
    Python floats (1.0 + Ts f_ii, 0.0 + Ts f_ij and Ts h_i, signed zeros
    included), and the input maps as the same NumPy products
    (BLAS fuses their multiply-adds, which Python floats would not).  So the
    stack is bit-identical to building, discretizing and stacking each side.
    The Python-float entries, the states, the Park rotation, the
    inductances and the converter map (the entries of `converter_matrix`,
    each the same IEEE product) go into one buffer in one call, and the
    models are views of it; the two input maps are one stacked product,
    each item the same gemm as the side's own product, and the two
    single-matrix products go through `ndarray.dot` (see the module
    docstring).
    """
    if t_s <= 0:
        raise ValueError("sampling period must be positive")
    if plan is None:
        plan = StepPlan(1)
    omega_e = machine.pole_pairs * st.omega_m
    decay_m = -machine.r_s / machine.l_s
    decay_n = -grid.r_n / grid.l_n
    zero_n = 0.0 + t_s * (decay_n * 0.0)  # off the diagonal of I + Ts (decay_n I)
    e_a, e_b = _k.grid_emf2(st.t, grid.e_peak, grid.omega_n)
    cos_t, sin_t = math.cos(st.theta_e), math.sin(st.theta_e)
    # `converter_matrix`: its pattern's entries 2.0 and -1.0 times (v_dc + v_imb) / 6
    g = (st.v_dc + st.v_imb) / 6.0
    two_g, minus_g = 2.0 * g, -1.0 * g
    plan.values[:] = (
        # state maps I + Ts F: machine, grid
        1.0 + t_s * decay_m, 0.0 + t_s * omega_e, 0.0 + t_s * -omega_e, 1.0 + t_s * decay_m,
        1.0 + t_s * (decay_n * 1.0), zero_n, zero_n, 1.0 + t_s * (decay_n * 1.0),
        # output maps: machine, grid
        1.0, 0.0, 0.0, 1.0, e_a, e_b, e_b, -e_a,
        # drifts Ts h: machine, grid
        t_s * 0.0, t_s * (-(machine.psi_pm / machine.l_s) * omega_e),
        t_s * (-e_a / grid.l_n), t_s * (-e_b / grid.l_n),
        # states: machine dq, grid alpha/beta currents
        *st.i_m_dq, *st.i_n_ab,
        # Park rotation (`park_matrix`) and the two inductances
        cos_t, sin_t, -sin_t, cos_t, machine.l_s, grid.l_n,
        # the converter map
        two_g, minus_g, minus_g, minus_g, two_g, minus_g, minus_g, minus_g, two_g,
    )
    models = plan.models
    plan.park.dot(CLARKE_MAT, plan.park_clarke)
    input_mat = np.matmul(plan.clarke, plan.converter, models.sides.input_mat)
    input_mat /= plan.inductances
    input_mat *= t_s
    CLARKE_PINV_MAT.dot(plan.park_t, plan.proj_m)
    models.gain = t_s / c_dc
    return models


def imbalance_contributions(
    x0, model: LinearSubsystem, levels: np.ndarray, proj: np.ndarray, gain: float,
    plan: StepPlan | None = None,
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
    The levels go into the plan's float stack, and the model and `proj`
    into the plan's rollout model, unless they are the plan's already (the
    step's models, for two sides); the result is the plan's `contrib` (a
    fresh plan's without `plan`).
    """
    if plan is None:
        k, n = levels.shape[-2], levels.shape[-1] // 3
        plan = StepPlan(n, k, k, levels.shape[:-2])
    if levels is not plan.levels:
        plan.levels[...] = levels
    rollout = plan.rollout
    if model is not rollout:
        rollout.state_mat[...] = model.state_mat
        rollout.input_mat[...] = model.input_mat
        rollout.drift[...] = model.drift
    if proj is not plan.rollout_proj:
        plan.rollout_proj[...] = proj
    np.abs(plan.levels, plan.magnitudes)
    if plan.n_h > 1:  # B u_j of every stage but the last
        np.matmul(plan.rollout_input, plan.driving, plan.driven)
    plan.first_states[...] = x0  # the state before each stage's input
    state_mat, drift, carry = plan.rollout_state, plan.rollout_drift, plan.carry
    for state, driven, following in plan.stages:
        np.matmul(state_mat, state, carry)
        np.add(carry, driven, carry)
        np.add(carry, drift, following)
    np.matmul(plan.rollout_current, plan.states, plan.currents)
    np.matmul(plan.active, plan.currents, plan.dots)  # |u_j| as (1, 3) rows
    return np.multiply(plan.dots_flat, gain, plan.contrib)


def imbalance_path(
    v_imb0: float, contrib_m: np.ndarray, contrib_n: np.ndarray, plan: StepPlan | None = None
) -> np.ndarray:
    """Fold (k_m, N) and (k_n, N) per-stage contributions into the (k_m, k_n, N)
    predicted imbalance trajectories of every candidate pair: the plan's
    `paths` (a fresh plan's without `plan`).  The contributions go into the
    plan's unless they are its own already."""
    if plan is None:
        plan = StepPlan(contrib_m.shape[-1], len(contrib_m), len(contrib_n))
    if contrib_m is not plan.contrib_m:
        plan.contrib_m[...] = contrib_m
    if contrib_n is not plan.contrib_n:
        plan.contrib_n[...] = contrib_n
    paths = plan.paths
    np.subtract(plan.contrib_m_col, plan.contrib_n_row, paths)
    np.add(plan.paths_first, v_imb0, plan.paths_first)
    # left to right: v_j = v_(j-1) + step_j, the accumulation `np.cumsum` runs
    if plan.n_h > 1:
        np.add.accumulate(paths, 2, None, paths)
    return paths


def predict_imbalance(st: PlantState, levels_m, levels_n, models: StepModels) -> np.ndarray:
    """Predicted DC-link imbalance trajectory for one candidate pair, each
    side's sequence given as its 3N levels (a tuple of ints or a 1-D int
    array); the horizon N is their length over 3.

    Both side models are frozen at time-k quantities; the imbalance update
    is bilinear in |switch| and the reconstructed phase currents.  The
    controller scores pairs with `solver.select_pair`; this one-pair form is
    the reference that tests compare it with.
    """
    levels_m, levels_n = np.asarray(levels_m), np.asarray(levels_n)
    if len(levels_m) != len(levels_n):
        raise SequenceError(
            f"machine horizon {len(levels_m) // 3} != grid horizon {len(levels_n) // 3}"
        )
    contrib_m = imbalance_contributions(
        st.i_m_dq, models.machine, levels_m[None, :], models.proj_m, models.gain
    )
    contrib_n = imbalance_contributions(
        st.i_n_ab, models.grid, levels_n[None, :], CLARKE_PINV_MAT, models.gain
    )
    return imbalance_path(st.v_imb, contrib_m, contrib_n)[0, 0]
