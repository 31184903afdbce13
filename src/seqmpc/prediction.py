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
a 1-D int array, as `predict_outputs` and `predict_imbalance` take it.
They do not check the levels; the one level check is
`solver.CandidateList`'s.  `SwitchSequence` is a list row as a tuple, an
output record that nothing here takes as input.

Two-side convention: the machine and grid subproblems have the same shape,
so `build_step_models` stacks the two discretized models over a first
side axis, machine first, into the step plan's `state_mat`, `input_mat`,
`drift` and `output_mat` (and `proj` for the maps to phase currents); side
i is item i of each.  Every stage of the step serves both sides at once and
reads the two-side step plan: `build_multistep`, `solver.condense` and
`solver.assemble_qp` run each product as one stacked call over the side
axis.  In the imbalance stage, `imbalance_contributions` rolls out the
plan's level stack, both candidate lists at once, the shorter padded with
zero rows, on the plan's models, moving all k candidates of a side forward
together as stacked matrix-vector products (`A @ X[:, :, None]`);
`imbalance_path` folds the plan's contributions into every pair's path, and
`solver.select_pair` scores them with a stacked self-product
(`P[:, None, :] @ P[:, :, None]`), dropping the padding rows.
`predict_imbalance`, the one-pair form, is its independent reference: a
stage-by-stage rollout with 1-D products on one side of the plan's models
at a time, which shares no buffer or function with the planned one.

The step plan.  A control step is short, so the NumPy calls around its
products cost more than the products themselves (about 1 us each).  A
`StepPlan` is the one record of a control step.  It is built once for one
shape, the horizon N and the list lengths k_m and k_n, always for the two
sides.  It holds every operand buffer of the step, the step's inputs (the
states, the references and the previous levels), its models (the side
models, `proj`, `gain` and the states `x0`), its multistep maps
(`forced_map`, `free_map`, `drift_vec`), the views that the products read
and write, and the two sides' `QpForm`s, which wrap its buffers.  The
closed loop builds one per run and passes it down;
`controller.control_step` writes the step's inputs into it.  Each stage
takes the plan, reads from it and writes into it: `build_step_models`,
`build_multistep`, `solver.condense`, `solver.assemble_qp`, the two
imbalance functions and `select_pair`.  A step then runs only its products,
each into one of the plan's buffers, the elementwise writes, one flat-index
gather that places the forced, free and drift maps of `build_multistep`
(`_map_index`, the maps' transposes and reshapes run once per horizon on
the products' positions), and the decoder.  Every view a product reads or
writes is built once, with the plan: the state x0 as a column of the
models' values, forced', the rollout's broadcast views of the side models
and the path's rows and columns.  The one-side reference forms,
`predict_outputs` and `predict_imbalance`, read a side of the plan's
models and maps by its index.

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
- Aliasing rule.  What a planned function writes or returns is the plan's:
  it holds the current step until the next call with the same plan
  overwrites it.  Nothing that outlives a step shares memory with a plan:
  the candidate lists and everything reachable from a `ControlDecision`
  are Python values.
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
    x+ = state_mat x + input_mat u + drift over one sampling period.  A
    `StepPlan` holds the step's two one-step models as its own
    `state_mat`, `input_mat`, `drift` and `output_mat`, each stacking the
    two sides over a first side axis, machine first.
    """

    state_mat: np.ndarray  # 2x2
    input_mat: np.ndarray  # 2x3, switch integers -> state derivative or step
    drift: np.ndarray      # 2
    output_mat: np.ndarray  # 2x2


@dataclass(slots=True)
class QpForm:
    """Condensed quadratic subproblem in both raw and triangular form
    (`solver.assemble_qp`).

    Invariants: factor is lower triangular with positive diagonal,
    factor.T @ factor == quad, quad @ unconstrained == lin, and
    target == factor @ unconstrained.  `factor_list` holds the factor's
    entries as the flat row-major list of Python floats that
    `_kernels.cholesky_lower` returned, which the decoder reads.  The
    plan's `qp_items` are the two sides' forms, views of its buffers.
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


def build_multistep(plan: StepPlan) -> None:
    """Stack the plan's one-step models, both sides at once, over its `n_h`
    stages into the condensed form  Y = forced_map U + free_map x0 +
    drift_vec: the plan's `forced_map` (2, 2N, 3N), block lower triangular,
    `free_map` (2, 2N, 2) and `drift_vec` (2, 2N).  The switching effort
    diff_mat @ U - prev_sel @ u_prev depends on the horizon alone:
    `effort_maps(n_h)` gives both maps.

    The products are the powers A^d, C A^d, the blocks C A^d B and C times
    the running sums of A^l n; one gather (`_map_index`) places them in the
    forced, free and drift maps.

    A^1 is a copy of A, not the product A @ I.  For a finite A with no -0.0
    entry the two are equal bit for bit, whatever order BLAS sums in: each
    entry is a_ij * 1 plus terms a_il * 0 = +-0.0, and x + +-0.0 == x but
    for x = -0.0.  Every state map here has such entries: each is 1.0 + x
    or 0.0 + x (`build_step_models`), and in round-to-nearest neither sum is
    ever -0.0.  At N = 1 the products and the running sum of the drift's
    later stages run over an empty stage axis and are skipped.
    """
    a, b, c = plan.state_mat, plan.input_mat, plan.output_mat
    plan.power_first[...] = a  # A^1 = A @ I, bit for bit (see the docstring)
    for power, following in plan.power_steps:  # A^d, d = 2..N
        np.matmul(a, power, following)
    np.matmul(c, plan.powers, plan.c_powers)  # C A^d
    np.matmul(plan.c_powers_head, b, plan.blocks_head)  # C A^d B, d < N
    # A^l n, then running sums over l = 0..r; at N = 1 only A^0 n
    plan.drift_first[...] = plan.drift
    if plan.n_h > 1:
        np.matmul(plan.powers_inner, plan.drift_head, plan.drift_rest)
        np.add.accumulate(plan.drift_sums, 0, None, plan.drift_sums)
    np.matmul(c, plan.drift_sums, plan.c_drift_sums)
    np.take(plan.products, plan.map_index, None, plan.maps, "clip")


def predict_outputs(plan: StepPlan, side: int, x0, levels) -> np.ndarray:
    """Stacked output trajectory of side `side` of the plan's multistep maps
    (0 the machine, 1 the grid) from state `x0` for one candidate sequence,
    given as its 3N levels (a tuple of ints or a 1-D int array)."""
    return (plan.forced_map[side] @ np.asarray(levels)
            + plan.free_map[side] @ np.asarray(x0, float) + plan.drift_vec[side])


# ---------------------------------------------------------------------------
# DC-link imbalance rollout
# ---------------------------------------------------------------------------


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


def _product_shapes(n_h: int) -> tuple:
    """Shapes of the products `build_multistep` gathers its maps from: the
    blocks C A^d B for d = 0..N (the last one zero), C A^d for d = 0..N and
    C times the drift sums, stage axis first, side axis second."""
    return (n_h + 1, 2, NX, NU), (n_h + 1, 2, NX, NX), (n_h, 2, NX, 1)


def _map_shapes(n_h: int) -> tuple:
    """Shapes of the forced, free and drift maps of `build_multistep`."""
    return (2, NX * n_h, NU * n_h), (2, NX * n_h, NX), (2, NX * n_h)


@functools.lru_cache(maxsize=None)
def _map_index(n_h: int) -> np.ndarray:
    """Read-only flat indices into the products (`_product_shapes`, one
    after the other) of the forced, free and drift maps' entries, one map
    after the other, each in C order.

    They come from the gather, transposes and reshapes that place the maps
    (the stage axis moves behind the side axis), run once on the products'
    positions: gathering the values by them copies each entry to the same
    place.
    """
    shapes = _product_shapes(n_h)
    blocks, c_powers, c_drift = _views(np.arange(sum(map(math.prod, shapes))), shapes)
    forced = blocks[_delay_index(n_h)].transpose(2, 0, 3, 1, 4)
    maps = (forced, c_powers[1:].transpose(1, 0, 2, 3), c_drift.transpose(1, 0, 2, 3))
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
    """The operand buffers of one two-side control step, machine first, and
    the views its products read and write, for one shape: horizon `n_h` and
    list lengths `k_m` and `k_n`, each capped at the 3^(3N) sequences of the
    horizon as the decoder caps its k (see the module docstring).  Raises
    ValueError, before allocating anything, when the capped lengths give
    more than MAX_PAIRS pairs.  The closed loop builds one per run.

    The step's models, all frozen at time-k quantities, are attributes of
    the plan (`build_step_models`): `state_mat`, `input_mat`, `drift` and
    `output_mat` stack the two one-step models (`LinearSubsystem`'s
    fields) over a first side axis, machine first; `proj` stacks the two
    sides' maps from the model state to the phase currents the same way,
    the machine side's the Clarke pseudo-inverse with the Park rotation
    folded in, the grid side's the Clarke pseudo-inverse; `gain` is Ts / C,
    and `x0` stacks the two sides' model states at time k, the machine dq
    currents and the grid alpha/beta currents.  `forced_map`, `free_map`
    and `drift_vec` are the condensed maps of `build_multistep`, and
    `qp_items` the two sides' `QpForm`s of `solver.assemble_qp`.
    """

    def __init__(self, n_h: int, k_m: int = 1, k_n: int = 1):
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
        self.proj = np.array((CLARKE_PINV_MAT, CLARKE_PINV_MAT))
        self.proj_m = self.proj[0]
        self.state_mat = values[:8].reshape(2, NX, NX)
        self.output_mat = values[8:16].reshape(2, NX, NX)
        self.drift = values[16:20].reshape(2, NX)
        self.input_mat = np.empty((2, NX, NU))
        self.gain = 0.0
        # the states x0, also a column for `solver.condense`
        self.x0_col = values[20:24].reshape(2, NX, 1)
        self.x0 = self.x0_col[..., 0]

        # `build_multistep`: the powers A^d, the drift sums, the products and
        # the maps gathered from them
        self.powers = np.empty((n + 1, 2, NX, NX))
        self.powers[0] = EYE2
        self.power_first = self.powers[1]
        self.power_steps = [(self.powers[r], self.powers[r + 1]) for r in range(1, n)]
        self.powers_inner = self.powers[1:n]
        self.drift_sums = np.empty((n, 2, NX, 1))
        self.drift_head = self.drift_sums[0]
        self.drift_first, self.drift_rest = self.drift_head[..., 0], self.drift_sums[1:]
        shapes = _product_shapes(n)
        self.products = np.zeros(sum(map(math.prod, shapes)))  # the zero block stays zero
        blocks, self.c_powers, self.c_drift_sums = _views(self.products, shapes)
        self.blocks_head, self.c_powers_head = blocks[:n], self.c_powers[:n]
        self.map_index = _map_index(n)
        self.maps = np.empty(self.map_index.size)
        self.forced_map, self.free_map, self.drift_vec = _views(self.maps, _map_shapes(n))

        # `solver.condense` and `solver.assemble_qp`: the inputs the step
        # writes (the references and the previous levels), the operands and
        # the two sides' forms
        self.forced_t = self.forced_map.swapaxes(-1, -2)
        self.residual = np.empty((2, NX * n, 1))
        self.residual_flat = self.residual[..., 0]
        self.y_ref = np.empty((2, NX * n))
        self.quad = np.empty((2, nu, nu))
        self.forced_residual = np.empty((2, nu, 1))
        self.forced_residual_flat = self.forced_residual[..., 0]
        self.u_prev = np.empty((2, 3))
        self.effort = np.zeros((2, nu))  # weight * u_prev in the first stage, then zero
        self.effort_first = self.effort[..., :3]
        self.lin = np.empty((2, nu))
        self.lin_col = self.lin[..., None]
        self.factor = np.empty((2, nu, nu))
        self.unconstrained = np.empty((2, nu, 1))
        self.target = np.empty((2, nu, 1))
        # the factors as `_kernels.cholesky_lower`'s flat lists, one per side
        self.factor_lists = [None, None]
        self.qp_items = [
            QpForm(self.quad[i], self.lin[i], self.factor[i], self.unconstrained[i, :, 0],
                   self.target[i, :, 0], n, None)
            for i in range(2)
        ]

        # `imbalance_contributions`, on the step's two models: their
        # broadcast views, the level stack as floats, the rows of a shorter
        # list past its end staying zero, and the rollout
        k = max(k_m, k_n)
        self.rollout_input = self.input_mat[..., None, None, :, :]
        self.rollout_state = self.state_mat[..., None, :, :]
        self.rollout_drift = self.drift[..., None, :, None]
        self.rollout_current = self.proj[..., None, None, :, :]
        self.levels = np.zeros((2, k, nu))
        self.magnitudes = np.empty((2, k, nu))
        blocks = self.levels.reshape(2, k, n, 3, 1)
        self.driving = blocks[..., : n - 1, :, :]  # the last stage's input moves no state read
        self.active = self.magnitudes.reshape(2, k, n, 3, 1).swapaxes(-1, -2)
        self.driven = np.empty((2, k, n - 1, NX, 1))
        self.states = np.empty((2, k, n, NX, 1))
        self.first_states = np.moveaxis(self.states[..., 0, :, 0], -2, 0)
        self.carry = np.empty((2, k, NX, 1))
        self.stages = [
            (self.states[..., j, :, :], self.driven[..., j, :, :], self.states[..., j + 1, :, :])
            for j in range(n - 1)
        ]
        self.currents = np.empty((2, k, n, 3, 1))
        self.dots = np.empty((2, k, n, 1, 1))
        self.dots_flat = self.dots[..., 0, 0]
        self.contrib = np.empty((2, k, n))
        self.levels_m, self.levels_n = self.levels[0, :k_m], self.levels[1, :k_n]
        self.contrib_m, self.contrib_n = self.contrib[0, :k_m], self.contrib[1, :k_n]
        self.contrib_m_col = self.contrib_m[:, None, :]
        self.contrib_n_row = self.contrib_n[None, :, :]

        # `imbalance_path` and `solver.select_pair`'s scores
        self.paths = np.empty((k_m, k_n, n))
        self.paths_first = self.paths[:, :, 0]
        rows = self.paths.reshape(-1, n)
        self.path_rows, self.path_cols = rows[:, None, :], rows[:, :, None]
        self.scores = np.empty((k_m * k_n, 1, 1))
        self.scores_flat = self.scores[:, 0, 0]


def build_step_models(
    st: PlantState, machine: MachineParams, grid: GridParams, t_s: float, c_dc: float,
    plan: StepPlan,
) -> None:
    """Both sides' discretized models for the control step at `st`, written
    into the plan's two-side stack directly (`state_mat`, `input_mat`,
    `drift`, `output_mat` and `proj`), the imbalance gain t_s / c_dc (the
    plan's `gain`) and the stacked model states (its `x0`).

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
    plan.park.dot(CLARKE_MAT, plan.park_clarke)
    input_mat = np.matmul(plan.clarke, plan.converter, plan.input_mat)
    input_mat /= plan.inductances
    input_mat *= t_s
    CLARKE_PINV_MAT.dot(plan.park_t, plan.proj_m)
    plan.gain = t_s / c_dc


def imbalance_contributions(plan: StepPlan) -> np.ndarray:
    """(2, k, N) per-stage imbalance increments of the plan's level stack
    `levels`, machine first, rolled out on the plan's models: the plan's
    `contrib`.

    Each side's item of the plan's `proj` reconstructs the three-phase
    current from the model state (Clarke pseudo-inverse, with the Park
    rotation folded in on the machine side); `gain` is Ts / C.  Stage j
    uses the state before that stage's input is applied, then propagates
    the state one Euler step from `x0`.  All candidates of both sides move together as
    stacked matrix-vector products (see the module docstring).
    """
    np.abs(plan.levels, plan.magnitudes)
    if plan.n_h > 1:  # B u_j of every stage but the last
        np.matmul(plan.rollout_input, plan.driving, plan.driven)
    plan.first_states[...] = plan.x0  # the state before each stage's input
    state_mat, drift, carry = plan.rollout_state, plan.rollout_drift, plan.carry
    for state, driven, following in plan.stages:
        np.matmul(state_mat, state, carry)
        np.add(carry, driven, carry)
        np.add(carry, drift, following)
    np.matmul(plan.rollout_current, plan.states, plan.currents)
    np.matmul(plan.active, plan.currents, plan.dots)  # |u_j| as (1, 3) rows
    return np.multiply(plan.dots_flat, plan.gain, plan.contrib)


def imbalance_path(v_imb0: float, plan: StepPlan) -> np.ndarray:
    """Fold the plan's (k_m, N) and (k_n, N) per-stage contributions,
    `contrib_m` and `contrib_n`, into the (k_m, k_n, N) predicted imbalance
    trajectories of every candidate pair: the plan's `paths`."""
    paths = plan.paths
    np.subtract(plan.contrib_m_col, plan.contrib_n_row, paths)
    np.add(plan.paths_first, v_imb0, plan.paths_first)
    # left to right: v_j = v_(j-1) + step_j, the accumulation `np.cumsum` runs
    if plan.n_h > 1:
        np.add.accumulate(paths, 2, None, paths)
    return paths


def predict_imbalance(st: PlantState, levels_m, levels_n, plan: StepPlan) -> np.ndarray:
    """Predicted DC-link imbalance trajectory for one candidate pair, each
    side's sequence given as its 3N levels (a tuple of ints or a 1-D int
    array); the horizon N is their length over 3.

    Both side models are frozen at time-k quantities; the imbalance update
    is bilinear in |switch| and the reconstructed phase currents.  The
    controller scores pairs with `solver.select_pair`; this one-pair form is
    the reference that tests compare it with.  It rolls out one stage at a
    time with 1-D NumPy products on side i of the plan's models
    (`build_step_models`), its `state_mat`, `input_mat`, `drift` and `proj`
    items i, from the states of `st`, and shares no buffer or function with
    the planned rollout.
    """
    levels_m, levels_n = np.asarray(levels_m), np.asarray(levels_n)
    if len(levels_m) != len(levels_n):
        raise SequenceError(
            f"machine horizon {len(levels_m) // 3} != grid horizon {len(levels_n) // 3}"
        )
    contribs = []
    for i, (x, levels) in enumerate(((st.i_m_dq, levels_m), (st.i_n_ab, levels_n))):
        x, contrib = np.asarray(x, float), []
        for blk in levels.reshape(-1, 3):
            contrib.append(plan.gain * float(np.abs(blk) @ (plan.proj[i] @ x)))
            x = plan.state_mat[i] @ x + plan.input_mat[i] @ blk + plan.drift[i]
        contribs.append(contrib)
    v, path = st.v_imb, []
    for a, b in zip(*contribs):
        v = v + (a - b)
        path.append(v)
    return np.array(path)
