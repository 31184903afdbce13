"""Condensed integer least-squares subproblems and the k-best sphere decoder.

Each outer-loop subproblem  min ||Y - Yref||^2 + lambda ||dU||^2  over switch
sequences in {-1,0,1}^(3N) is condensed to an equivalent triangular form
min ||target - factor @ U||^2 with `factor` lower triangular, then solved
exactly by depth-first branch and bound.  `k_best` runs one pass of a list
sphere decoder that keeps the k cheapest sequences and shrinks the radius to
the k-th cost once it has k; `sphere_decode` is its k=1 case.  Besides the
radius test the search cuts a node when its cost plus a lower bound on the
layers below it exceeds the radius: every level lies in [-1, 1], so once
the levels above are fixed, row r leaves a residual of at least
|target_r - s_r| less the sum of |factor_rl| over its free levels l, s_r
being the row's partial sum over the fixed ones (see `_kernels.sd_search`
for why the cut is exact in floating point, ties included).  The bound
runs only when some row's |target_r| exceeds sum_l |factor_rl|.
`brute_force_kbest` is the independent enumeration oracle.  The inner loop
(`select_pair`) scores every machine/grid candidate pair by its predicted
DC-link imbalance and keeps the minimizer.

A k-best list (`CandidateList`) is the (k, 3N) level stack that the decoder
or the oracle builds once from its leaves, with their costs; `select_pair`
rolls the stack out and builds SwitchSequences of the two chosen rows only,
and the list's `sequences` are row views of it.

`assemble_qp` condenses one subproblem or, in the controller, the stack of
both sides' subproblems over a leading side axis, machine first (see the
module docstring of `prediction`).  Its products are stacked matmuls, which
run each side through the same OpenBLAS call as one side alone (the Gram
matrix forced' forced is a syrk per item either way); the solve runs one
LAPACK gesv per item; `reverse_cholesky` factors the items one after the
other, machine first, before the solve.  So every array is bit-identical
to assembling each side by itself, and a side that is not positive
definite raises NotPositiveDefiniteError with its own pivot, as it would
alone.  A 2-D gemm over both sides' rows would not be bit-identical.

The products that must stay BLAS, on their layout: forced' forced (syrk),
forced' residual and free x0 (gemv), and target = factor @ unconstrained
(gemv on a C-contiguous factor, see `reverse_cholesky`).  The solve calls
the gufunc that `np.linalg.solve` wraps, `numpy.linalg._umath_linalg.solve`
with the signature "dd->d", so each item runs the same dgesv.  The wrapper
adds only type dispatch and an error-state context, more than half of its
time on a two-side N_h = 3 stack (15 us against 7 us, timeit on a shared
2-core Xeon, Python 3.11), and the factor has already shown every matrix
positive definite.  The rest of the condensation is elementwise or a copy,
written for few NumPy calls (see `prediction`'s "call economy").

`select_pair` rolls out both sides' candidates in one call, over the
leading side axis of `prediction`'s two-side convention, and scores all
k_m * k_n paths with one stacked self-product.  Stacked matmuls run NumPy's
per-item gemv and dot, the same OpenBLAS calls (fused multiply-adds
included) as scoring one pair at a time, so the scores are bit-identical to
the per-pair loop; a 2-D gemm or Python-float arithmetic would not be.
The `standard_sd` baseline is its 1x1 case: the stacked self-product of the
single path runs the same dot call as `path @ path`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels as _k
from .plant import PlantState, SwitchState
from .prediction import (
    HorizonMismatchError,
    MultistepModel,
    SequenceError,
    StepModels,
    SwitchSequence,
    check_levels,
    effort_maps,
    imbalance_contributions,
    imbalance_path,
)

try:  # private to NumPy: pyproject.toml bounds the versions, tests/test_step_forms.py pins it
    from numpy.linalg._umath_linalg import solve as _lapack_solve
except ImportError as exc:
    raise ImportError(
        f"seqmpc needs numpy.linalg._umath_linalg.solve, the gufunc behind np.linalg.solve, "
        f"which NumPy {np.__version__} does not have"
    ) from exc

#: guard for exhaustive enumeration (27**4 = 531441 sequences)
MAX_BRUTE_HORIZON = 4


class SolverError(RuntimeError):
    """Base class for decoder-level failures."""


class NotPositiveDefiniteError(SolverError):
    def __init__(self, pivot: int):
        super().__init__(f"matrix is not positive definite (pivot {pivot})")
        self.pivot = pivot


@dataclass(frozen=True)
class QpForm:
    """Condensed quadratic subproblem in both raw and triangular form.

    Invariants: factor is lower triangular with positive diagonal,
    factor.T @ factor == quad, quad @ unconstrained == lin, and
    target == factor @ unconstrained.  The form of a stack of subproblems
    carries the stack's leading axes on every array; `sides` splits a
    two-side stack.
    """

    quad: np.ndarray
    lin: np.ndarray
    factor: np.ndarray
    unconstrained: np.ndarray
    target: np.ndarray
    horizon: int

    def sides(self) -> tuple:
        """(machine, grid): views of the items of a two-side stack."""
        return tuple(
            QpForm(self.quad[i], self.lin[i], self.factor[i], self.unconstrained[i],
                   self.target[i], self.horizon)
            for i in (0, 1)
        )


@dataclass(frozen=True)
class DecodeResult:
    best: SwitchSequence
    best_cost: float
    nodes: int
    rho_trace: np.ndarray


@dataclass(eq=False)
class CandidateList:
    """Ordered k-best sequences as one (k, 3N) level stack, with their costs
    and search statistics.

    `levels` holds the sequences' levels in list order as a read-only int64
    array (an int64 array passed in is made read-only itself); `costs` are
    nondecreasing.  `sequences` are SwitchSequences whose levels are row
    views of the stack, built on first use.
    """

    levels: np.ndarray
    costs: list
    horizon: int
    nodes_visited: int = 0

    def __post_init__(self):
        self.levels = levels = np.asarray(self.levels, dtype=np.int64)
        check_levels(levels, (len(self.costs), 3 * self.horizon))
        if any(b < a for a, b in zip(self.costs, self.costs[1:])):
            raise SequenceError("candidate costs must be nondecreasing")
        levels.flags.writeable = False

    @functools.cached_property
    def sequences(self) -> list:
        return [SwitchSequence(row, self.horizon) for row in self.levels]

    def __len__(self):
        return len(self.costs)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def reverse_cholesky(q: np.ndarray) -> np.ndarray:
    """Lower-triangular H with H.T @ H == q, for each matrix of a stack.

    Obtained by factoring the index-reversed matrix; this is the orientation
    the decoder needs so that row k of H touches only entries 1..k and the
    layer-by-layer residual accumulation over 1..3N is exact.  The matrices
    of a stack are factored in order, so the first that is not positive
    definite raises.  The factors come back as one C-contiguous array: the
    decoder's target `factor @ unconstrained` runs BLAS's gemv on that
    layout, and a strided view of the same entries would take another gemv
    path and move the target in its last bits.
    """
    q = np.asarray(q, dtype=np.float64)
    n = q.shape[-1]
    lows = []
    for a in q.reshape(-1, n, n)[:, ::-1, ::-1].tolist():
        low, pivot = _k.cholesky_lower(a)
        if pivot >= 0:
            raise NotPositiveDefiniteError(n - 1 - pivot)
        lows.append(low)
    factor = np.array(lows)[:, ::-1, ::-1].swapaxes(-1, -2)  # H[i][j] = low[n-1-j][n-1-i]
    return np.ascontiguousarray(factor).reshape(q.shape)


# ---------------------------------------------------------------------------
# condensation
# ---------------------------------------------------------------------------


def condense(m: MultistepModel, x0, y_ref, u_prev, weight: float):
    """Quadratic coefficients (quad, lin) of the subproblem cost.

    The cost ||forced U + free x0 + drift - y_ref||^2
    + weight ||diff U - prev u_prev||^2 expands to
    U' quad U - 2 lin' U + const.  `u_prev` holds the previous switch
    levels, a SwitchState or an array of them; like `x0` and `y_ref` it
    carries the leading axes of a stacked `m` (see the module docstring).
    """
    if weight < 0:
        raise ValueError("effort weight must be nonnegative")
    if isinstance(u_prev, SwitchState):
        u_prev = u_prev.as_array()
    forced = m.forced_map
    forced_t = forced.swapaxes(-1, -2)
    residual = m.free_map @ np.asarray(x0, float)[..., None]
    residual += m.drift_vec[..., None]
    residual -= np.asarray(y_ref, float)[..., None]
    quad = forced_t @ forced
    quad += effort_gram(m.horizon, weight)
    diff, prev = effort_maps(m.horizon)
    lin = -(forced_t @ residual) + weight * (diff.T @ (prev @ np.asarray(u_prev)[..., None]))
    return quad, lin[..., 0]


@functools.lru_cache(maxsize=64)
def effort_gram(n_h: int, weight: float) -> np.ndarray:
    """Read-only weight * D'D of the shared `effort_maps(n_h)` difference map."""
    diff, _ = effort_maps(n_h)
    gram = weight * (diff.T @ diff)
    gram.flags.writeable = False
    return gram


def assemble_qp(m: MultistepModel, x0, y_ref, u_prev, weight: float) -> QpForm:
    """Condense a subproblem, or a stack of them, and bring it to triangular
    decoding form.  Every matrix is factored before the first solve, so a
    Gram matrix that is not positive definite raises
    NotPositiveDefiniteError, the first of a stack first; the solve is
    then `np.linalg.solve`'s gufunc (see the module docstring).
    """
    quad, lin = condense(m, x0, y_ref, u_prev, weight)
    factor = reverse_cholesky(quad)
    # The gufunc runs without np.linalg.solve's error state, so a singular
    # matrix would give NaN, not LinAlgError; the pivot floor of
    # `reverse_cholesky` has already raised for any matrix that is not
    # positive definite, so no singular matrix gets here.
    unconstrained = _lapack_solve(quad, lin[..., None], signature="dd->d")
    target = factor @ unconstrained
    return QpForm(quad, lin, factor, unconstrained[..., 0], target[..., 0], m.horizon)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _list_decode(qp: QpForm, k: int):
    """One `sd_search` pass over `factor` and `target`: (CandidateList,
    radius trace)."""
    n = qp.factor.shape[0]
    best, nodes, rho_trace = _k.sd_search(qp.factor, qp.target, min(k, 3 ** n))
    costs, levels = zip(*best)  # the list is never empty: the first leaf fills it
    cands = CandidateList(np.array(levels, dtype=np.int64), list(costs), qp.horizon, nodes)
    return cands, rho_trace


def sphere_decode(qp: QpForm) -> DecodeResult:
    """Exact minimizer of the triangular form: `k_best`'s decoder call at
    k = 1.

    `rho_trace` is the nonincreasing sequence of squared radii the search
    used, the first of them the cost of the first leaf it reached.
    """
    cands, rho_trace = _list_decode(qp, 1)
    return DecodeResult(
        best=cands.sequences[0],
        best_cost=cands.costs[0],
        nodes=cands.nodes_visited,
        rho_trace=np.array(rho_trace, dtype=np.float64),
    )


def k_best(qp: QpForm, k: int) -> CandidateList:
    """The k cheapest sequences in (cost, lexicographic) order, exact
    against enumeration, from a single list-decoder pass."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _list_decode(qp, k)[0]


def all_sequences(n_h: int) -> np.ndarray:
    """Every switch sequence of the horizon in lexicographic order, as int8
    levels (an eighth of the memory of int64; every level converts exactly)."""
    if n_h > MAX_BRUTE_HORIZON:
        raise ValueError(f"enumeration horizon capped at {MAX_BRUTE_HORIZON}")
    n = 3 * n_h
    # the last level varies fastest, as in itertools.product
    seqs = np.indices((3,) * n, dtype=np.int8).reshape(n, -1).T
    seqs -= 1
    return seqs


def _enumeration_costs(qp: QpForm, seqs: np.ndarray) -> np.ndarray:
    """`_kernels.sequence_cost` of every row of `seqs`, bit for bit.

    Each row sum and the total accumulate left to right from 0.0, one
    elementwise multiply or add at a time, as `sequence_cost` does on
    Python floats, so every cost is the same IEEE-754 value.
    """
    h, t = qp.factor, qp.target
    total = np.zeros(seqs.shape[0])
    for r in range(h.shape[0]):
        s = np.zeros(seqs.shape[0])
        for j in range(r + 1):
            s = s + h[r, j] * seqs[:, j]
        total = total + (t[r] - s) ** 2
    return total


def brute_force_kbest(
    qp_or_cost, k: int, n_h: int
) -> CandidateList:
    """Enumeration oracle: sort all sequences by (cost, lexicographic).

    Accepts either a QpForm (scored with the decoder's own residual metric)
    or an arbitrary cost callable on SwitchSequence.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    seqs = all_sequences(n_h)
    if isinstance(qp_or_cost, QpForm):
        costs = _enumeration_costs(qp_or_cost, seqs)
    else:
        cost_fn: Callable = qp_or_cost
        costs = np.array(
            [cost_fn(SwitchSequence(levels=row, horizon=n_h)) for row in seqs]
        )
    # lexsort's last key is the primary one: cost, then the levels in order
    ranked = np.lexsort((*seqs.T[::-1], costs))[:k]
    return CandidateList(
        seqs[ranked].astype(np.int64), costs[ranked].tolist(), n_h, seqs.shape[0]
    )


# ---------------------------------------------------------------------------
# inner loop: DC-link imbalance pair selection
# ---------------------------------------------------------------------------


def select_pair(
    st: PlantState,
    machine_cands: CandidateList,
    grid_cands: CandidateList,
    models: StepModels,
):
    """Candidate pair minimizing the predicted squared imbalance norm.

    All len(machine_cands) * len(grid_cands) pairs are evaluated; ties keep
    the pair with the lowest (machine index, grid index).  Both lists are
    rolled out in one call over a leading side axis, the shorter one padded
    with zero rows that are dropped before scoring.  Returns the two chosen
    sequences, the pair's score and the chosen indices (machine, grid).
    """
    k_m, k_n = len(machine_cands), len(grid_cands)
    if not k_m or not k_n:
        raise SequenceError("candidate lists must be nonempty")
    n_h = machine_cands.horizon
    if n_h != grid_cands.horizon:
        raise HorizonMismatchError(f"horizons differ: {n_h} vs {grid_cands.horizon}")

    levels = np.zeros((2, max(k_m, k_n), 3 * n_h))
    levels[0, :k_m] = machine_cands.levels
    levels[1, :k_n] = grid_cands.levels
    contrib = imbalance_contributions(models.x0, models.sides, levels, models.proj, models.gain)
    paths = imbalance_path(st.dc.v_imb, contrib[0, :k_m], contrib[1, :k_n]).reshape(-1, n_h)
    scores = (paths[:, None, :] @ paths[:, :, None])[:, 0, 0]
    # argmin keeps the first minimum; row-major order makes that the lowest
    # (machine index, grid index)
    best = int(scores.argmin())
    im, il = divmod(best, k_n)
    return (
        SwitchSequence(machine_cands.levels[im], n_h),
        SwitchSequence(grid_cands.levels[il], n_h),
        float(scores[best]),
        im,
        il,
    )
