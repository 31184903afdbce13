"""Condensed integer least-squares subproblems and the k-best sphere decoder.

Each outer-loop subproblem  min ||Y - Yref||^2 + lambda ||dU||^2  over switch
sequences in {-1,0,1}^(3N) is condensed to an equivalent triangular form
min ||target - factor @ U||^2 with `factor` lower triangular, then solved
exactly by depth-first branch and bound.  `k_best` runs one pass of a list
sphere decoder that keeps the k cheapest sequences and shrinks the radius to
the k-th cost once it has k; `sphere_decode` is its k=1 case.  Besides the
radius test the search cuts a node when its cost plus a lower bound on the
layers below it exceeds the radius: every level lies in [-1, 1], so row r
leaves a residual of at least |target_r| - sum_l |factor_rl| whatever the
path (see `_kernels.box_tail` and `_kernels.sd_search` for why the cut is
exact in floating point, ties included).  It is skipped when the
unconstrained optimum lies in the box, where it is zero up to rounding.
`brute_force_kbest` is the independent enumeration oracle.  The inner loop
(`select_pair`) scores every machine/grid candidate pair by its predicted
DC-link imbalance and keeps the minimizer.

A k-best list (`CandidateList`) is the (k, 3N) level stack that the decoder
or the oracle builds once from its leaves, with their costs; `select_pair`
rolls the stack out, and the list's `sequences` are row views of it.

`assemble_qp` condenses one subproblem or, in the controller, the stack of
both sides' subproblems over a leading side axis, machine first (see the
module docstring of `prediction`).  Its products are stacked matmuls, which
run each side through the same OpenBLAS call as one side alone (the Gram
matrix forced' forced is a syrk per item either way); `np.linalg.solve`
runs one LAPACK gesv per item; `reverse_cholesky` factors the items one
after the other, machine first, before the solve.  So every array is
bit-identical to assembling each side by itself, and a side that is not
positive definite raises NotPositiveDefiniteError with its own pivot, as
it would alone.  A 2-D gemm over both sides' rows would not be
bit-identical.

`select_pair` rolls out each side's k candidates at once and scores all
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
    StepModels,
    SwitchSequence,
    check_levels,
    effort_maps,
    imbalance_contributions,
    imbalance_path,
)
from .transforms import CLARKE_PINV_MAT

#: guard for exhaustive enumeration (27**4 = 531441 sequences)
MAX_BRUTE_HORIZON = 4


class SolverError(RuntimeError):
    """Base class for decoder-level failures."""


class NotPositiveDefiniteError(SolverError):
    def __init__(self, pivot: int):
        super().__init__(f"matrix is not positive definite (pivot {pivot})")
        self.pivot = pivot


class RadiusTooSmallError(SolverError):
    """The provided search radius contains no admissible sequence."""


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
            raise ValueError("candidate costs must be nondecreasing")
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
    definite raises.
    """
    q = np.asarray(q, dtype=np.float64)
    n = q.shape[-1]
    factor = np.empty_like(q)
    for q_i, h_i in zip(q.reshape(-1, n, n), factor.reshape(-1, n, n)):
        low, pivot = _k.cholesky_lower(q_i[::-1, ::-1].tolist())
        if pivot >= 0:
            raise NotPositiveDefiniteError(n - 1 - pivot)
        h_i.T[::-1, ::-1] = low  # H[i][j] = low[n-1-j][n-1-i]
    return factor


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
    x0 = np.asarray(x0, float)
    y_ref = np.asarray(y_ref, float)
    if isinstance(u_prev, SwitchState):
        u_prev = u_prev.as_array()
    diff, prev = effort_maps(m.horizon)
    forced_t = m.forced_map.swapaxes(-1, -2)
    residual = (m.free_map @ x0[..., None])[..., 0] + m.drift_vec - y_ref
    quad = forced_t @ m.forced_map + effort_gram(m.horizon, weight)
    lin = -(forced_t @ residual[..., None]) + weight * (diff.T @ (prev @ u_prev[..., None]))
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
    NotPositiveDefiniteError, the first of a stack first."""
    quad, lin = condense(m, x0, y_ref, u_prev, weight)
    factor = reverse_cholesky(quad)
    unconstrained = np.linalg.solve(quad, lin[..., None])
    target = factor @ unconstrained
    return QpForm(
        quad=quad,
        lin=lin,
        factor=factor,
        unconstrained=unconstrained[..., 0],
        target=target[..., 0],
        horizon=m.horizon,
    )


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _list_decode(qp: QpForm, k: int, radius_sq: float):
    """One `sd_search` pass: (CandidateList, radius trace).

    With an infinite radius the search is seeded with the alphabet-clamped
    rounding of the unconstrained solution, which is always admissible.
    The search's box bound is skipped when the unconstrained solution lies
    in the box [-1, 1]^n: then |target_r| <= sum_l |factor_rl| up to the
    rounding of `factor @ unconstrained`, so the bound could prune nothing
    beyond rounding noise.  Skipping a bound never changes the result.
    """
    n = qp.factor.shape[0]
    unc = qp.unconstrained.tolist()
    seed = None
    if not np.isfinite(radius_sq):
        # equal to clip(rint(v), -1, 1): halves round to even, so to 0 here
        seed = tuple(1 if v > 0.5 else -1 if v < -0.5 else 0 for v in unc)
    best, nodes, rho_trace = _k.sd_search(
        qp.factor, qp.target, min(k, 3 ** n), float(radius_sq), seed,
        max(map(abs, unc)) > 1.0,
    )
    levels = np.array([lv for _, lv in best], dtype=np.int64).reshape(len(best), n)
    cands = CandidateList(levels, [cost for cost, _ in best], qp.horizon, nodes)
    return cands, rho_trace


def sphere_decode(qp: QpForm, radius_sq: float = np.inf) -> DecodeResult:
    """Exact minimizer of the triangular form (the k=1 list decoder).

    `rho_trace` is the nonincreasing sequence of squared radii the search
    used.  Raises RadiusTooSmallError if a finite radius admits no sequence.
    """
    cands, rho_trace = _list_decode(qp, 1, radius_sq)
    if not len(cands):
        raise RadiusTooSmallError(f"no sequence within squared radius {radius_sq}")
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
    return _list_decode(qp, k, np.inf)[0]


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
    the pair with the lowest (machine index, grid index).  Returns the two
    chosen sequences, taken from the candidate lists, and the pair's score.
    """
    if not len(machine_cands) or not len(grid_cands):
        raise ValueError("candidate lists must be nonempty")
    n_h = machine_cands.horizon
    if n_h != grid_cands.horizon:
        raise HorizonMismatchError(f"horizons differ: {n_h} vs {grid_cands.horizon}")

    contrib_m = imbalance_contributions(
        st.i_m_dq, models.machine, machine_cands.levels, models.proj_m, models.gain
    )
    contrib_n = imbalance_contributions(
        st.i_n_ab, models.grid, grid_cands.levels, CLARKE_PINV_MAT, models.gain
    )
    paths = imbalance_path(st.dc.v_imb, contrib_m, contrib_n).reshape(-1, n_h)
    scores = (paths[:, None, :] @ paths[:, :, None])[:, 0, 0]
    # argmin keeps the first minimum; row-major order makes that the lowest
    # (machine index, grid index)
    best = int(scores.argmin())
    im, il = divmod(best, len(grid_cands))
    return machine_cands.sequences[im], grid_cands.sequences[il], float(scores[best])
