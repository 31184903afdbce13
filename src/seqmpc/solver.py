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

`select_pair` rolls out each side's k candidates at once and scores all
k_m * k_n paths with one stacked self-product.  Stacked matmuls run NumPy's
per-item gemv and dot, the same OpenBLAS calls (fused multiply-adds
included) as scoring one pair at a time, so the scores are bit-identical to
the per-pair loop; a 2-D gemm or Python-float arithmetic would not be.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels as _k
from .plant import PlantState, SwitchState
from .prediction import (
    HorizonMismatchError,
    MultistepModel,
    StepModels,
    SwitchSequence,
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
    target == factor @ unconstrained.
    """

    quad: np.ndarray
    lin: np.ndarray
    factor: np.ndarray
    unconstrained: np.ndarray
    target: np.ndarray
    horizon: int


@dataclass(frozen=True)
class DecodeResult:
    best: SwitchSequence
    best_cost: float
    nodes: int
    rho_trace: np.ndarray


@dataclass
class CandidateList:
    """Ordered k-best sequences with costs and search statistics.

    `levels` is the read-only (len, 3N) stack of the sequences' levels in
    list order, built from `items`.
    """

    items: list  # list[(SwitchSequence, float)]
    nodes_visited: int = 0
    levels: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        costs = [c for _, c in self.items]
        if any(b < a for a, b in zip(costs, costs[1:])):
            raise ValueError("candidate costs must be nondecreasing")
        self.levels = np.array([s.levels for s, _ in self.items], dtype=np.int64)
        self.levels.flags.writeable = False

    @property
    def sequences(self) -> list:
        return [s for s, _ in self.items]

    @property
    def costs(self) -> list:
        return [c for _, c in self.items]

    def __len__(self):
        return len(self.items)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def reverse_cholesky(q: np.ndarray) -> np.ndarray:
    """Lower-triangular H with H.T @ H == q.

    Obtained by factoring the index-reversed matrix; this is the orientation
    the decoder needs so that row k of H touches only entries 1..k and the
    layer-by-layer residual accumulation over 1..3N is exact.
    """
    low, pivot = _k.cholesky_lower(np.asarray(q, dtype=np.float64)[::-1, ::-1].tolist())
    if pivot >= 0:
        raise NotPositiveDefiniteError(len(low) - 1 - pivot)
    # H[i][j] = low[n-1-j][n-1-i]: the columns of low, last first, reversed
    return np.array([col[::-1] for col in zip(*low)][::-1])


# ---------------------------------------------------------------------------
# condensation
# ---------------------------------------------------------------------------


def condense(
    m: MultistepModel, x0, y_ref, u_prev: SwitchState, weight: float
):
    """Quadratic coefficients (quad, lin) of the subproblem cost.

    The cost ||forced U + free x0 + drift - y_ref||^2
    + weight ||diff U - prev u_prev||^2 expands to
    U' quad U - 2 lin' U + const.
    """
    if weight < 0:
        raise ValueError("effort weight must be nonnegative")
    x0 = np.asarray(x0, float)
    y_ref = np.asarray(y_ref, float)
    diff, prev = effort_maps(m.horizon)
    residual = m.free_map @ x0 + m.drift_vec - y_ref
    quad = m.forced_map.T @ m.forced_map + effort_gram(m.horizon, weight)
    lin = -(m.forced_map.T @ residual) + weight * (diff.T @ (prev @ u_prev.as_array()))
    return quad, lin


@functools.lru_cache(maxsize=64)
def effort_gram(n_h: int, weight: float) -> np.ndarray:
    """Read-only weight * D'D of the shared `effort_maps(n_h)` difference map."""
    diff, _ = effort_maps(n_h)
    gram = weight * (diff.T @ diff)
    gram.flags.writeable = False
    return gram


def assemble_qp(
    m: MultistepModel, x0, y_ref, u_prev: SwitchState, weight: float
) -> QpForm:
    """Condense one subproblem and bring it to triangular decoding form."""
    quad, lin = condense(m, x0, y_ref, u_prev, weight)
    factor = reverse_cholesky(quad)
    unconstrained = np.linalg.solve(quad, lin)
    target = factor @ unconstrained
    return QpForm(
        quad=quad,
        lin=lin,
        factor=factor,
        unconstrained=unconstrained,
        target=target,
        horizon=m.horizon,
    )


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _list_decode(qp: QpForm, k: int, radius_sq: float):
    """One `sd_search` pass: ([(sequence, cost)] in order, nodes, radius trace).

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
    seqs = SwitchSequence.from_rows(levels, qp.horizon)
    items = [(seq, cost) for seq, (cost, _) in zip(seqs, best)]
    return items, nodes, rho_trace


def sphere_decode(qp: QpForm, radius_sq: float = np.inf) -> DecodeResult:
    """Exact minimizer of the triangular form (the k=1 list decoder).

    `rho_trace` is the nonincreasing sequence of squared radii the search
    used.  Raises RadiusTooSmallError if a finite radius admits no sequence.
    """
    items, nodes, rho_trace = _list_decode(qp, 1, radius_sq)
    if not items:
        raise RadiusTooSmallError(f"no sequence within squared radius {radius_sq}")
    (best, best_cost), = items
    return DecodeResult(
        best=best,
        best_cost=best_cost,
        nodes=nodes,
        rho_trace=np.array(rho_trace, dtype=np.float64),
    )


def k_best(qp: QpForm, k: int) -> CandidateList:
    """The k cheapest sequences in (cost, lexicographic) order, exact
    against enumeration, from a single list-decoder pass."""
    if k < 1:
        raise ValueError("k must be >= 1")
    items, nodes, _ = _list_decode(qp, k, np.inf)
    return CandidateList(items=items, nodes_visited=nodes)


def all_sequences(n_h: int) -> np.ndarray:
    """Every switch sequence of the horizon in lexicographic order."""
    if n_h > MAX_BRUTE_HORIZON:
        raise ValueError(f"enumeration horizon capped at {MAX_BRUTE_HORIZON}")
    combos = itertools.product((-1, 0, 1), repeat=3 * n_h)
    return np.array(list(combos), dtype=np.int64)


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
        h = qp_or_cost.factor.tolist()
        t = qp_or_cost.target.tolist()
        costs = np.array([_k.sequence_cost(h, t, u) for u in seqs.tolist()])
    else:
        cost_fn: Callable = qp_or_cost
        costs = np.array(
            [cost_fn(SwitchSequence(levels=row, horizon=n_h)) for row in seqs]
        )
    ranked = sorted(
        range(seqs.shape[0]), key=lambda i: (costs[i], tuple(seqs[i]))
    )
    items = [
        (SwitchSequence(levels=seqs[i], horizon=n_h), float(costs[i]))
        for i in ranked[:k]
    ]
    return CandidateList(items=items, nodes_visited=seqs.shape[0])


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
    if not machine_cands.items or not grid_cands.items:
        raise ValueError("candidate lists must be nonempty")
    hor_m = machine_cands.items[0][0].horizon
    hor_n = grid_cands.items[0][0].horizon
    if hor_m != hor_n:
        raise HorizonMismatchError(f"horizons differ: {hor_m} vs {hor_n}")

    contrib_m = imbalance_contributions(
        st.i_m_dq, models.machine, machine_cands.levels, models.proj_m, models.gain
    )
    contrib_n = imbalance_contributions(
        st.i_n_ab, models.grid, grid_cands.levels, CLARKE_PINV_MAT, models.gain
    )
    paths = imbalance_path(st.dc.v_imb, contrib_m, contrib_n).reshape(-1, hor_m)
    scores = (paths[:, None, :] @ paths[:, :, None])[:, 0, 0]
    # argmin keeps the first minimum; row-major order makes that the lowest
    # (machine index, grid index)
    best = int(np.argmin(scores))
    im, il = divmod(best, len(grid_cands.items))
    return machine_cands.items[im][0], grid_cands.items[il][0], float(scores[best])
