"""Condensed integer least-squares subproblems and the k-best sphere decoder.

Each outer-loop subproblem  min ||Y - Yref||^2 + lambda ||dU||^2  over switch
sequences in {-1,0,1}^(3N) is condensed to an equivalent triangular form
min ||target - factor @ U||^2 with `factor` lower triangular, then solved
exactly by depth-first branch and bound.  `k_best` runs one pass of a list
sphere decoder that keeps the k cheapest sequences and shrinks the radius to
the k-th cost once it has k; `sphere_decode` is its k=1 list with the
walk's radius trace.  Besides the radius test the search cuts a node when
its cost plus a lower bound on the layers below it exceeds the radius:
every level lies in [-1, 1], so once the levels above are fixed, row r
leaves a residual of at least |target_r - s_r| less the sum of
|factor_rl| over its free levels l, s_r being the row's partial sum over
the fixed ones (see `_kernels.sd_search` for why the cut is exact in
floating point, ties included).  The bound runs only when some row's
|target_r| exceeds sum_l |factor_rl|.
`brute_force_kbest` is the independent enumeration oracle.  The inner loop
(`select_pair`) scores every machine/grid candidate pair by its predicted
DC-link imbalance and keeps the minimizer.

A k-best list (`CandidateList`) is the (cost, levels) tuples of the
decoder's walk or of the oracle, checked once: its `rows` are the walk's
level tuples as they are.  It is the one place a level is checked.
`select_pair` copies the rows into the step plan's float level stack (the
nested-tuple assignment, the cheapest form measured), rolls them out on
the plan's own models and returns the two chosen rows with the chosen
ranks.  The list's `sequences` are SwitchSequences of its rows, a tuple
subclass that nothing takes as input: the oracle's cost callable and
`prediction`'s one-candidate forms take level rows.

`assemble_qp` condenses both sides' subproblems, stacked over the step
plan's side axis, machine first: it reads the plan's multistep maps,
states, references and previous levels, writes the plan's `quad`, `lin`,
`factor`, `unconstrained` and `target` and returns the two sides'
`QpForm`s, fresh Python values for the decoder.  Item i of those buffers
is side i's subproblem: `factor` is lower triangular with positive
diagonal, factor.T @ factor == quad, quad @ unconstrained == lin and
target == factor @ unconstrained.  It and `select_pair` follow the
bit-identity rules of `prediction`'s module docstring.  The Gram matrix
forced' forced is a syrk per item, forced' residual and free x0 are
gemvs, and the target factor @ unconstrained is a gemv on the
C-contiguous factor (see `reverse_cholesky`).  `reverse_cholesky` factors the items one after the
other, machine first, before the solve, so a side that is not positive
definite raises NotPositiveDefiniteError with its own pivot, as it would
alone, and with its index, which the message names as `machine side` or
`grid side`.

The solve calls the gufunc that `np.linalg.solve` wraps,
`numpy.linalg._umath_linalg.solve`, on float64 operands, its `out` by
position: its loop "dd->d" runs the same dgesv per item, without the
wrapper's type dispatch and error-state context, which cost more than half
of its time on a two-side N_h = 3 stack (15 us against 7 us, timeit on a
shared 2-core Xeon, Python 3.11); the factor has already shown every matrix
positive definite.  The factor comes from the generated Cholesky kernel as
a flat list already in the decoder's orientation and C order: one write
into the plan's buffer for the target's gemv, and the list itself goes to
the decoder (`QpForm.factor`), which reads it as it is.  The effort
term's part of the linear coefficient, weight * diff' (prev u_prev), is
written as weight * u_prev in the first stage and zero after it: the
products give exactly these values, +0.0 included, and lin = that vector -
forced' residual is the same IEEE sum as -(forced' residual) + that vector.
The previous levels are floats in the plan (an int level converts exactly),
so weight * u_prev is the IEEE product of NumPy's int64-to-float64
multiply; the Gram term weight * D'D is `effort_gram`'s cached array.

`select_pair` serves the controller's two-side step only: it takes the
step plan, with the models built into it (`prediction.build_step_models`
with that plan), rolls out both sides' candidates in one call of
`prediction.imbalance_contributions` and scores all k_m * k_n paths of
`prediction.imbalance_path` with one stacked self-product.  The
`standard_sd` baseline is its 1x1 case: the stacked self-product of the
single path runs the same dot call as `path @ path`, and
`prediction.predict_imbalance`, the independent one-pair reference, gives
each path bit for bit.
"""

from __future__ import annotations

import functools
from itertools import chain
from operator import gt
from typing import Callable

import numpy as np

from . import _kernels as _k
from .plant import LEVELS, PlantState
from .prediction import (
    QpForm,
    SequenceError,
    StepPlan,
    SwitchSequence,
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

#: the switch levels, for membership tests on Python ints
ALPHABET = frozenset(LEVELS)


class SolverError(RuntimeError):
    """Base class for decoder-level failures."""


class NotPositiveDefiniteError(SolverError):
    """A matrix to factor is not positive definite at `pivot`.  `item` is its
    index in the stack of shape `stack` factored, None for a single matrix.
    A stack of two is the controller's two sides, machine first, so the
    message names the side."""

    def __init__(self, pivot: int, item: int = 0, stack: tuple = ()):
        message = f"matrix is not positive definite (pivot {pivot})"
        if stack == (2,):
            message = f"{('machine', 'grid')[item]} side: {message}"
        super().__init__(message)
        self.pivot, self.item = pivot, item if stack else None


class CandidateList:
    """Ordered k-best sequences as level rows, with their costs and search
    statistics.

    Built from `leaves`, the (cost, levels) pairs of a decoder walk or of
    the oracle in list order, each levels a tuple of ints, and checked
    once, here, on those tuples: each holds 3 * horizon levels, each a
    Python int in {-1, 0, 1} (a bool, a float or a NumPy integer is
    rejected, though it may compare equal to one), and the costs are
    nondecreasing.  `rows` is the tuple of those level tuples, `costs` the
    costs as a list, and `sequences` their SwitchSequences, built on first
    use.  This is the one place a level is checked: every other function
    takes rows that a CandidateList has checked, or level rows it reads as
    numbers.
    """

    def __init__(self, leaves, horizon: int, nodes_visited: int = 0):
        costs, rows = zip(*leaves) if leaves else ((), ())
        n = 3 * horizon
        levels = [*chain.from_iterable(rows)]
        if not (ALPHABET.issuperset(levels) and {int}.issuperset(map(type, levels))):
            raise SequenceError("sequence entries must lie in {-1, 0, 1}")
        if not {n}.issuperset(map(len, rows)):
            raise SequenceError(f"sequence length must be 3 * horizon = {n}")
        if any(map(gt, costs, costs[1:])):
            raise SequenceError("candidate costs must be nondecreasing")
        self.rows, self.costs = rows, list(costs)
        self.horizon, self.nodes_visited = horizon, nodes_visited

    @functools.cached_property
    def sequences(self) -> list:
        return [SwitchSequence(row) for row in self.rows]

    def __len__(self):
        return len(self.costs)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def reverse_cholesky(
    q: np.ndarray, out: np.ndarray | None = None, lists: list | None = None
) -> np.ndarray:
    """Lower-triangular H with H.T @ H == q, for each matrix of a stack,
    written into `out` if given; with `lists`, each matrix's factor is also
    appended to it, in stack order, as the flat list that
    `_kernels.cholesky_lower` returned.

    `_kernels.cholesky_lower` factors the index-reversed matrix and hands
    back H in this orientation, which the decoder needs so that row k of H
    touches only entries 1..k and the layer-by-layer residual accumulation
    over 1..3N is exact.  The matrices of a stack are factored in order, so
    the first that is not positive definite raises.  The factors come back
    as one C-contiguous array: the decoder's target `factor @ unconstrained`
    runs BLAS's gemv on that layout, and a strided view of the same entries
    would take another gemv path and move the target in its last bits.
    """
    q = np.asarray(q, dtype=np.float64)
    n = q.shape[-1]
    if out is None:
        out = np.empty(q.shape)
    rows = out.reshape(-1, n * n)
    for i, a in enumerate(q.reshape(-1, n * n).tolist()):
        h, pivot = _k.cholesky_lower(a)
        if pivot >= 0:
            raise NotPositiveDefiniteError(pivot, i, q.shape[:-2])
        rows[i] = h
        if lists is not None:
            lists.append(h)
    return out


# ---------------------------------------------------------------------------
# condensation
# ---------------------------------------------------------------------------


def condense(weight: float, plan: StepPlan) -> None:
    """Quadratic coefficients of both sides' subproblem costs, machine
    first, from the plan's multistep maps `forced_map`, `free_map` and
    `drift_vec`, states `x0`, references `y_ref` and previous levels
    `u_prev`, written into the plan's `quad` and `lin`.

    Each side's cost ||forced U + free x0 + drift - y_ref||^2
    + weight ||diff U - prev u_prev||^2 expands to
    U' quad U - 2 lin' U + const.  The effort term's part of lin,
    weight * diff' (prev u_prev), is weight * u_prev in the first stage and
    zero after it, the same values as the products, signed zeros included;
    so lin is that vector less forced' residual.
    """
    if weight < 0:
        raise ValueError("effort weight must be nonnegative")
    residual = np.matmul(plan.free_map, plan.x0_col, plan.residual)
    flat = plan.residual_flat
    flat += plan.drift_vec
    flat -= plan.y_ref
    quad = np.matmul(plan.forced_t, plan.forced_map, plan.quad)
    quad += effort_gram(plan.n_h, weight)
    np.matmul(plan.forced_t, residual, plan.forced_residual)
    np.multiply(plan.u_prev, weight, plan.effort_first)
    np.subtract(plan.effort, plan.forced_residual_flat, plan.lin)


@functools.lru_cache(maxsize=64)
def effort_gram(n_h: int, weight: float) -> np.ndarray:
    """Read-only weight * D'D of the shared `effort_maps(n_h)` difference map."""
    diff, _ = effort_maps(n_h)
    gram = weight * (diff.T @ diff)
    gram.flags.writeable = False
    return gram


def assemble_qp(weight: float, plan: StepPlan) -> list:
    """Condense both sides' subproblems (`condense`) and bring them to
    triangular decoding form in the plan's buffers; returns the machine
    form and then the grid form.  Both Gram matrices are factored before
    the first solve, so one that is not positive definite raises
    NotPositiveDefiniteError, the machine side's first; the solve is then
    `np.linalg.solve`'s gufunc (see the module docstring).
    """
    condense(weight, plan)
    factors = []
    reverse_cholesky(plan.quad, plan.factor, factors)
    # The gufunc runs without np.linalg.solve's error state, so a singular
    # matrix would give NaN, not LinAlgError; the pivot floor of
    # `reverse_cholesky` has already raised for any matrix that is not
    # positive definite, so no singular matrix gets here.
    _lapack_solve(plan.quad, plan.lin_col, plan.unconstrained)
    np.matmul(plan.factor, plan.unconstrained, plan.target)
    return [QpForm(h, t, plan.n_h) for h, t in zip(factors, plan.target_flat.tolist())]


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _list_decode(qp: QpForm, k: int):
    """One `sd_search` pass over the factor's flat list and the target:
    (CandidateList, radius trace)."""
    best, nodes, rho_trace = _k.sd_search(qp.factor, qp.target, min(k, 3 ** len(qp.target)))
    return CandidateList(best, qp.horizon, nodes), rho_trace


def sphere_decode(qp: QpForm):
    """Exact minimizer of the triangular form: `_list_decode` at k = 1, the
    (CandidateList, rho_trace) pair of `k_best`'s decoder call.

    The list holds the one best row, its cost and the search's node count;
    `rho_trace` is the walk's list of Python floats, the nonincreasing
    squared radii the search used, the first of them the cost of the first
    leaf it reached.
    """
    return _list_decode(qp, 1)


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
    n = len(t)
    total = np.zeros(seqs.shape[0])
    for r in range(n):
        s = np.zeros(seqs.shape[0])
        for j in range(r + 1):
            s = s + h[r * n + j] * seqs[:, j]
        total = total + (t[r] - s) ** 2
    return total


def brute_force_kbest(
    qp_or_cost, k: int, n_h: int
) -> CandidateList:
    """Enumeration oracle: sort all sequences by (cost, lexicographic).

    Accepts either a QpForm (scored with the decoder's own residual metric)
    or an arbitrary cost callable on a sequence's levels, a tuple of 3N ints.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    seqs = all_sequences(n_h)
    if isinstance(qp_or_cost, QpForm):
        costs = _enumeration_costs(qp_or_cost, seqs)
    else:
        cost_fn: Callable = qp_or_cost
        costs = np.array([cost_fn(tuple(row)) for row in seqs.tolist()])
    # lexsort's last key is the primary one: cost, then the levels in order
    ranked = np.lexsort((*seqs.T[::-1], costs))[:k]
    leaves = list(zip(costs[ranked].tolist(), map(tuple, seqs[ranked].tolist())))
    return CandidateList(leaves, n_h, seqs.shape[0])


# ---------------------------------------------------------------------------
# inner loop: DC-link imbalance pair selection
# ---------------------------------------------------------------------------


def select_pair(
    st: PlantState,
    machine_cands: CandidateList,
    grid_cands: CandidateList,
    plan: StepPlan,
):
    """Candidate pair minimizing the predicted squared imbalance norm.

    All len(machine_cands) * len(grid_cands) pairs are evaluated; ties keep
    the pair with the lowest (machine index, grid index).  The rows go into
    the plan's level stack, and both lists are rolled out in one call on
    the plan's models, the shorter one padded with zero rows that are
    dropped before scoring.  Returns the two chosen level rows, the lists'
    own tuples, the pair's score and the chosen ranks (machine, grid).
    The plan's models are the step's (`prediction.build_step_models` with
    this plan).  Raises ValueError unless the plan is one for the lists'
    horizon and lengths.
    """
    k_m, k_n = len(machine_cands), len(grid_cands)
    if not k_m or not k_n:
        raise SequenceError("candidate lists must be nonempty")
    n_h = machine_cands.horizon
    if n_h != grid_cands.horizon:
        raise SequenceError(f"horizons differ: {n_h} vs {grid_cands.horizon}")
    if (plan.n_h, plan.k_m, plan.k_n) != (n_h, k_m, k_n):
        raise ValueError(
            f"the plan is for horizon {plan.n_h} and lists of {plan.k_m} and {plan.k_n}, "
            f"not {n_h}, {k_m} and {k_n}"
        )

    plan.levels_m[...] = machine_cands.rows
    plan.levels_n[...] = grid_cands.rows
    imbalance_contributions(plan)
    imbalance_path(st.v_imb, plan)
    np.matmul(plan.path_rows, plan.path_cols, plan.scores)
    scores = plan.scores_flat
    # argmin keeps the first minimum; row-major order makes that the lowest
    # (machine index, grid index)
    best = int(scores.argmin())
    im, il = divmod(best, k_n)
    return machine_cands.rows[im], grid_cands.rows[il], float(scores[best]), im, il
