"""The decoder and Cholesky kernels reproduce recorded outputs exactly.

The factor digests and failing pivots below were recorded from the
NumPy-scalar implementation of `cholesky_lower` that the list-based kernel
replaced.  The unreversed factors and pivots come from `loop_cholesky`, the
row-by-row loop that the kernel unrolls, the reversed ones from
`cholesky_lower` itself and from `reverse_cholesky`, which the controller
runs.  The kernel runs the same IEEE-754 operations in the same order, so
every value must match bit for bit.  The node counts and radius traces
were recorded from the decoder without an initial radius, its first leaf
being the one the first descent reaches.  The candidate lists must equal
enumeration, costs compared with `==`.  The box bound of `sd_search` cuts
only subtrees the plain walk would reject anyway, so with it the lists and
traces are the same and only the node counts fall, from the plain set to
the bounded one.
"""

import hashlib
import math

import numpy as np
import pytest

from seqmpc import _kernels
from seqmpc.solver import (
    NotPositiveDefiniteError,
    brute_force_kbest,
    k_best,
    reverse_cholesky,
    sphere_decode,
)
from seqmpc.verify import random_subproblem

SEED = 20261018
KS = (1, 4, 10)

# one row per `random_subproblem` drawn from SEED, three per horizon 1, 2, 3:
# (k_best nodes for each k in KS, the same with the plain walk,
#  sphere_decode radius trace in hex,
#  digest of loop_cholesky(quad), digest of reverse_cholesky(quad))
RECORDED = [
    ((12, 24, 36), (39, 39, 39), ["0x1.224c62073f1f9p+5", "0x1.028637983b07ap+5"],
     "7cb8df299114d36d", "ff88ab2c9a0e2a1c"),
    ((9, 27, 36), (39, 39, 39), ["0x1.0f74b6a0e9e1ep+5"],
     "b6fc045fcf67ac71", "cbf08a8d9de77998"),
    ((9, 18, 30), (15, 21, 30), ["0x1.2ed7db9741dfbp+11"],
     "54ece7103a913f80", "45e4fdea5cace393"),
    (
        (48, 60, 96), (1068, 1068, 1089),
        ["0x1.b61e0994492b9p+24", "0x1.b44869eb4c7f4p+24", "0x1.b3f4c9ff4d948p+24",
         "0x1.b3d9318595bf0p+24"],
        "70763c940609a437", "f2f7f6fb2f57c985",
    ),
    (
        (18, 36, 57), (372, 384, 402),
        ["0x1.ec24eb92e76fbp+27"],
        "f325ce3654c79d7d", "7d8bf1827fa602cd",
    ),
    (
        (63, 78, 108), (1092, 1092, 1092),
        ["0x1.19582ce0206a4p+25", "0x1.15623ab3a165ep+25", "0x1.122fba7ad61ebp+25",
         "0x1.116992c5994b2p+25", "0x1.0e36fed639978p+25", "0x1.0bc7dcda8da12p+25",
         "0x1.0b01b58da9f13p+25", "0x1.08927fdb698e5p+25", "0x1.06e6bc1cdce89p+25"],
        "ede7cbfc5ffaeef3", "52b0abbf9a36f1c5",
    ),
    (
        (36, 72, 120), (1602, 2208, 2874),
        ["0x1.9891cd67cbd63p+23"],
        "765be273f6acefe5", "d8d633c6a9b90d36",
    ),
    (
        (141, 168, 228), (13566, 13623, 13944),
        ["0x1.5f2d24e93a9c7p+25", "0x1.5db9ddc0810bep+25", "0x1.5cd6c9658a50fp+25",
         "0x1.5c5c8aa6a585ep+25", "0x1.5c099a80ae09ap+25"],
        "a91d8b6d66e89683", "d1704b849b8823e9",
    ),
    (
        (129, 144, 219), (29520, 29520, 29523),
        ["0x1.bd5e8657ba9a9p+12"],
        "6c0698c9136f9f4c", "ef33547305e97522",
    ),
]

# (n, rank, loop_cholesky pivot, reverse_cholesky pivot) of rank-deficient
# Gram matrices b @ b.T, b drawn from SEED with shape (n, rank)
RECORDED_PIVOTS = [(3, 2, 2, 0), (6, 4, 4, 1), (9, 5, 5, 3), (9, 8, 8, 0), (6, 1, 1, 4)]


@pytest.fixture(scope="module")
def subproblems():
    """(n_h, form, Gram matrix) of each row of RECORDED, the Gram matrix
    being item `side` of the plan's `quad`."""
    rng = np.random.default_rng(SEED)
    drawn = [(n_h, random_subproblem(rng, n_h)) for n_h in (1, 2, 3) for _ in range(3)]
    return [(n_h, qp, plan.quad[side]) for n_h, (qp, plan, side) in drawn]


@pytest.fixture(scope="module")
def instances(subproblems):
    return [(n_h, qp) for n_h, qp, _ in subproblems]


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("case", range(len(RECORDED)))
def test_decoder_matches_enumeration_and_recorded_search(instances, case):
    n_h, qp = instances[case]
    nodes, plain_nodes, trace, _, _ = RECORDED[case]
    oracle = brute_force_kbest(qp, max(KS), n_h)
    for k, k_nodes, k_plain in zip(KS, nodes, plain_nodes):
        cands = k_best(qp, k)
        assert cands.sequences == oracle.sequences[:k]
        assert cands.costs == oracle.costs[:k]
        assert cands.nodes_visited == k_nodes <= k_plain
    cands, rho_trace = sphere_decode(qp)
    assert cands.nodes_visited == nodes[0]
    assert all(type(x) is float for x in rho_trace)
    assert [x.hex() for x in rho_trace] == trace


def loop_cholesky(a):
    """The row-by-row loop that `_kernels.cholesky_lower` unrolls per size,
    on a list of rows: (rows of L with L L' = a, failing pivot).  The
    reference for the kernel's factor and failing pivot, read in its
    orientation by `loop_reverse_cholesky`."""
    n = len(a)
    tol = n * _kernels.EPS * max(max([abs(a[i][i]) for i in range(n)]), 1e-300)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        a_i = a[i]
        l_i = low[i]
        for j in range(i):
            l_j = low[j]
            s = a_i[j]
            for k in range(j):
                s -= l_i[k] * l_j[k]
            l_i[j] = s / l_j[j]
        s = a_i[i]
        for k in range(i):
            s -= l_i[k] * l_i[k]
        if s <= tol:
            return low, i
        l_i[i] = math.sqrt(s)
    return low, -1


def loop_reverse_cholesky(a):
    """`_kernels.cholesky_lower(a)` by `loop_cholesky` on the index-reversed
    matrix, for the flat n x n matrix `a`: (H as a flat list with
    H[i][j] = L[n-1-j][n-1-i], failing row of H)."""
    n = math.isqrt(len(a))
    low, pivot = loop_cholesky([a[(n - 1 - i) * n : (n - i) * n][::-1] for i in range(n)])
    h = [low[n - 1 - j][n - 1 - i] if j <= i else 0.0 for i in range(n) for j in range(n)]
    return h, n - 1 - pivot if pivot >= 0 else -1


def walk(factor, target, k, bounded, rho2=math.inf):
    """(best, nodes, rho_trace) of `sd_search`'s bounded or plain walk on
    the flat factor list and the target list, whatever `outside_box` says,
    started at squared radius `rho2` with an empty list."""
    best, rho_trace = [], []
    search = _kernels._search_of_depth(len(target), bounded)
    nodes = search(factor, target, k, rho2, best, rho_trace)
    return best, nodes, rho_trace


@pytest.mark.parametrize("case", range(len(RECORDED)))
def test_box_bound_only_removes_nodes(instances, case):
    _, qp = instances[case]
    nodes, plain_nodes, _, _, _ = RECORDED[case]
    for k, k_nodes, k_plain in zip(KS, nodes, plain_nodes):
        best, got_nodes, trace = walk(qp.factor, qp.target, k, True)
        plain_best, got_plain, plain_trace = walk(qp.factor, qp.target, k, False)
        assert best == plain_best
        assert trace == plain_trace
        assert (got_nodes, got_plain) == (k_nodes, k_plain)


def sum_outside_box(h, u_check):
    """The box test with a `sum` over each row, the form the generated
    `outside_box` replaced (before Python 3.12, `sum` adds floats left to
    right)."""
    return any(abs(c) > sum(map(abs, h[r][: r + 1])) for r, c in enumerate(u_check) if r)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 18])
def test_generated_box_test_equals_sum_form(instances, n):
    rng = np.random.default_rng(SEED + n)
    cases = [
        (np.tril(rng.normal(size=(n, n))).tolist(), (scale * rng.normal(size=n)).tolist())
        for scale in (0.1, 1.0, 3.0, 10.0)
        for _ in range(50)
    ]
    cases += [
        (np.reshape(qp.factor, (n, n)).tolist(), qp.target)
        for _, qp in instances if 3 * qp.horizon == n
    ]
    got = [_kernels.outside_box(sum(h, []), c) for h, c in cases]  # the flat factor
    assert got == [sum_outside_box(h, c) for h, c in cases]
    assert n == 1 or len(set(got)) == 2  # both answers occur


def test_box_test_adds_left_to_right():
    # row 2 holds 1 + 2**-52 in exact arithmetic: added left to right from 0
    # it rounds to 1.0, below its target 1 + 2**-52, so the target is
    # outside; a compensated sum (math.fsum, or `sum` of floats from
    # Python 3.12) reaches 1 + 2**-52 and would say inside
    h = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 2.0**-53, 2.0**-53]]
    c = [0.0, 0.0, 1.0 + 2.0**-52]
    assert _kernels.outside_box(sum(h, []), c)
    assert not c[2] > math.fsum(map(abs, h[2]))


@pytest.mark.parametrize("case", range(len(RECORDED)))
def test_factors_match_recorded_digests(subproblems, case):
    _, qp, quad = subproblems[case]
    _, _, _, chol, rev = RECORDED[case]
    low, pivot = loop_cholesky(quad.tolist())
    assert pivot == -1
    assert _digest(np.array(low)) == chol
    h, pivot = _kernels.cholesky_lower(quad.ravel().tolist())
    assert pivot == -1
    assert _digest(np.array(h).reshape(quad.shape)) == rev
    assert _digest(reverse_cholesky(quad)) == rev
    assert h == qp.factor  # the decoder's factor is the kernel's list


def test_failing_pivots_match_recorded():
    rng = np.random.default_rng(SEED)
    for n, rank, pivot, rev_pivot in RECORDED_PIVOTS:
        b = rng.normal(size=(n, rank))
        q = b @ b.T
        assert loop_cholesky(q.tolist())[1] == pivot
        assert _kernels.cholesky_lower(q.ravel().tolist())[1] == rev_pivot
        with pytest.raises(NotPositiveDefiniteError) as err:
            reverse_cholesky(q)
        assert err.value.pivot == rev_pivot
