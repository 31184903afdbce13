"""The decoder and Cholesky kernels reproduce recorded outputs exactly.

The radius traces, factor digests, failing pivots and plain-search node
counts below were recorded from the NumPy-scalar implementation of
`sd_search` and `cholesky_lower` that the list-based kernels replaced.
The unreversed factors and pivots come from `cholesky_lower` itself, the
reversed ones from `reverse_cholesky`, which the controller runs.  The
kernels run the same IEEE-754 operations in the same order, so every value
must match bit for bit; the candidate lists must also equal enumeration,
costs compared with `==`.  The box bound of `sd_search` cuts only subtrees
the plain search would reject anyway, so with it the lists and traces are
the same and only the node counts fall, to the second recorded set.
"""

import hashlib

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
from seqmpc.verify import random_qp_instance

SEED = 20261018
KS = (1, 4, 10)

# one row per `random_qp_instance` drawn from SEED, three per horizon 1, 2, 3:
# (k_best nodes for each k in KS, the same without the box bound,
#  sphere_decode radius trace in hex,
#  digest of cholesky_lower(quad), digest of reverse_cholesky(quad))
RECORDED = [
    ((12, 39, 39), (39, 39, 39), ["0x1.028637983b07ap+5"],
     "7cb8df299114d36d", "ff88ab2c9a0e2a1c"),
    ((24, 39, 39), (39, 39, 39), ["0x1.0f74b6a0e9e1ep+5"],
     "b6fc045fcf67ac71", "cbf08a8d9de77998"),
    ((9, 21, 30), (15, 21, 30), ["0x1.2ed7db9741dfbp+11"],
     "54ece7103a913f80", "45e4fdea5cace393"),
    (
        (213, 252, 429), (1068, 1068, 1089),
        ["0x1.ca8d967f5606ep+24", "0x1.b61e0994492b9p+24", "0x1.b44869eb4c7f4p+24",
         "0x1.b3f4c9ff4d948p+24", "0x1.b3d9318595bf0p+24"],
        "70763c940609a437", "f2f7f6fb2f57c985",
    ),
    (
        (45, 72, 147), (372, 384, 402),
        ["0x1.f83eaf90061bep+27", "0x1.ec24eb92e76fbp+27"],
        "f325ce3654c79d7d", "7d8bf1827fa602cd",
    ),
    (
        (183, 252, 393), (1092, 1092, 1092),
        ["0x1.23115ffc2991bp+25", "0x1.19582ce0206a4p+25", "0x1.15623ab3a165ep+25",
         "0x1.122fba7ad61ebp+25", "0x1.116992c5994b2p+25", "0x1.0e36fed639978p+25",
         "0x1.0bc7dcda8da12p+25", "0x1.0b01b58da9f13p+25", "0x1.08927fdb698e5p+25",
         "0x1.06e6bc1cdce89p+25"],
        "ede7cbfc5ffaeef3", "52b0abbf9a36f1c5",
    ),
    (
        (327, 642, 945), (1602, 2208, 2874),
        ["0x1.f249c1309a6e8p+23", "0x1.9891cd67cbd63p+23"],
        "765be273f6acefe5", "d8d633c6a9b90d36",
    ),
    (
        (1743, 1773, 2016), (13566, 13623, 13944),
        ["0x1.b6184b7271992p+25", "0x1.5f2d24e93a9c7p+25", "0x1.5db9ddc0810bep+25",
         "0x1.5cd6c9658a50fp+25", "0x1.5c5c8aa6a585ep+25", "0x1.5c099a80ae09ap+25"],
        "a91d8b6d66e89683", "d1704b849b8823e9",
    ),
    (
        (1296, 1380, 1689), (29520, 29520, 29523),
        ["0x1.c65d73df015fcp+12", "0x1.bd5e8657ba9a9p+12"],
        "6c0698c9136f9f4c", "ef33547305e97522",
    ),
]

# (n, rank, cholesky_lower pivot, reverse_cholesky pivot) of rank-deficient
# Gram matrices b @ b.T, b drawn from SEED with shape (n, rank)
RECORDED_PIVOTS = [(3, 2, 2, 0), (6, 4, 4, 1), (9, 5, 5, 3), (9, 8, 8, 0), (6, 1, 1, 4)]


@pytest.fixture(scope="module")
def instances():
    rng = np.random.default_rng(SEED)
    return [(n_h, random_qp_instance(rng, n_h)) for n_h in (1, 2, 3) for _ in range(3)]


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
    res = sphere_decode(qp)
    assert res.nodes == nodes[0]
    assert res.rho_trace.dtype == np.float64
    assert [x.hex() for x in res.rho_trace.tolist()] == trace


@pytest.mark.parametrize("case", range(len(RECORDED)))
def test_box_bound_only_removes_nodes(instances, case):
    _, qp = instances[case]
    nodes, plain_nodes, _, _, _ = RECORDED[case]
    seed = tuple(1 if v > 0.5 else -1 if v < -0.5 else 0 for v in qp.unconstrained.tolist())
    for k, k_nodes, k_plain in zip(KS, nodes, plain_nodes):
        args = (qp.factor, qp.target, k, float("inf"), seed)
        best, got_nodes, trace = _kernels.sd_search(*args, True)
        plain_best, got_plain, plain_trace = _kernels.sd_search(*args, False)
        assert best == plain_best
        assert trace == plain_trace
        assert (got_nodes, got_plain) == (k_nodes, k_plain)


@pytest.mark.parametrize("case", range(len(RECORDED)))
def test_factors_match_recorded_digests(instances, case):
    _, qp = instances[case]
    _, _, _, chol, rev = RECORDED[case]
    low, pivot = _kernels.cholesky_lower(qp.quad.tolist())
    assert pivot == -1
    assert _digest(np.array(low)) == chol
    assert _digest(reverse_cholesky(qp.quad)) == rev


def test_failing_pivots_match_recorded():
    rng = np.random.default_rng(SEED)
    for n, rank, pivot, rev_pivot in RECORDED_PIVOTS:
        b = rng.normal(size=(n, rank))
        q = b @ b.T
        assert _kernels.cholesky_lower(q.tolist())[1] == pivot
        with pytest.raises(NotPositiveDefiniteError) as err:
            reverse_cholesky(q)
        assert err.value.pivot == rev_pivot
