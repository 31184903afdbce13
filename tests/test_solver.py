import itertools
import math
import traceback

import numpy as np
import pytest
from numpy.testing import assert_allclose

from seqmpc import _kernels
from seqmpc.plant import GridParams, MachineParams, PlantState
from seqmpc.prediction import (
    CLARKE_PINV_MAT,
    SequenceError,
    StepPlan,
    SwitchSequence,
    build_grid_subsystem,
    build_machine_subsystem,
    build_multistep,
    build_step_models,
    discretize,
    predict_imbalance,
)
from seqmpc.solver import (
    CandidateList,
    NotPositiveDefiniteError,
    QpForm,
    all_sequences,
    assemble_qp,
    brute_force_kbest,
    condense,
    k_best,
    reverse_cholesky,
    select_pair,
    sphere_decode,
)
from seqmpc.verify import random_qp_instance, raw_cost_closure
from test_kernels import loop_reverse_cholesky, walk
from test_prediction import stacked_block_by_block
from test_step_forms import (
    condense_reference,
    plan_of_sides,
    reverse_cholesky_reference,
    side_models_reference,
)

MACHINE = MachineParams(0.1379, 0.019, 0.42675, 3)
GRID = GridParams(0.156, 0.020, 250.0, 100.0 * math.pi)
DC = (700.0, 0.0)  # v_dc, v_imb
T_S = 50e-6
C_DC = 1100e-6


def step_models(st):
    """A plan for horizon 1 holding the step's models at `st`."""
    plan = StepPlan(1)
    build_step_models(st, MACHINE, GRID, T_S, C_DC, plan)
    return plan


def select(st, cands_m, cands_n):
    """`select_pair` on a plan for the lists' horizon and lengths, with the
    step's models built into it: (its result, the plan)."""
    plan = StepPlan(cands_m.horizon, len(cands_m), len(cands_n))
    build_step_models(st, MACHINE, GRID, T_S, C_DC, plan)
    return select_pair(st, cands_m, cands_n, plan), plan


def step_plan(st, n_h, y_ref=0.0, x0=None, u_prev=0.0):
    """A plan for horizon `n_h` holding the step's models at `st` and their
    multistep maps, with the given references and previous levels, and the
    states `x0` in place of those of `st` if given."""
    plan = StepPlan(n_h)
    build_step_models(st, MACHINE, GRID, T_S, C_DC, plan)
    build_multistep(plan)
    if x0 is not None:
        plan.x0[...] = x0
    plan.y_ref[...], plan.u_prev[...] = y_ref, u_prev
    return plan


def machine_state(omega_e, theta_e, v_dc=DC[0], v_imb=DC[1]):
    """A state with zero currents at which the machine side's model is the
    one of `build_machine_subsystem(MACHINE, omega_e, v_dc, v_imb, theta_e)`
    (exactly so when omega_e is a multiple of the pole pairs)."""
    return PlantState((0.0, 0.0), (0.0, 0.0), v_dc, v_imb, omega_e / MACHINE.pole_pairs,
                      theta_e, 0.0)


def qp_from_factor(factor, u_unc, horizon):
    """Hand-built QpForm for synthetic decoder scenarios."""
    factor = np.asarray(factor, float)
    u_unc = np.asarray(u_unc, float)
    quad = factor.T @ factor
    return QpForm(
        quad=quad,
        lin=quad @ u_unc,
        factor=np.ascontiguousarray(factor),
        unconstrained=u_unc,
        target=np.ascontiguousarray(factor @ u_unc),
        horizon=horizon,
        factor_list=factor.ravel().tolist(),
    )


def flat_eye(n):
    """The n x n identity as a flat row-major list, the decoder's factor form."""
    return np.eye(n).ravel().tolist()


def cholesky(q):
    """`_kernels.cholesky_lower` on an array: (H array, or None for a failed
    factor, failing row of H)."""
    q = np.asarray(q, float)
    h, pivot = _kernels.cholesky_lower(q.ravel().tolist())
    return None if h is None else np.array(h).reshape(q.shape), pivot


class TestCholesky:
    def test_identity(self):
        assert_allclose(cholesky(np.eye(4))[0], np.eye(4))

    def test_hand_factor(self):
        # H.T @ H: the factor of the index-reversed matrix, read back
        h, _ = cholesky([[4.0, 2.0], [2.0, 2.0]])
        r = math.sqrt(2.0)
        assert_allclose(h, [[r, 0.0], [r, r]])

    def test_reconstruction(self, rng):
        for n in (2, 5, 9):
            for _ in range(20):
                a = rng.normal(size=(n, n))
                q = a @ a.T + n * np.eye(n)
                h, pivot = cholesky(q)
                assert pivot == -1
                assert_allclose(h, np.tril(h))
                assert np.linalg.norm(h.T @ h - q) <= 1e-12 * np.linalg.norm(q)

    def test_not_pd_reports_pivot(self):
        h, pivot = cholesky(np.diag([1.0, 1.0, -1.0]))
        assert h is None and pivot == 2

    def test_stack_raises_for_its_first_failing_matrix(self, rng):
        # rank-deficient Gram matrices whose reversed factors fail at
        # different pivots; a stack is factored item by item, in order
        b_1, b_2 = rng.normal(size=(9, 3)), rng.normal(size=(9, 7))
        pivots = []
        for q in (b_1 @ b_1.T, b_2 @ b_2.T):
            with pytest.raises(NotPositiveDefiniteError) as err:
                reverse_cholesky(q)
            pivots.append(err.value.pivot)
        assert pivots[0] != pivots[1]
        for stack, pivot in (((b_1, b_2), pivots[0]), ((b_2, b_1), pivots[1])):
            with pytest.raises(NotPositiveDefiniteError) as err:
                reverse_cholesky(np.array([b @ b.T for b in stack]))
            assert err.value.pivot == pivot

    @pytest.mark.parametrize("n", range(1, 19))
    def test_generated_equals_loop_reference(self, n, rng):
        # full-rank, rank-deficient and indefinite matrices over a wide
        # range of scales; repr compares every float of a factor bit for
        # bit, zero signs included, and a failed factor is exactly
        # (None, the loop's failing pivot)
        cases = []
        for rank in range(n + 1):
            b = rng.normal(size=(n, max(rank, 1))) * 10.0 ** rng.uniform(-4, 4)
            q = b @ b.T if rank else -np.eye(n)
            cases += [q, q + rng.uniform(0, 1) * np.eye(n)]
        cases.append(np.diag(rng.normal(size=n)))
        failed = 0
        for q in cases:
            a = q.ravel().tolist()
            got, (h, pivot) = _kernels.cholesky_lower(a), loop_reverse_cholesky(a)
            if pivot < 0:
                assert repr(got) == repr((h, pivot))
            else:
                assert got == (None, pivot)
                failed += 1
        assert failed  # the indefinite cases fail, at the least

    def test_reverse_factor(self, rng):
        for n in (2, 6, 9):
            for _ in range(20):
                a = rng.normal(size=(n, n))
                q = a @ a.T + n * np.eye(n)
                h = reverse_cholesky(q)
                assert_allclose(h, np.tril(h))
                assert (np.diag(h) > 0).all()
                assert np.linalg.norm(h.T @ h - q) <= 1e-11 * np.linalg.norm(q)


class TestCondensation:
    def test_zero_weight_reduces_to_gram_matrix(self):
        plan = step_plan(machine_state(120.0, 0.4), 2)
        quad, _ = condense(0.0, plan)
        for i in range(2):
            forced = plan.forced_map[i]
            assert_allclose(quad[i], forced.T @ forced)

    def test_zero_weight_rank_deficiency_is_reported(self):
        # the machine side's Gram matrix, factored first, is singular
        plan = step_plan(machine_state(120.0, 0.4), 2)
        with pytest.raises(NotPositiveDefiniteError) as err:
            assemble_qp(0.0, plan)
        assert err.value.item == 0

    def test_reference_on_free_response_gives_zero_minimizer(self):
        # a forced map of the first two levels and a reference equal to the
        # free response, on both sides
        plan = StepPlan(1)
        plan.forced_map[...] = np.eye(2, 3)
        plan.free_map[...] = np.ones((2, 2))
        plan.drift_vec[...] = np.array([0.5, -1.0])
        plan.x0[...] = np.array([1.0, 2.0])
        plan.y_ref[...] = plan.free_map[0] @ plan.x0[0] + plan.drift_vec[0]
        plan.u_prev[...] = 0.0
        for qp in assemble_qp(0.1, plan):
            assert_allclose(qp.lin, np.zeros(3), atol=1e-12)
            assert_allclose(qp.unconstrained, np.zeros(3), atol=1e-12)

    def test_qp_invariants(self, rng):
        for n_h in (1, 2):
            qp = random_qp_instance(rng, n_h)
            assert_allclose(qp.factor, np.tril(qp.factor))
            assert np.linalg.norm(qp.factor.T @ qp.factor - qp.quad) <= 1e-9 * np.linalg.norm(qp.quad)
            assert_allclose(qp.quad @ qp.unconstrained, qp.lin, rtol=1e-8)
            assert_allclose(qp.target, qp.factor @ qp.unconstrained)

    def test_integer_argmin_survives_condensation(self, rng):
        # the raw tracking-plus-effort cost and the triangular form must
        # rank the best integer point identically (enumeration oracle), on
        # the side drawn; the other side's inputs are zero
        cfg_cases = 25
        for i in range(cfg_cases):
            n_h = 1 + (i % 2)
            v_dc, v_imb = float(rng.uniform(600, 800)), float(rng.uniform(-5, 5))
            if rng.random() < 0.5:
                side = 0
                sys = build_machine_subsystem(
                    MACHINE, float(rng.uniform(-400, 400)), v_dc, v_imb,
                    float(rng.uniform(0, 2 * math.pi)),
                )
                y_ref = np.tile(rng.normal(0, 15, 2), n_h)
            else:
                side = 1
                sys = build_grid_subsystem(GRID, rng.normal(0, 300, 2), v_dc, v_imb)
                y_ref = np.tile(rng.normal(0, 3000, 2), n_h)
            plan = plan_of_sides([discretize(sys, T_S)] * 2, n_h)
            x0 = rng.normal(0, 15, 2)
            u_prev = tuple(int(v) for v in rng.integers(-1, 2, 3))
            plan.x0[...] = plan.y_ref[...] = plan.u_prev[...] = 0.0
            plan.x0[side], plan.y_ref[side], plan.u_prev[side] = x0, y_ref, u_prev
            qp = assemble_qp(0.1, plan)[side]
            raw = raw_cost_closure(plan, side, x0, y_ref, u_prev, 0.1)
            assert brute_force_kbest(raw, 1, n_h).sequences[0] == brute_force_kbest(qp, 1, n_h).sequences[0]


class TestTwoSideStack:
    """The controller assembles both sides as one two-item stack; every array
    must equal that of assembling each side alone, byte for byte."""

    FIELDS = ("forced_map", "free_map", "drift_vec")
    QP_FIELDS = ("quad", "lin", "factor", "unconstrained", "target")

    @staticmethod
    def random_state(rng):
        return PlantState(
            i_m_dq=tuple(rng.normal(0, 20, 2).tolist()),
            i_n_ab=tuple(rng.normal(0, 20, 2).tolist()),
            v_dc=float(rng.uniform(600, 800)),
            v_imb=float(rng.uniform(-5, 5)),
            omega_m=float(rng.uniform(-200, 200)),
            theta_e=float(rng.uniform(0, 2 * math.pi)),
            t=float(rng.uniform(0, 0.02)),
        )

    @pytest.mark.parametrize("n_h", range(1, 7))
    def test_stacked_equals_single_sides_byte_for_byte(self, n_h, rng):
        for _ in range(200):
            st = self.random_state(rng)
            x0 = np.array((st.i_m_dq, st.i_n_ab))
            y_ref = np.array((np.tile(rng.normal(0, 15, 2), n_h),
                              np.tile(rng.normal(0, 3000, 2), n_h)))
            u_prev = np.array([tuple(int(v) for v in rng.integers(-1, 2, 3)) for _ in range(2)])
            lam = float(rng.uniform(0.01, 1.0))
            plan = step_plan(st, n_h, y_ref, u_prev=u_prev)
            qp = assemble_qp(lam, plan)
            assert qp is plan.qp_items
            for i, side in enumerate(side_models_reference(st)[:2]):
                for name in ("state_mat", "input_mat", "drift", "output_mat"):
                    assert getattr(plan, name)[i].tobytes() == getattr(side, name).tobytes()
                alone = stacked_block_by_block(side, n_h)
                for name, want in zip(self.FIELDS, alone):
                    assert getattr(plan, name)[i].tobytes() == want.tobytes()
                # the side alone by the references: condensation, factor, solve
                quad, lin = condense_reference(alone, x0[i], y_ref[i], u_prev[i], lam)
                factor = reverse_cholesky_reference(quad)
                unconstrained = np.linalg.solve(quad, lin[..., None])[..., 0]
                target = (factor @ unconstrained[..., None])[..., 0]
                want = dict(quad=quad, lin=lin, factor=factor, unconstrained=unconstrained,
                            target=target)
                for name in self.QP_FIELDS:
                    assert getattr(qp[i], name).tobytes() == want[name].tobytes()
                    assert np.shares_memory(getattr(qp[i], name), getattr(plan, name))

    @pytest.mark.parametrize(
        "lam, failing",
        # at standstill the grid side's Gram matrix fails its pivot test
        # below lam ~1e-10 at N_h = 3, the machine side's below ~1e-15
        [(1e-12, "grid"), (0.0, "machine")],
    )
    def test_pivot_failure_names_the_failing_side(self, lam, failing):
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        n_h = 3
        pivots = {}
        for name, side in zip(("machine", "grid"), side_models_reference(st)):
            # each side's Gram matrix alone, by the references
            alone = stacked_block_by_block(side, n_h)
            quad, _ = condense_reference(alone, np.zeros(2), np.zeros(2 * n_h),
                                         np.zeros(3, dtype=np.int64), lam)
            try:
                reverse_cholesky(quad)
            except NotPositiveDefiniteError as exc:
                pivots[name] = exc.pivot
                # a single matrix carries no index, and its message names no side
                assert exc.item is None
                assert str(exc) == f"matrix is not positive definite (pivot {exc.pivot})"
        assert failing in pivots and ("machine" in pivots) == (failing == "machine")
        with pytest.raises(NotPositiveDefiniteError) as err:
            assemble_qp(lam, step_plan(st, n_h))
        assert err.value.pivot == pivots[failing]
        assert err.value.item == ("machine", "grid").index(failing)
        assert str(err.value) == (
            f"{failing} side: matrix is not positive definite (pivot {pivots[failing]})"
        )


class TestSphereDecode:
    def test_matches_enumeration_single_stage(self, rng):
        for _ in range(50):
            qp = random_qp_instance(rng, 1)
            cands, _ = sphere_decode(qp)
            want = brute_force_kbest(qp, 1, 1).sequences[0]
            assert cands.sequences[0] == want

    def test_zero_residual_leaf(self):
        u_unc = np.array([1.0, 0.0, -1.0])
        qp = qp_from_factor(1e-3 * np.eye(3), u_unc, 1)
        cands, _ = sphere_decode(qp)
        assert cands.sequences[0].as_tuple() == (1, 0, -1)
        assert cands.costs[0] == 0.0

    def test_radius_trace_is_nonincreasing(self, rng):
        for _ in range(50):
            qp = random_qp_instance(rng, 2)
            cands, trace = sphere_decode(qp)
            assert type(trace) is list and all(type(r) is float for r in trace)
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            assert trace[-1] == cands.costs[0]


class TestKBest:
    def test_exhaustive_single_stage(self, rng):
        qp = random_qp_instance(rng, 1)
        got = k_best(qp, 27)
        want = brute_force_kbest(qp, 27, 1)
        assert [s.as_tuple() for s in got.sequences] == [s.as_tuple() for s in want.sequences]
        assert_allclose(got.costs, want.costs, rtol=0, atol=1e-9)

    def test_candidate_stack_matches_sequences(self, rng):
        for n_h, k in ((1, 4), (2, 10), (3, 4)):
            got = k_best(random_qp_instance(rng, n_h), k)
            assert len(got.rows) == k and all(len(row) == 3 * n_h for row in got.rows)
            assert all(type(v) is int for row in got.rows for v in row)
            assert len(got.costs) == len(got) == k
            for row, seq in zip(got.rows, got.sequences):
                # each sequence is its row
                assert seq == row and seq.as_tuple() == row
            assert got.sequences is got.sequences

    def test_candidate_list_validates_its_stack(self):
        rows = ((1, 0, -1, 0, 1, 1), (0, 0, 0, -1, -1, 1))
        cands = CandidateList([(0.5, rows[0]), (2.0, rows[1])], 2)
        assert cands.rows == rows and cands.costs == [0.5, 2.0]
        assert all(type(v) is int for row in cands.rows for v in row)
        assert cands.sequences == [SwitchSequence(row) for row in rows]
        with pytest.raises(ValueError, match="entries"):
            CandidateList([(1.0, (0, 2, 0))], 1)
        for levels in ((2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, -2), (1, -1, 0, 2, -2, 0)):
            with pytest.raises(ValueError, match="entries"):
                CandidateList([(1.0, levels)], 2)
        # a float is checked as given, not cast to a level first (0.9 and -0.7
        # would read as 0, 1.5 as 1)
        for levels in ((0.9, -0.7, 0.0), (1.5, 0.0, 0.0)):
            with pytest.raises(ValueError, match="entries"):
                CandidateList([(1.0, levels)], 1)
        with pytest.raises(ValueError, match="length"):
            CandidateList([(1.0, (0, 0, 0, 1))], 1)
        for levels in ((), (0, 0), (1, 0, -1, 1, 0)):
            with pytest.raises(ValueError, match="length"):
                CandidateList([(1.0, levels)], 2)
        with pytest.raises(ValueError, match="length"):
            CandidateList([(1.0, (0, 0, 0)), (2.0, (0, 0, 0))], 2)
        with pytest.raises(ValueError, match="length"):
            CandidateList([(1.0, (0, 0, 0)), (2.0, (0, 0))], 1)

    def test_candidate_rows_hold_python_ints(self):
        # a bool, a float and a NumPy int compare equal to levels, but the
        # rows, whose blocks are the applied switch states, hold Python ints
        # only, so each is rejected
        for level in (True, 1.0, np.int64(0)):
            with pytest.raises(SequenceError, match="entries"):
                CandidateList([(0.0, (level, 1, 0))], 1)
        cands = CandidateList([(0.0, (1, 1, 0))], 1)
        assert cands.rows == ((1, 1, 0),)
        assert all(type(v) is int for row in cands.rows for v in row)

    def test_k_one_reduces_to_sphere_decode(self, rng):
        for _ in range(10):
            qp = random_qp_instance(rng, 2)
            got = k_best(qp, 1)
            cands, _ = sphere_decode(qp)
            assert type(cands) is CandidateList
            assert cands.sequences[0] == got.sequences[0]
            assert (cands.rows, cands.costs) == (got.rows, got.costs)
            assert cands.nodes_visited == got.nodes_visited

    @pytest.mark.parametrize("n_h,k", [(1, 4), (1, 10), (2, 4), (2, 10)])
    def test_matches_enumeration(self, n_h, k, rng):
        for _ in range(25):
            qp = random_qp_instance(rng, n_h)
            got = k_best(qp, k)
            want = brute_force_kbest(qp, k, n_h)
            assert [s.as_tuple() for s in got.sequences] == [
                s.as_tuple() for s in want.sequences
            ]
            assert_allclose(got.costs, want.costs, rtol=0, atol=1e-9)

    def test_truncates_at_alphabet_size(self):
        qp = qp_from_factor(np.eye(3), np.zeros(3), 1)
        got = k_best(qp, 40)
        assert len(got) == 27

    def test_equal_cost_ties_break_lexicographically(self):
        # an unconstrained point between two alphabet values produces exact
        # cost ties; the smaller sequence must come first
        u_unc = np.array([0.5, 0.0, 0.0])
        qp = qp_from_factor(np.eye(3), u_unc, 1)
        got = k_best(qp, 4)
        want = brute_force_kbest(qp, 4, 1)
        assert [s.as_tuple() for s in got.sequences] == [s.as_tuple() for s in want.sequences]
        assert got.sequences[0].as_tuple() == (0, 0, 0)
        assert got.sequences[1].as_tuple() == (1, 0, 0)
        assert got.costs[0] == got.costs[1]
        # several halfway coordinates make whole blocks of the list tie,
        # up to the full alphabet
        for u_unc in ([0.5, 0.5, -0.5], [0.5, 0.0, -0.5, 0.5, 0.0, 0.5], [0.5] * 6):
            n_h = len(u_unc) // 3
            qp = qp_from_factor(np.eye(3 * n_h), u_unc, n_h)
            for k in (1, 2, 3, 4, 10, 27, 3 ** (3 * n_h)):
                got = k_best(qp, k)
                want = brute_force_kbest(qp, k, n_h)
                assert [s.as_tuple() for s in got.sequences] == [
                    s.as_tuple() for s in want.sequences
                ]
                assert got.costs == want.costs

    def test_no_duplicates_across_iterations(self, rng):
        for _ in range(20):
            qp = random_qp_instance(rng, 1)
            got = k_best(qp, 10)
            keys = [s.as_tuple() for s in got.sequences]
            assert len(set(keys)) == len(keys)

    def test_node_count_bounds(self, rng):
        for n_h in (1, 2):
            full_tree = sum(3 ** d for d in range(1, 3 * n_h + 1))
            for k in (1, 4, 10):
                qp = random_qp_instance(rng, n_h)
                got = k_best(qp, k)
                assert got.nodes_visited >= 3 * n_h
                assert got.nodes_visited <= full_tree

    def test_costs_validated(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            CandidateList([(2.0, (0, 0, 0)), (1.0, (0, 0, 0))], 1)

    def test_rejects_nonpositive_k(self, rng):
        qp = random_qp_instance(rng, 1)
        with pytest.raises(ValueError):
            k_best(qp, 0)


class TestBoxBound:
    """The decoder's box bound cuts nodes but never a listable leaf.

    Every family below puts the unconstrained optimum outside the box, so
    the bound is computed and prunes; lists and costs must still equal
    enumeration exactly, ties included.
    """

    KS = (1, 4, 10)

    @staticmethod
    def assert_exact(qp, n_h, ks=KS):
        want = brute_force_kbest(qp, max(ks), n_h)
        for k in ks:
            got = k_best(qp, k)
            assert got.sequences == want.sequences[:k]
            assert got.costs == want.costs[:k]
        # a leaf whose cost ties a finite radius survives the bound
        best, _, _ = walk(qp.factor, qp.target, 1, True, want.costs[0])
        assert best == [(want.costs[0], want.sequences[0].as_tuple())]

    @staticmethod
    def plain_and_bounded(qp, k):
        return walk(qp.factor, qp.target, k, False), walk(qp.factor, qp.target, k, True)

    @pytest.mark.parametrize("n_h", [1, 2, 3])
    def test_far_outside_box_matches_enumeration(self, n_h, rng):
        cut = 0
        for scale in (2.0, 3.0, 5.0, 8.0, 13.0, 20.0):
            base = random_qp_instance(rng, n_h)
            x = rng.uniform(-1.0, 1.0, size=3 * n_h)
            x *= scale / np.abs(x).max()
            qp = qp_from_factor(base.factor, x, n_h)
            self.assert_exact(qp, n_h)
            for k in self.KS:
                (best, nodes, trace), (b_best, b_nodes, b_trace) = self.plain_and_bounded(qp, k)
                assert (b_best, b_trace) == (best, trace)
                assert b_nodes <= nodes
                cut += nodes - b_nodes
        assert cut > 0

    @pytest.mark.parametrize("n_h", [1, 2, 3])
    def test_exact_tie_twins_outside_box(self, n_h, rng):
        # small integers make every cost exact, so many leaves tie
        ties = 0
        for _ in range(4):
            n = 3 * n_h
            factor = np.tril(rng.integers(-2, 3, size=(n, n))).astype(float)
            factor[np.diag_indices(n)] = rng.integers(1, 3, size=n)
            x = rng.integers(-12, 13, size=n).astype(float)
            x[rng.integers(n)] = 12.0
            qp = qp_from_factor(factor, x, n_h)
            self.assert_exact(qp, n_h, ks=(1, 2, 3, 4, 10, 27))
            costs = brute_force_kbest(qp, 27, n_h).costs
            ties += sum(a == b for a, b in zip(costs, costs[1:]))
        assert ties > 0

    @pytest.mark.parametrize("n_h", [1, 2, 3])
    @pytest.mark.parametrize("exact", [False, True])
    def test_tight_bound_ties_the_radius(self, n_h, exact, rng):
        # positive factor, optimum far out on the positive side: the best
        # leaf is all ones and the bound equals its cost on every node of
        # its path, up to rounding, or exactly on small integers
        n = 3 * n_h
        for _ in range(20 if not exact else 5):
            if exact:
                factor = np.tril(rng.integers(1, 4, size=(n, n))).astype(float)
                x = rng.integers(2, 21, size=n).astype(float)
            else:
                factor = np.tril(rng.uniform(0.1, 3.0, size=(n, n)))
                x = rng.uniform(2.0, 20.0, size=n)
            qp = qp_from_factor(factor, x, n_h)
            self.assert_exact(qp, n_h)

    @pytest.mark.parametrize("n_h", [1, 2, 3])
    def test_gap_within_ulps_of_zero(self, n_h, rng):
        # the optimum sits a few ulps outside the box: every row's gap
        # |target_r| - sum_l |factor_rl| is a few ulps from 0, and so is the
        # best cost, which leaves the per-row slack no room to hide a cut
        eps = np.finfo(float).eps
        for _ in range(20):
            n = 3 * n_h
            factor = np.tril(rng.uniform(0.1, 3.0, size=(n, n)))
            signs = rng.choice([-1.0, 1.0], size=n)
            factor *= signs[None, :]
            x = signs * (1.0 + eps * rng.integers(1, 4, size=n))
            qp = qp_from_factor(factor, x, n_h)
            self.assert_exact(qp, n_h)

    @staticmethod
    def families(n_h, rng):
        """Random instances and one of each family above at horizon n_h."""
        n = 3 * n_h
        eps = np.finfo(float).eps
        for _ in range(2):
            yield random_qp_instance(rng, n_h)
        # far outside the box
        x = rng.uniform(-1.0, 1.0, size=n)
        yield qp_from_factor(random_qp_instance(rng, n_h).factor, x * 8.0 / np.abs(x).max(), n_h)
        # exact-tie twins
        factor = np.tril(rng.integers(-2, 3, size=(n, n))).astype(float)
        factor[np.diag_indices(n)] = rng.integers(1, 3, size=n)
        x = rng.integers(-12, 13, size=n).astype(float)
        x[rng.integers(n)] = 12.0
        yield qp_from_factor(factor, x, n_h)
        # the bound ties the radius, exactly and up to rounding
        factor = np.tril(rng.integers(1, 4, size=(n, n))).astype(float)
        yield qp_from_factor(factor, rng.integers(2, 21, size=n).astype(float), n_h)
        yield qp_from_factor(np.tril(rng.uniform(0.1, 3.0, size=(n, n))), rng.uniform(2.0, 20.0, size=n), n_h)
        # gaps within ulps of zero
        signs = rng.choice([-1.0, 1.0], size=n)
        factor = np.tril(rng.uniform(0.1, 3.0, size=(n, n))) * signs[None, :]
        yield qp_from_factor(factor, signs * (1.0 + eps * rng.integers(1, 4, size=n)), n_h)

    @pytest.mark.parametrize("n_h", [1, 2, 3, 4])
    def test_bounded_walk_equals_plain_walk(self, n_h, rng):
        # the bounded walk runs on every instance, whatever the box gate
        # says; lists, costs and radius traces must be the plain walk's
        cut = 0
        for qp in self.families(n_h, rng):
            for k in self.KS:
                (best, nodes, trace), (b_best, b_nodes, b_trace) = self.plain_and_bounded(qp, k)
                assert (b_best, b_trace) == (best, trace)
                assert b_nodes <= nodes
                cut += nodes - b_nodes
            # at a finite radius that the last leaf ties
            args = (qp.factor, qp.target, 4)
            rho2 = best[min(3, len(best) - 1)][0]
            plain, bounded = walk(*args, False, rho2), walk(*args, True, rho2)
            assert bounded[0] == plain[0] and bounded[2] == plain[2]
            assert bounded[1] <= plain[1]
        assert cut > 0


class TestLongHorizons:
    """The searches generated for N_h = 4, 5 and 6 (12, 15 and 18 layers)."""

    def test_nh4_matches_enumeration_ties_included(self, rng):
        # small integers make every cost exact, so many leaves tie
        n = 12
        factor = np.tril(rng.integers(-2, 3, size=(n, n))).astype(float)
        factor[np.diag_indices(n)] = rng.integers(1, 3, size=n)
        x = rng.integers(-12, 13, size=n).astype(float)
        tied = qp_from_factor(factor, x, 4)
        for qp in (random_qp_instance(rng, 4), tied):
            TestBoxBound.assert_exact(qp, 4, ks=(1, 4, 10, 27))
        costs = brute_force_kbest(tied, 27, 4).costs
        assert any(a == b for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("n_h", [5, 6])
    def test_lists_are_consistent(self, n_h, rng):
        for _ in range(3):
            qp = random_qp_instance(rng, n_h)
            h, t = qp.factor.tolist(), qp.target.tolist()
            short, full = k_best(qp, 4), k_best(qp, 10)
            assert short.rows == full.rows[:4]
            assert short.costs == full.costs[:4]
            for seq, cost in zip(full.sequences, full.costs):
                assert cost == _kernels.sequence_cost(h, t, seq.as_tuple())
            # the k-th cost as a finite radius, on the walk `sd_search` picks
            bounded = _kernels.outside_box(qp.factor_list, t)
            best, _, _ = walk(qp.factor, qp.target, 10, bounded, full.costs[-1])
            assert best == [(c, s.as_tuple()) for c, s in zip(full.costs, full.sequences)]


class TestGeneratedSearch:
    """What the generated search does besides the walk itself."""

    def test_threshold_order_equals_child_order(self, rng):
        namespace = {"child_order": _kernels.child_order}
        exec("def pick(center):\n" + "\n".join(_kernels._order_lines("    ")) + "\n    return o\n",
             namespace)
        centers = [0.0, -0.0, math.inf, -math.inf, math.nan]
        for edge in (0.5, 2.0 ** -54, 2.0 ** -53, 1.0, 2.0, 2.0 ** 52, 2.0 ** 53, 5e-324):
            for start in (edge, -edge):
                for direction in (math.inf, -math.inf):
                    x = start
                    for _ in range(4):
                        centers.append(x)
                        x = math.nextafter(x, direction)
        centers += [2.0 ** 53 + 2.0 * i for i in range(-4, 5)]
        centers += (rng.standard_normal(20000) * 10.0 ** rng.integers(-20, 20, 20000)).tolist()
        centers += rng.uniform(-3.0, 3.0, 20000).tolist()
        for center in centers:
            assert namespace["pick"](center) == _kernels.child_order(center), center

    def test_depth_limit(self):
        deepest = _kernels.MAX_LAYERS
        for bounded in (False, True):
            best, nodes, _ = walk(np.eye(deepest), np.zeros(deepest), 1, bounded)
            assert best == [(0.0, (0,) * deepest)] and nodes == 3 * deepest
        assert _kernels.sd_search(flat_eye(deepest), [0.0] * deepest, 1)[0] == best
        with pytest.raises(ValueError, match="1 to 20 layers, got 21"):
            _kernels.sd_search(flat_eye(deepest + 1), [0.0] * (deepest + 1), 1)

    def test_traceback_shows_generated_lines(self):
        # a target outside the box picks the bounded walk, and row 0's
        # target does not count
        for target, name in (((1.0, 1.0, 1.0), "bounded"), ((1.0, 0.0, 0.0), "plain")):
            with pytest.raises(ZeroDivisionError) as err:
                _kernels.sd_search([0.0] * 9, list(target), 1)
            frame = traceback.extract_tb(err.value.__traceback__)[-1]
            assert frame.filename == f"<sd_search n=3 {name}>"
            assert frame.line == "center = (c_0 - 0.0) / d_0"

    @pytest.mark.parametrize("bounded", [False, True])
    def test_both_walks_compile_at_every_depth(self, bounded):
        for n in range(1, _kernels.MAX_LAYERS + 1):
            assert callable(_kernels._search_of_depth(n, bounded))

    def test_deepest_bounded_walk_outside_box(self, rng):
        n = _kernels.MAX_LAYERS
        factor = np.tril(rng.uniform(-0.2, 0.2, size=(n, n)))
        factor[np.diag_indices(n)] = rng.uniform(1.0, 2.0, size=n)
        x = rng.uniform(-0.45, 0.45, size=n)
        x[:3] = (2.5, -2.0, 1.5)
        target = factor @ x
        h, t = factor.ravel().tolist(), target.tolist()
        assert _kernels.outside_box(h, t)
        best, nodes, trace = walk(factor, target, 4, True)
        assert _kernels.sd_search(h, t, 4) == (best, nodes, trace)
        plain_best, plain_nodes, plain_trace = walk(factor, target, 4, False)
        assert (best, trace) == (plain_best, plain_trace)
        assert nodes <= plain_nodes
        assert best[0][1] == (1, -1, 1) + (0,) * (n - 3)
        rows = factor.tolist()
        assert [cost for cost, _ in best] == [_kernels.sequence_cost(rows, t, lv) for _, lv in best]


class TestBruteForce:
    def test_constant_cost_is_pure_lexicographic(self):
        got = brute_force_kbest(lambda levels: 1.0, 5, 1)
        expected = list(itertools.product((-1, 0, 1), repeat=3))[:5]
        assert [s.as_tuple() for s in got.sequences] == expected

    def test_k_larger_than_alphabet_truncates(self):
        got = brute_force_kbest(lambda levels: float(sum(levels)), 100, 1)
        assert len(got) == 27

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            all_sequences(5)

    @pytest.mark.parametrize("n_h", [1, 2])
    def test_matches_per_sequence_loop(self, n_h, rng):
        # the loop reference: one `sequence_cost` per sequence, ranked by a
        # Python sort on (cost, levels)
        qp = random_qp_instance(rng, n_h)
        h, t = qp.factor.tolist(), qp.target.tolist()
        seqs = list(itertools.product((-1, 0, 1), repeat=3 * n_h))
        assert all_sequences(n_h).dtype == np.int8
        assert all_sequences(n_h).tolist() == [list(u) for u in seqs]
        want = sorted((_kernels.sequence_cost(h, t, u), u) for u in seqs)
        got = brute_force_kbest(qp, len(seqs), n_h)
        assert got.costs == [c for c, _ in want]
        assert [s.as_tuple() for s in got.sequences] == [u for _, u in want]
        # the oracle's rows hold Python ints, as the decoder's do
        assert all(type(v) is int for row in got.rows for v in row)
        assert all(s == row for s, row in zip(got.sequences, got.rows))


class TestSelectPair:
    @staticmethod
    def make_state(i_m_dq, i_n_ab, v_imb=0.0, omega_m=60.0, theta=0.0):
        return PlantState(
            i_m_dq=tuple(map(float, i_m_dq)),
            i_n_ab=tuple(map(float, i_n_ab)),
            v_dc=700.0,
            v_imb=v_imb,
            omega_m=omega_m,
            theta_e=theta,
            t=0.001,
        )

    @staticmethod
    def listify(rows):
        """A list of level rows (tuples or 1-D int arrays), costs 0, 1, ..."""
        leaves = [(float(i), tuple(np.asarray(row).tolist())) for i, row in enumerate(rows)]
        return CandidateList(leaves, len(rows[0]) // 3)

    def test_single_pair_is_returned(self):
        st = self.make_state([4.0, -2.0], [1.0, 3.0])
        u_m, u_n = (1, 0, -1), (0, 1, -1)
        (got_m, got_n, j_o, im, il), _ = select(st, self.listify([u_m]), self.listify([u_n]))
        assert got_m == u_m and got_n == u_n and (im, il) == (0, 0)
        path = predict_imbalance(st, u_m, u_n, step_models(st))
        assert j_o == pytest.approx(float(path @ path))

    @pytest.mark.parametrize("n_h", [1, 2, 3, 4])
    def test_single_candidates_score_like_the_one_pair_reference(self, n_h, rng):
        # standard_sd's imbalance stage: one-candidate lists go through the
        # stacked self-product, which must give the bits of `path @ path`
        for _ in range(40):
            st = self.make_state(
                rng.normal(0, 15, 2), rng.normal(0, 15, 2), v_imb=rng.normal(0, 2),
                omega_m=rng.uniform(-150, 150), theta=rng.uniform(0, 2 * math.pi),
            )
            u_m, u_n = (tuple(rng.integers(-1, 2, 3 * n_h).tolist()) for _ in "mn")
            cands_m, cands_n = self.listify([u_m]), self.listify([u_n])
            (got_m, got_n, j_o, im, il), _ = select(st, cands_m, cands_n)
            assert (im, il) == (0, 0)
            assert got_m == u_m and got_n == u_n
            path = predict_imbalance(st, u_m, u_n, step_models(st))
            assert j_o.hex() == float(path @ path).hex()

    def test_minimizes_over_all_pairs(self, rng):
        st = self.make_state(rng.normal(0, 10, 2), rng.normal(0, 10, 2), v_imb=0.8)
        n_h = 2
        cands_m = self.listify([rng.integers(-1, 2, 3 * n_h) for _ in range(4)])
        cands_n = self.listify([rng.integers(-1, 2, 3 * n_h) for _ in range(4)])
        (_, _, j_o, _, _), _ = select(st, cands_m, cands_n)
        for u_m in cands_m.rows:
            for u_n in cands_n.rows:
                path = predict_imbalance(st, u_m, u_n, step_models(st))
                assert j_o <= float(path @ path) + 1e-15

    def test_exact_cancellation_pair_wins(self):
        # identical currents on both sides and an identical |switch| pattern
        # cancel stage by stage, keeping the predicted imbalance at zero
        i_ab = np.array([6.0, -3.0])
        st = self.make_state(i_ab, i_ab, v_imb=0.0, omega_m=0.0, theta=0.0)
        matched, off_m, off_n = (1, 0, -1), (1, 1, 0), (0, 0, 1)
        (got_m, got_n, j_o, im, il), _ = select(
            st, self.listify([off_m, matched]), self.listify([off_n, matched])
        )
        assert j_o == pytest.approx(0.0, abs=1e-18)
        assert got_m == matched and got_n == matched and (im, il) == (1, 1)

    def test_tie_prefers_lowest_indices(self):
        st = self.make_state([0.0, 0.0], [0.0, 0.0])
        seqs = [(1, -1, 0), (0, 1, -1)]
        (got_m, got_n, j_o, im, il), _ = select(st, self.listify(seqs), self.listify(seqs))
        # zero currents make every pair cost identical, so indices decide
        assert got_m == seqs[0] and got_n == seqs[0] and (im, il) == (0, 0)

    @staticmethod
    def per_pair_reference(st, cands_m, cands_n, models):
        """Lowest (im, il) of the least score, pair by pair, and every path."""
        best, paths = None, {}
        for im, u_m in enumerate(cands_m.rows):
            for il, u_n in enumerate(cands_n.rows):
                path = predict_imbalance(st, u_m, u_n, models)
                paths[im, il] = path
                j_o = float(path @ path)
                if best is None or j_o < best[0]:
                    best = (j_o, im, il)
        return best, paths

    @staticmethod
    def one_at_a_time(st, u_m, u_n):
        """The imbalance path of one pair with 1-D NumPy matvecs and dots,
        stage by stage, on each side's model by the per-side definition:
        the arithmetic the batched stage must reproduce."""
        gain = T_S / C_DC

        def contributions(x, model, levels, proj):
            out, levels = [], np.asarray(levels)
            for j in range(len(levels) // 3):
                blk = levels[3 * j : 3 * j + 3]
                out.append(gain * float(np.abs(blk) @ (proj @ x)))
                x = model.state_mat @ x + model.input_mat @ blk + model.drift
            return out

        machine, grid, proj = side_models_reference(st)
        c_m = contributions(st.i_m_dq, machine, u_m, proj[0])
        c_n = contributions(st.i_n_ab, grid, u_n, CLARKE_PINV_MAT)
        v, path = st.v_imb, []
        for a, b in zip(c_m, c_n):
            v = v + (a - b)
            path.append(v)
        return np.array(path)

    def check_against_reference(self, st, cands_m, cands_n):
        models = step_models(st)
        (want_j, im, il), paths = self.per_pair_reference(st, cands_m, cands_n, models)
        for (a, b), path in paths.items():
            want = self.one_at_a_time(st, cands_m.rows[a], cands_n.rows[b])
            assert np.array_equal(path, want)
        (got_m, got_n, j_o, got_im, got_il), plan = select(st, cands_m, cands_n)
        assert (got_im, got_il) == (im, il)
        assert got_m == cands_m.sequences[im] and got_n == cands_n.sequences[il]
        assert j_o == want_j
        # the batched rollout reproduces every per-pair path bit for bit
        batched = plan.paths
        assert batched.shape == (len(cands_m), len(cands_n), cands_m.horizon)
        for (a, b), path in paths.items():
            assert np.array_equal(batched[a, b], path)
        return im, il

    @pytest.mark.parametrize("n_h", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_batched_stage_equals_per_pair_reference_exactly(self, n_h, k, rng):
        for _ in range(6):
            st = self.make_state(
                rng.normal(0, 15, 2), rng.normal(0, 15, 2), v_imb=rng.normal(0, 2),
                omega_m=rng.uniform(-150, 150), theta=rng.uniform(0, 2 * math.pi),
            )
            k_n = int(rng.integers(1, k + 1))
            cands_m = self.listify([rng.integers(-1, 2, 3 * n_h) for _ in range(k)])
            cands_n = self.listify([rng.integers(-1, 2, 3 * n_h) for _ in range(k_n)])
            self.check_against_reference(st, cands_m, cands_n)

    @pytest.mark.parametrize("n_h", [1, 2, 3])
    def test_duplicates_and_exact_ties_keep_lowest_indices(self, n_h, rng):
        # a repeated sequence scores exactly like its first copy, and so does
        # one whose last block is negated: the last block's signs never reach
        # the predicted imbalance (only |switch| and the states before it do)
        for _ in range(6):
            st = self.make_state(
                rng.normal(0, 15, 2), rng.normal(0, 15, 2), v_imb=rng.normal(0, 2),
                omega_m=rng.uniform(-150, 150), theta=rng.uniform(0, 2 * math.pi),
            )
            sides = []
            for _ in range(2):
                base = [rng.integers(-1, 2, 3 * n_h) for _ in range(3)]
                twins = [np.concatenate([lv[:-3], -lv[-3:]]) for lv in base]
                levels = base + twins + base
                sides.append(self.listify(levels))
            im, il = self.check_against_reference(st, *sides)
            assert im < 3 and il < 3

    def test_effort_matrices_are_shared_and_read_only(self):
        from seqmpc.prediction import effort_maps
        from seqmpc.solver import effort_gram

        for n_h in (1, 2, 3):
            plan = step_plan(machine_state(120.0, 0.4), n_h)
            diff, prev = effort_maps(n_h)
            assert effort_maps(n_h)[0] is diff and effort_maps(n_h)[1] is prev
            gram = effort_gram(n_h, 0.1)
            assert effort_gram(n_h, 0.1) is gram
            assert np.array_equal(gram, 0.1 * (diff.T @ diff))
            for arr in (diff, prev, gram):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 5.0
            quad, _ = condense(0.1, plan)
            for i in range(2):
                forced = plan.forced_map[i]
                assert np.array_equal(quad[i], forced.T @ forced + 0.1 * (diff.T @ diff))

    def test_horizon_mismatch_raises(self):
        st = self.make_state([1.0, 0.0], [0.0, 1.0])
        one = self.listify([np.zeros(3, dtype=int)])
        two = self.listify([np.zeros(6, dtype=int)])
        with pytest.raises(SequenceError, match="horizon"):
            select(st, one, two)
