"""The control step's rewritten expressions against the NumPy forms they
replaced, byte for byte.

Each step of the controller makes far fewer NumPy calls than it once did,
while every BLAS and LAPACK product still runs on the same per-item operands
and layout.  The replaced forms are kept here as the references, as
`loop_cholesky` and `sum_outside_box` are kept for the kernels, and each
rewrite is compared with its reference on random inputs and on the recorded
steps of perfbench's `steady`, `sweep` and `startup` scenarios
(`recorded_steps` in conftest.py).  Among the rewrites: single-matrix
products through `ndarray.dot`, the first power A^1 as a copy of A, the
products over an empty stage axis at N = 1 skipped, the references and the
previous levels written from Python values into the plan, and the k-best
lists built from the walk's (cost, levels) tuples.
"""

import itertools
import math

import numpy as np
import pytest

from seqmpc import _kernels, solver
from seqmpc.controller import control_step
from seqmpc.plant import LEVELS, GridParams, MachineParams, PlantState
from seqmpc.prediction import (
    CLARKE_MAT,
    CLARKE_PINV_MAT,
    LinearSubsystem,
    StepPlan,
    build_multistep,
    build_step_models,
    effort_maps,
    imbalance_contributions,
    imbalance_path,
)
from seqmpc.solver import (
    CandidateList,
    assemble_qp,
    condense,
    effort_gram,
    k_best,
    reverse_cholesky,
)
from test_kernels import loop_cholesky
from test_step_plan import traced

MACHINE = MachineParams(0.1379, 0.019, 0.42675, 3)
GRID = GridParams(0.156, 0.020, 250.0, 100.0 * math.pi)
T_S = 50e-6
C_DC = 1100e-6

#: every switch block a converter side can apply
BLOCKS = np.array(list(itertools.product(LEVELS, repeat=3)), dtype=np.int64)


# ---------------------------------------------------------------------------
# the replaced forms
# ---------------------------------------------------------------------------


def condense_reference(m, x0, y_ref, u_prev, weight):
    """(quad, lin) with the residual formed as a flat vector."""
    forced_t = m.forced_map.swapaxes(-1, -2)
    residual = (m.free_map @ np.asarray(x0, float)[..., None])[..., 0] + m.drift_vec - y_ref
    quad = forced_t @ m.forced_map + effort_gram(m.horizon, weight)
    diff, prev = effort_maps(m.horizon)
    lin = -(forced_t @ residual[..., None]) + weight * (diff.T @ (prev @ u_prev[..., None]))
    return quad, lin[..., 0]


def reverse_cholesky_reference(q):
    """Each item's loop factor of the index-reversed matrix written into the
    stack through a flipped view."""
    n = q.shape[-1]
    factor = np.empty_like(q)
    for q_i, h_i in zip(q.reshape(-1, n, n), factor.reshape(-1, n, n)):
        low, pivot = loop_cholesky(q_i[::-1, ::-1].tolist())
        assert pivot < 0
        h_i.T[::-1, ::-1] = low
    return factor


def multistep_products_reference(d, n_h):
    """(powers, products) of `build_multistep` by the products it once ran:
    A^1 as A @ I, and the drift's later stages and running sums also over
    the empty stage axis at N = 1; the products as the plan lays them out
    (`prediction._product_shapes`), blocks, C A^d and C times the drift
    sums."""
    a, b, c = d.state_mat, d.input_mat, d.output_mat
    powers = np.empty((n_h + 1,) + a.shape[:-2] + (2, 2))
    powers[0] = np.eye(2)
    for r in range(n_h):
        np.matmul(a, powers[r], out=powers[r + 1])
    c_powers = np.matmul(c, powers)
    blocks = np.zeros((n_h + 1,) + c_powers.shape[1:-1] + (3,))
    np.matmul(c_powers[:n_h], b, out=blocks[:n_h])
    drift_sums = np.empty((n_h,) + a.shape[:-2] + (2, 1))
    drift_sums[0] = d.drift[..., None]
    np.matmul(powers[1:n_h], d.drift[..., None], out=drift_sums[1:])
    np.add.accumulate(drift_sums, axis=0, out=drift_sums)
    products = np.concatenate([blocks.ravel(), c_powers.ravel(), np.matmul(c, drift_sums).ravel()])
    return powers, products


def imbalance_contributions_reference(x0, model, levels, proj, gain):
    """The rollout with fresh arrays, every product also over the empty
    stage axis at N = 1."""
    k, n = levels.shape[-2], levels.shape[-1] // 3
    blocks = np.asarray(levels, float).reshape(levels.shape[:-1] + (n, 3, 1))
    driven = np.matmul(model.input_mat[..., None, None, :, :], blocks[..., : n - 1, :, :])
    states = np.empty(levels.shape[:-1] + (n, 2, 1))
    np.moveaxis(states[..., 0, :, 0], -2, 0)[...] = x0
    for j in range(n - 1):
        carry = np.matmul(model.state_mat[..., None, :, :], states[..., j, :, :])
        states[..., j + 1, :, :] = (carry + driven[..., j, :, :]) + model.drift[..., None, :, None]
    currents = np.matmul(proj[..., None, None, :, :], states)
    dots = np.matmul(np.abs(blocks).swapaxes(-1, -2), currents)
    return dots[..., 0, 0] * gain


def stack_reference_reference(i_q_ref, p_ref, n_h):
    """The stacked references, (2, 2N), as one array from the nested tuples
    of the dq current reference (0, i_q_ref) and the power reference
    (p_ref, 0)."""
    return np.array(((0.0, i_q_ref) * n_h, (p_ref, 0.0) * n_h), dtype=float)


def candidate_list_reference(best, horizon, nodes):
    """(levels bytes, costs, nodes) of a list built the old way: the walk's
    levels stacked by `np.array`, its costs as a list."""
    costs, levels = zip(*best)
    return np.array(levels, dtype=np.int64).tobytes(), list(costs), nodes


def imbalance_path_reference(v_imb0, contrib_m, contrib_n):
    step = contrib_m[:, None, :] - contrib_n[None, :, :]
    step[:, :, 0] += v_imb0
    return np.cumsum(step, axis=2)


def control_step_reference(st, cfg, i_q_ref, p_ref, machine, grid, u_prev_m, u_prev_n, t_s,
                           c_dc):
    """The decision by the replaced forms, np.linalg.solve and an int level
    stack padded with zero rows: (applied blocks, ranks, chosen rows, costs,
    score, nodes)."""
    models = build_step_models(st, machine, grid, t_s, c_dc)
    n_h = cfg.n_h
    multi = build_multistep(models.sides, n_h)
    x0 = np.array((st.i_m_dq, st.i_n_ab))
    u_prev = np.array((u_prev_m, u_prev_n))
    y_ref = stack_reference_reference(i_q_ref, p_ref, n_h)
    quad, lin = condense_reference(multi, x0, y_ref, u_prev, cfg.lam)
    factor = reverse_cholesky_reference(quad)
    target = (factor @ np.linalg.solve(quad, lin[..., None]))[..., 0]
    lists = [_kernels.sd_search(factor[i].ravel().tolist(), target[i].tolist(),
                                min(k, 3 ** (3 * n_h)))
             for i, k in enumerate((cfg.n_k, cfg.n_l))]
    (best_m, nodes_m, _), (best_n, nodes_n, _) = lists
    levels = np.zeros((2, max(len(best_m), len(best_n)), 3 * n_h), dtype=np.int64)
    levels[0, : len(best_m)] = [lv for _, lv in best_m]
    levels[1, : len(best_n)] = [lv for _, lv in best_n]
    contrib = imbalance_contributions(x0, models.sides, levels, models.proj, models.gain)
    paths = imbalance_path_reference(
        st.v_imb, contrib[0, : len(best_m)], contrib[1, : len(best_n)]
    ).reshape(-1, n_h)
    scores = (paths[:, None, :] @ paths[:, :, None])[:, 0, 0]
    im, il = divmod(int(scores.argmin()), len(best_n))
    (j_m, u_m), (j_n, u_n) = best_m[im], best_n[il]
    return u_m[:3], u_n[:3], im, il, u_m, u_n, j_m, j_n, float(scores.min()), nodes_m, nodes_n


# ---------------------------------------------------------------------------
# random and recorded inputs
# ---------------------------------------------------------------------------


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


def step_subproblems(args):
    """(models, multistep model, x0, y_ref, u_prev) of a recorded step, as
    the controller builds them."""
    st, cfg, i_q_ref, p_ref, machine, grid, u_prev_m, u_prev_n, t_s, c_dc = args
    models = build_step_models(st, machine, grid, t_s, c_dc)
    u_prev = np.array((u_prev_m, u_prev_n))
    return (models, build_multistep(models.sides, cfg.n_h), models.x0,
            stack_reference_reference(i_q_ref, p_ref, cfg.n_h), u_prev)


def test_recorded_steps_cover_both_scenarios(recorded_steps):
    labels = {label for label, _ in recorded_steps}
    assert len(recorded_steps) == 225 and {"steady", "startup"} <= labels
    assert {args[1].n_h for _, args in recorded_steps} == {1, 2, 3}
    assert {args[1].mode for _, args in recorded_steps} == {"sequential", "standard_sd"}


# ---------------------------------------------------------------------------
# pins
# ---------------------------------------------------------------------------


class TestCondense:
    @pytest.mark.parametrize("n_h", range(1, 7))
    def test_equals_the_multiplied_out_form_on_random_steps(self, n_h, rng):
        for _ in range(40):
            models = build_step_models(random_state(rng), MACHINE, GRID, T_S, C_DC)
            multi = build_multistep(models.sides, n_h)
            y_ref = np.array((np.tile(rng.normal(0, 15, 2), n_h), np.tile(rng.normal(0, 3000, 2), n_h)))
            u_prev = rng.integers(-1, 2, (2, 3))
            weight = float(rng.uniform(0.01, 1.0))
            for got, want in zip(condense(multi, models.x0, y_ref, u_prev, weight),
                                 condense_reference(multi, models.x0, y_ref, u_prev, weight)):
                assert got.tobytes() == want.tobytes()

    def test_equals_the_multiplied_out_form_on_recorded_steps(self, recorded_steps):
        for _, args in recorded_steps:
            _, multi, x0, y_ref, u_prev = step_subproblems(args)
            lam = args[1].lam
            for got, want in zip(condense(multi, x0, y_ref, u_prev, lam),
                                 condense_reference(multi, x0, y_ref, u_prev, lam)):
                assert got.tobytes() == want.tobytes()


class TestEffortTerm:
    """condense writes the effort term's part of lin as weight * u_prev in
    the first stage and +0.0 after it; the reference multiplies out
    weight * diff' (prev u_prev)."""

    @pytest.mark.parametrize("n_h", range(1, 7))
    def test_lin_equals_the_difference_map_form_for_every_level_triple(self, n_h, rng):
        models = build_step_models(random_state(rng), MACHINE, GRID, T_S, C_DC)
        stacked = build_multistep(models.sides, n_h)
        alone = [build_multistep(side, n_h) for side in (models.machine, models.grid)]
        x0 = models.x0
        # a reference equal to the free response leaves a zero residual, so
        # lin is the effort term alone, zero signs included
        free = (stacked.free_map @ x0[..., None])[..., 0] + stacked.drift_vec
        random_ref = np.array((np.tile(rng.normal(0, 15, 2), n_h),
                               np.tile(rng.normal(0, 3000, 2), n_h)))
        for y_ref, weight in ((random_ref, 0.1), (free, 0.1), (free, 0.0)):
            for u_m, u_n in zip(BLOCKS, BLOCKS[::-1]):
                u_prev = np.array((u_m, u_n))
                got = condense(stacked, x0, y_ref, u_prev, weight)[1]
                want = condense_reference(stacked, x0, y_ref, u_prev, weight)[1]
                assert got.tobytes() == want.tobytes()
                for i, m in enumerate(alone):
                    got = condense(m, x0[i], y_ref[i], u_prev[i], weight)[1]
                    want = condense_reference(m, x0[i], y_ref[i], u_prev[i], weight)[1]
                    assert got.tobytes() == want.tobytes()


class TestReverseCholesky:
    def test_equals_the_per_side_flip_on_random_stacks(self, rng):
        for n, m in itertools.product((1, 3, 6, 9, 18), (1, 2, 3)):
            b = rng.normal(size=(m, n, n))
            q = b @ b.swapaxes(-1, -2) + n * np.eye(n)
            got = reverse_cholesky(q)
            assert got.tobytes() == reverse_cholesky_reference(q).tobytes()
            assert got.flags.c_contiguous and got.shape == q.shape
        q = q[0]
        assert reverse_cholesky(q).tobytes() == reverse_cholesky_reference(q).tobytes()

    def test_assembled_factor_equals_the_per_side_flip_and_is_c_contiguous(self, recorded_steps):
        # `target = factor @ unconstrained` takes another gemv path on a
        # strided factor, so its layout is part of the result
        for _, args in recorded_steps:
            _, multi, x0, y_ref, u_prev = step_subproblems(args)
            plan = StepPlan(args[1].n_h)
            qp = assemble_qp(multi, x0, y_ref, u_prev, args[1].lam, plan)
            assert qp.factor.tobytes() == reverse_cholesky_reference(qp.quad).tobytes()
            assert qp.factor.flags.c_contiguous
            assert all(side.factor.flags.c_contiguous for side in plan.qp_items)


class TestSolve:
    def test_numpy_keeps_the_gufunc_behind_np_linalg_solve(self):
        from numpy.linalg import _umath_linalg

        gufunc = getattr(_umath_linalg, "solve", None)
        assert gufunc is not None, f"NumPy {np.__version__} has no _umath_linalg.solve"
        assert gufunc.signature == "(m,m),(m,n)->(m,n)", gufunc.signature
        assert "dd->d" in gufunc.types, gufunc.types

    def test_gufunc_equals_np_linalg_solve_on_recorded_steps(self, recorded_steps):
        for _, args in recorded_steps:
            _, multi, x0, y_ref, u_prev = step_subproblems(args)
            qp = assemble_qp(multi, x0, y_ref, u_prev, args[1].lam)
            want = np.linalg.solve(qp.quad, qp.lin[..., None])[..., 0]
            assert qp.unconstrained.tobytes() == want.tobytes()
            assert qp.target.tobytes() == (qp.factor @ want[..., None])[..., 0].tobytes()

    def test_gufunc_equals_np_linalg_solve_on_a_single_random_side(self, rng):
        for n_h in range(1, 7):
            models = build_step_models(random_state(rng), MACHINE, GRID, T_S, C_DC)
            multi = build_multistep(models.machine, n_h)
            qp = assemble_qp(multi, models.x0[0], np.tile(rng.normal(0, 15, 2), n_h),
                             rng.integers(-1, 2, 3), 0.1)
            want = np.linalg.solve(qp.quad, qp.lin[..., None])[..., 0]
            assert qp.unconstrained.tobytes() == want.tobytes()


class TestImbalancePath:
    @pytest.mark.parametrize("n_h", range(1, 7))
    def test_equals_cumsum_on_random_contributions(self, n_h, rng):
        for k_m, k_n in ((1, 1), (4, 4), (3, 10)):
            contrib_m = rng.normal(0, 1e-3, (k_m, n_h))
            contrib_n = rng.normal(0, 1e-3, (k_n, n_h))
            v_imb0 = float(rng.normal(0, 2))
            got = imbalance_path(v_imb0, contrib_m, contrib_n)
            assert got.tobytes() == imbalance_path_reference(v_imb0, contrib_m, contrib_n).tobytes()

    def test_equals_cumsum_on_recorded_steps(self, recorded_steps):
        for _, args in recorded_steps:
            models, *_ = step_subproblems(args)
            st, n_h = args[0], args[1].n_h
            levels = BLOCKS[np.arange(2 * 4 * n_h) % 27].reshape(2, 4, 3 * n_h)
            contrib = imbalance_contributions(
                models.x0, models.sides, levels, models.proj, models.gain
            )
            got = imbalance_path(st.v_imb, contrib[0], contrib[1])
            want = imbalance_path_reference(st.v_imb, contrib[0], contrib[1])
            assert got.tobytes() == want.tobytes()


class TestControlStep:
    def test_step_models_stack_the_states(self, recorded_steps):
        for _, args in recorded_steps:
            st = args[0]
            models, *_ = step_subproblems(args)
            assert models.x0.tobytes() == np.array((st.i_m_dq, st.i_n_ab)).tobytes()

    def test_decision_equals_the_reference_forms_on_recorded_steps(self, recorded_steps):
        for _, args in recorded_steps:
            d, (cands_m, cands_n), _ = traced(args, None)
            got = (
                d.s_m, d.s_n, d.rank_m, d.rank_n,
                cands_m.rows[d.rank_m], cands_n.rows[d.rank_n],
                d.j_m, d.j_n, d.j_o, d.nodes_m, d.nodes_n,
            )
            # repr tells -0.0 from 0.0 and compares every float to the bit
            assert repr(got) == repr(control_step_reference(*args))


def random_model(rng, lead):
    """A discretized model with the entries `discretize` gives a state map,
    1.0 + x on the diagonal and 0.0 + x off it, some of them +0.0."""
    state = rng.normal(0, 1e-2, lead + (2, 2))
    state[rng.random(state.shape) < 0.3] = 0.0
    state = state + np.eye(2)
    return LinearSubsystem(state, rng.normal(0, 1e3, lead + (2, 3)) * 5e-5,
                           rng.normal(0, 10, lead + (2,)), rng.normal(0, 300, lead + (2, 2)))


class TestSingleMatrixProducts:
    """`build_step_models` runs `park @ CLARKE_MAT` and
    `CLARKE_PINV_MAT @ park.T` through `ndarray.dot`, the same gemm as
    `np.matmul`."""

    def test_dot_equals_matmul_on_recorded_steps(self, recorded_steps):
        plan = StepPlan(1)
        for _, args in recorded_steps:
            st, _, _, _, machine, grid, _, _, t_s, c_dc = args
            models = build_step_models(st, machine, grid, t_s, c_dc, plan)
            assert plan.park_clarke.tobytes() == np.matmul(plan.park, CLARKE_MAT).tobytes()
            assert models.proj_m.tobytes() == np.matmul(CLARKE_PINV_MAT, plan.park.T).tobytes()

    def test_dot_equals_matmul_on_random_operands(self, rng):
        park_clarke, proj_m = np.empty((2, 3)), np.empty((3, 2))
        for theta in rng.uniform(-10, 10, 500):
            c, s = math.cos(theta), math.sin(theta)
            for park in (np.array([[c, s], [-s, c]]), rng.normal(size=(2, 2))):
                park.dot(CLARKE_MAT, park_clarke)
                assert park_clarke.tobytes() == np.matmul(park, CLARKE_MAT).tobytes()
                CLARKE_PINV_MAT.dot(park.T, proj_m)
                assert proj_m.tobytes() == np.matmul(CLARKE_PINV_MAT, park.T).tobytes()


class TestMultistepProducts:
    """A^1 is a copy of A, and at N = 1 the drift's later stages and its
    running sum are skipped; the powers and products must equal those of
    A @ I and of the empty products."""

    @staticmethod
    def assert_same(d, n_h):
        plan = StepPlan(n_h, lead=d.state_mat.shape[:-2])
        build_multistep(d, n_h, plan)
        powers, products = multistep_products_reference(d, n_h)
        assert plan.powers.tobytes() == powers.tobytes()
        assert plan.products.tobytes() == products.tobytes()

    def test_equals_the_products_on_recorded_steps(self, recorded_steps):
        for _, args in recorded_steps:
            models, *_ = step_subproblems(args)
            self.assert_same(models.sides, args[1].n_h)

    @pytest.mark.parametrize("n_h", range(1, 7))
    def test_equals_the_products_on_random_models(self, n_h, rng):
        for lead in ((), (2,), (3,)):
            for _ in range(20):
                self.assert_same(random_model(rng, lead), n_h)

    def test_identity_product_keeps_every_entry_but_negative_zero(self, rng):
        eye = np.eye(2)
        for _ in range(3000):
            a = random_model(rng, ()).state_mat
            assert (a @ eye).tobytes() == a.tobytes()
        # the condition the copy rests on: A @ I turns -0.0 into +0.0
        a = np.array([[1.0, -0.0], [0.0, 1.0]])
        assert (a @ eye).tobytes() != a.tobytes()

    def test_state_maps_hold_no_negative_zero(self, recorded_steps):
        for _, args in recorded_steps:
            models, *_ = step_subproblems(args)
            a = models.sides.state_mat
            assert not np.any((a == 0.0) & np.signbit(a))


class TestRolloutProducts:
    @pytest.mark.parametrize("n_h", range(1, 5))
    def test_equals_the_fresh_rollout_on_random_lists(self, n_h, rng):
        for _ in range(20):
            models = build_step_models(random_state(rng), MACHINE, GRID, T_S, C_DC)
            levels = rng.integers(-1, 2, (2, 4, 3 * n_h))
            got = imbalance_contributions(models.x0, models.sides, levels, models.proj, models.gain)
            want = imbalance_contributions_reference(
                models.x0, models.sides, levels, models.proj, models.gain)
            assert got.tobytes() == want.tobytes()

    def test_equals_the_fresh_rollout_on_recorded_steps(self, recorded_steps):
        # the plan's own models, as `select_pair` rolls them out: no copies
        for _, args in recorded_steps:
            st, cfg, _, _, machine, grid, _, _, t_s, c_dc = args
            n_h = cfg.n_h
            levels = BLOCKS[np.arange(2 * 4 * n_h) % 27].reshape(2, 4, 3 * n_h)
            plan = StepPlan(n_h, 4, 4)
            models = build_step_models(st, machine, grid, t_s, c_dc, plan)
            got = imbalance_contributions(models.x0, models.sides, levels, models.proj,
                                          models.gain, plan)
            want = imbalance_contributions_reference(
                models.x0, models.sides, levels, models.proj, models.gain)
            assert got.tobytes() == want.tobytes()


class TestPythonValueWrites:
    """The references and the previous levels go into the plan from Python
    values: the same floats as the arrays they replaced."""

    @staticmethod
    def effort(u_prev_m, u_prev_n, weight, n_h):
        """The effort's first stage as `control_step` writes it."""
        plan = StepPlan(n_h)
        u_prev = plan.u_prev
        u_prev[...] = u_prev_m, u_prev_n
        multi = build_multistep(build_step_models(
            PlantState((0.0, 0.0), (0.0, 0.0), 700.0, 0.0, 0.0, 0.0, 0.0),
            MACHINE, GRID, T_S, C_DC, plan).sides, n_h, plan)
        condense(multi, plan.x0, np.zeros((2, 2 * n_h)), u_prev, weight, plan)
        return plan.effort

    def test_effort_equals_the_multiplied_levels_on_recorded_steps(self, recorded_steps):
        for _, args in recorded_steps:
            cfg, u_prev_m, u_prev_n = args[1], args[6], args[7]
            got = self.effort(u_prev_m, u_prev_n, cfg.lam, cfg.n_h)
            want = np.zeros((2, 3 * cfg.n_h))
            want[:, :3] = np.multiply([u_prev_m, u_prev_n], cfg.lam)
            assert got.tobytes() == want.tobytes()

    def test_effort_equals_the_multiplied_levels_for_every_level_pair(self, rng):
        states = list(itertools.product(LEVELS, repeat=3))
        for weight in rng.uniform(1e-3, 10.0, 10):
            for u_m, u_n in zip(states, states[::-1]):
                got = self.effort(u_m, u_n, weight, 2)
                want = np.multiply([u_m, u_n], weight)
                assert got[:, :3].tobytes() == want.tobytes()
                assert got[:, 3:].tobytes() == np.zeros((2, 3)).tobytes()

    def test_references_equal_the_stacked_array(self, recorded_steps, rng):
        # the recorded steps' own references, Python floats, then 200 random
        # pairs and a pair of negative zeros put in their place
        steps = [args for _, args in recorded_steps]
        pairs = [args[2:4] for args in steps]
        assert all(type(v) is float for pair in pairs for v in pair)
        pairs += [tuple(pair) for pair in rng.normal(0, (20, 3e4), (200, 2)).tolist()]
        pairs.append((-0.0, -0.0))
        horizons = set()
        for i, (i_q_ref, p_ref) in enumerate(pairs):
            args = steps[i % len(steps)]
            cfg = args[1]
            plan = StepPlan(cfg.n_h, cfg.n_k, cfg.n_l)
            control_step(*args[:2], i_q_ref, p_ref, *args[4:], plan)
            assert plan.y_ref.shape == (2, 2 * cfg.n_h)
            want = stack_reference_reference(i_q_ref, p_ref, cfg.n_h)
            assert plan.y_ref.tobytes() == want.tobytes()
            horizons.add(cfg.n_h)
        assert horizons == {1, 2, 3}


class TestCandidateLists:
    """The lists are built and checked on the walk's own (cost, levels)
    tuples; the levels, costs and node counts must be those of the stack
    built the old way."""

    @staticmethod
    def assert_same(best, horizon, nodes):
        got = CandidateList(best, horizon, nodes)
        assert (np.array(got.rows, dtype=np.int64).tobytes(), got.costs, got.nodes_visited) == \
            candidate_list_reference(best, horizon, nodes)
        assert got.rows == tuple(levels for _, levels in best)

    def test_equals_the_old_stack_on_recorded_steps(self, recorded_steps, monkeypatch):
        walks = []
        sd_search = _kernels.sd_search

        def capture(h, u_check, k):
            result = sd_search(h, u_check, k)
            walks.append(result)
            return result

        monkeypatch.setattr(_kernels, "sd_search", capture)
        for _, args in recorded_steps:
            walks.clear()
            control_step(*args)
            assert len(walks) == 2
            for (best, nodes, _), n_h in zip(walks, (args[1].n_h,) * 2):
                self.assert_same(best, n_h, nodes)

    def test_equals_the_old_stack_on_random_subproblems(self, rng):
        from seqmpc.verify import random_qp_instance
        for n_h in (1, 2, 3):
            for k in (1, 4, 10):
                qp = random_qp_instance(rng, n_h)
                best, nodes, _ = _kernels.sd_search(qp.factor_list, qp.target.tolist(), k)
                self.assert_same(best, n_h, nodes)
                oracle = solver.brute_force_kbest(qp, k, n_h)
                leaves = list(zip(oracle.costs, oracle.rows))
                self.assert_same(leaves, n_h, oracle.nodes_visited)


class TestFlatFactor:
    """`assemble_qp` hands each side's factor to the decoder as the flat
    list the Cholesky kernel returned: the entries of the factor array."""

    def test_factor_lists_are_the_factor_entries(self, recorded_steps):
        for _, args in recorded_steps:
            cfg = args[1]
            plan = StepPlan(cfg.n_h, cfg.n_k, cfg.n_l)
            control_step(*args, plan)
            assert len(plan.qp_items) == 2
            for side, flat in zip(plan.qp_items, plan.factor_lists):
                assert side.factor_list is flat
                assert repr(flat) == repr(side.factor.ravel().tolist())
                assert k_best(side, 1).rows == \
                    CandidateList(_kernels.sd_search(flat, side.target.tolist(), 1)[0],
                                  side.horizon).rows
