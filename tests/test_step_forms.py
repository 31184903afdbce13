"""The control step's rewritten expressions against the NumPy forms they
replaced, byte for byte.

Each step of the controller makes far fewer NumPy calls than it once did,
while every BLAS and LAPACK product still runs on the same per-item operands
and layout.  The replaced forms are kept here as the references, as
`loop_cholesky` and `sum_outside_box` are kept for the kernels, and each
rewrite is compared with its reference on random inputs and on the recorded
steps of perfbench's `steady` and `sweep` scenarios (`recorded_steps` in
conftest.py).
"""

import itertools
import math

import numpy as np
import pytest

from seqmpc import _kernels
from seqmpc.controller import control_step, stack_reference
from seqmpc.plant import LEVELS, DcLinkState, GridParams, MachineParams, MechState, PlantState
from seqmpc.prediction import (
    build_multistep,
    build_step_models,
    effort_maps,
    imbalance_contributions,
    imbalance_path,
)
from seqmpc.solver import (
    assemble_qp,
    condense,
    effort_gram,
    reverse_cholesky,
)
from test_kernels import loop_cholesky

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


def imbalance_path_reference(v_imb0, contrib_m, contrib_n):
    step = contrib_m[:, None, :] - contrib_n[None, :, :]
    step[:, :, 0] += v_imb0
    return np.cumsum(step, axis=2)


def control_step_reference(st, cfg, refs, machine, grid, u_prev_m, u_prev_n, t_s, c_dc):
    """The decision by the replaced forms, np.linalg.solve and an int level
    stack padded with zero rows: (applied blocks, sequences, costs, score,
    nodes)."""
    models = build_step_models(st, machine, grid, t_s, c_dc)
    n_h = cfg.n_h
    multi = build_multistep(models.sides, n_h)
    x0 = np.array((st.i_m_dq, st.i_n_ab))
    u_prev = np.array([u.as_array() for u in (u_prev_m, u_prev_n)])
    quad, lin = condense_reference(multi, x0, stack_reference(refs, n_h), u_prev, cfg.lam)
    factor = reverse_cholesky_reference(quad)
    target = (factor @ np.linalg.solve(quad, lin[..., None]))[..., 0]
    lists = [_kernels.sd_search(factor[i], target[i], min(k, 3 ** (3 * n_h)))
             for i, k in enumerate((cfg.n_k, cfg.n_l))]
    (best_m, nodes_m, _), (best_n, nodes_n, _) = lists
    levels = np.zeros((2, max(len(best_m), len(best_n)), 3 * n_h), dtype=np.int64)
    levels[0, : len(best_m)] = [lv for _, lv in best_m]
    levels[1, : len(best_n)] = [lv for _, lv in best_n]
    contrib = imbalance_contributions(x0, models.sides, levels, models.proj, models.gain)
    paths = imbalance_path_reference(
        st.dc.v_imb, contrib[0, : len(best_m)], contrib[1, : len(best_n)]
    ).reshape(-1, n_h)
    scores = (paths[:, None, :] @ paths[:, :, None])[:, 0, 0]
    im, il = divmod(int(scores.argmin()), len(best_n))
    (j_m, u_m), (j_n, u_n) = best_m[im], best_n[il]
    return u_m[:3], u_n[:3], u_m, u_n, j_m, j_n, float(scores.min()), nodes_m, nodes_n


# ---------------------------------------------------------------------------
# random and recorded inputs
# ---------------------------------------------------------------------------


def random_state(rng):
    return PlantState(
        i_m_dq=tuple(rng.normal(0, 20, 2).tolist()),
        i_n_ab=tuple(rng.normal(0, 20, 2).tolist()),
        dc=DcLinkState(float(rng.uniform(600, 800)), float(rng.uniform(-5, 5))),
        mech=MechState(float(rng.uniform(-200, 200)), float(rng.uniform(0, 2 * math.pi))),
        t=float(rng.uniform(0, 0.02)),
    )


def step_subproblems(args):
    """(models, multistep model, x0, y_ref, u_prev) of a recorded step, as
    the controller builds them."""
    st, cfg, refs, machine, grid, u_prev_m, u_prev_n, t_s, c_dc = args
    models = build_step_models(st, machine, grid, t_s, c_dc)
    u_prev = np.array([u.as_array() for u in (u_prev_m, u_prev_n)])
    return (models, build_multistep(models.sides, cfg.n_h), models.x0,
            stack_reference(refs, cfg.n_h), u_prev)


def test_recorded_steps_cover_both_scenarios(recorded_steps):
    labels = {label for label, _ in recorded_steps}
    assert len(recorded_steps) == 200 and "steady" in labels
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
            qp = assemble_qp(multi, x0, y_ref, u_prev, args[1].lam)
            assert qp.factor.tobytes() == reverse_cholesky_reference(qp.quad).tobytes()
            assert qp.factor.flags.c_contiguous
            assert all(side.factor.flags.c_contiguous for side in qp.sides())


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
            got = imbalance_path(st.dc.v_imb, contrib[0], contrib[1])
            want = imbalance_path_reference(st.dc.v_imb, contrib[0], contrib[1])
            assert got.tobytes() == want.tobytes()


class TestControlStep:
    def test_step_models_stack_the_states(self, recorded_steps):
        for _, args in recorded_steps:
            st = args[0]
            models, *_ = step_subproblems(args)
            assert models.x0.tobytes() == np.array((st.i_m_dq, st.i_n_ab)).tobytes()

    def test_decision_equals_the_reference_forms_on_recorded_steps(self, recorded_steps):
        for _, args in recorded_steps:
            d = control_step(*args)
            got = (
                tuple(d.s_m.as_array().tolist()), tuple(d.s_n.as_array().tolist()),
                d.full_u_m.as_tuple(), d.full_u_n.as_tuple(),
                d.j_m, d.j_n, d.j_o, d.nodes_m, d.nodes_n,
            )
            # repr tells -0.0 from 0.0 and compares every float to the bit
            assert repr(got) == repr(control_step_reference(*args))
