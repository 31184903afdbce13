import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from seqmpc import _kernels
from seqmpc.plant import GridParams, MachineParams, PlantState
from seqmpc.prediction import (
    CLARKE_PINV_MAT,
    LinearSubsystem,
    SequenceError,
    SwitchSequence,
    build_grid_subsystem,
    build_machine_subsystem,
    build_multistep,
    build_step_models,
    discretize,
    effort_maps,
    imbalance_contributions,
    park_matrix,
    predict_imbalance,
    predict_outputs,
)

MACHINE = MachineParams(0.1379, 0.019, 0.42675, 3)
GRID = GridParams(0.156, 0.020, 250.0, 100.0 * math.pi)
DC = (700.0, 0.0)  # v_dc, v_imb
T_S = 50e-6
C_DC = 1100e-6


def make_state(rng=None, omega_m=80.0, theta=0.7, v_imb=0.0):
    i_m = tuple(rng.normal(0, 10, 2).tolist()) if rng is not None else (3.0, -8.0)
    i_n = tuple(rng.normal(0, 10, 2).tolist()) if rng is not None else (5.0, 2.0)
    return PlantState(
        i_m_dq=i_m,
        i_n_ab=i_n,
        v_dc=700.0,
        v_imb=v_imb,
        omega_m=omega_m,
        theta_e=theta,
        t=0.004,
    )


def step_models(st):
    return build_step_models(st, MACHINE, GRID, T_S, C_DC)


class TestSwitchSequence:
    def test_blocks_and_hash(self):
        seq = SwitchSequence((1, 0, -1, 0, 1, 1))
        assert seq.as_tuple()[:3] == (1, 0, -1) and seq.as_tuple()[3:] == (0, 1, 1)
        assert seq == SwitchSequence((1, 0, -1, 0, 1, 1))
        assert len({seq, seq}) == 1


class TestDiscretize:
    def test_integrator(self):
        sys = LinearSubsystem(np.zeros((2, 2)), np.eye(2, 3), np.zeros(2), np.eye(2))
        d = discretize(sys, T_S)
        assert_allclose(d.state_mat, np.eye(2))
        assert_allclose(d.input_mat, T_S * np.eye(2, 3))
        assert_allclose(d.drift, np.zeros(2))

    def test_grid_decay_factor(self):
        d = discretize(build_grid_subsystem(GRID, np.zeros(2), *DC), T_S)
        assert_allclose(np.diag(d.state_mat), [0.99961, 0.99961])

    def test_drift_zero_iff_source_zero(self):
        d = discretize(build_machine_subsystem(MACHINE, 0.0, *DC, 0.0), T_S)
        assert_allclose(d.drift, np.zeros(2))


class TestMachineSubsystem:
    def test_standstill_structure(self):
        sys = build_machine_subsystem(MACHINE, 0.0, *DC, 0.5)
        assert_allclose(sys.state_mat, -MACHINE.r_s / MACHINE.l_s * np.eye(2))
        assert_allclose(sys.drift, np.zeros(2))
        assert_allclose(sys.output_mat, np.eye(2))

    def test_common_mode_nullspace(self):
        # entries are O(1e4), so the nullspace holds to roundoff at that scale
        for theta in (0.0, 0.9, 4.4):
            sys = build_machine_subsystem(MACHINE, 200.0, *DC, theta)
            assert_allclose(sys.input_mat @ np.ones(3), np.zeros(2), atol=1e-9)

    def test_input_chain_matches_transforms(self):
        sys = build_machine_subsystem(MACHINE, 0.0, *DC, 0.0)
        s = np.array([1, -1, 0])
        expected = np.array(_kernels.clarke3(350.0, -350.0, 0.0)) / MACHINE.l_s
        assert_allclose(sys.input_mat @ s, expected, rtol=1e-12)


class TestGridSubsystem:
    def test_dead_source(self):
        sys = build_grid_subsystem(GRID, np.zeros(2), *DC)
        assert_allclose(sys.output_mat, np.zeros((2, 2)))
        assert_allclose(sys.drift, np.zeros(2))

    def test_output_determinant(self, rng):
        for _ in range(25):
            e = rng.normal(0, 300, 2)
            sys = build_grid_subsystem(GRID, e, *DC)
            assert np.linalg.det(sys.output_mat) == pytest.approx(
                -(e[0] ** 2 + e[1] ** 2), rel=1e-12
            )

    def test_pole_location(self):
        sys = build_grid_subsystem(GRID, _kernels.grid_emf2(0.0, GRID.e_peak, GRID.omega_n), *DC)
        assert_allclose(np.linalg.eigvals(sys.state_mat), [-7.8, -7.8])


def stacked_block_by_block(d, n_h):
    """(forced, free, drift) assembled one block at a time with 2-D products."""
    a, b, c, n = d.state_mat, d.input_mat, d.output_mat, d.drift
    powers = [np.eye(2)]
    for _ in range(n_h):
        powers.append(a @ powers[-1])
    forced = np.zeros((2 * n_h, 3 * n_h))
    free = np.zeros((2 * n_h, 2))
    drift = np.zeros(2 * n_h)
    acc = n.copy()
    for r in range(n_h):
        if r > 0:
            acc = acc + powers[r] @ n
        for col in range(r + 1):
            forced[2 * r : 2 * r + 2, 3 * col : 3 * col + 3] = c @ powers[r - col] @ b
        free[2 * r : 2 * r + 2, :] = c @ powers[r + 1]
        drift[2 * r : 2 * r + 2] = c @ acc
    return forced, free, drift


class TestMultistep:
    @pytest.mark.parametrize("n_h", [1, 2, 3, 5])
    def test_batched_stacking_equals_block_by_block_exactly(self, n_h, rng):
        for i in range(20):
            omega = 0.0 if i == 0 else rng.uniform(-400, 400)  # rest gives a -0.0 drift
            if i % 2 == 0:
                sys = build_machine_subsystem(MACHINE, omega, *DC, rng.uniform(0, 2 * math.pi))
            else:
                sys = build_grid_subsystem(GRID, rng.normal(0, 300, 2), *DC)
            d = discretize(sys, T_S)
            m = build_multistep(d, n_h)
            want = stacked_block_by_block(d, n_h)
            for got, ref in zip((m.forced_map, m.free_map, m.drift_vec), want):
                assert got.tobytes() == ref.tobytes()

    def test_single_stage_blocks(self):
        d = discretize(build_machine_subsystem(MACHINE, 150.0, *DC, 0.3), T_S)
        m = build_multistep(d, 1)
        assert_allclose(m.forced_map, d.output_mat @ d.input_mat)
        assert_allclose(m.free_map, d.output_mat @ d.state_mat)
        assert_allclose(m.drift_vec, d.output_mat @ d.drift)
        diff_mat, prev_sel = effort_maps(1)
        assert_allclose(diff_mat, np.eye(3))
        assert_allclose(prev_sel, np.eye(3))

    def test_identity_transition_stacks_input_blocks(self):
        d = LinearSubsystem(np.eye(2), np.arange(6.0).reshape(2, 3), np.zeros(2), np.eye(2))
        m = build_multistep(d, 2)
        cb = d.input_mat
        assert_allclose(m.forced_map[:2, :3], cb)
        assert_allclose(m.forced_map[:2, 3:], np.zeros((2, 3)))
        assert_allclose(m.forced_map[2:, :3], cb)
        assert_allclose(m.forced_map[2:, 3:], cb)

    def test_constant_sequence_has_zero_effort(self, rng):
        for n_h in (1, 2, 4):
            diff_mat, prev_sel = effort_maps(n_h)
            u = rng.integers(-1, 2, 3)
            stacked = np.tile(u, n_h)
            assert_allclose(diff_mat @ stacked - prev_sel @ u, np.zeros(3 * n_h))

    @pytest.mark.parametrize("n_h", [1, 2, 3, 5])
    def test_stacked_equals_iterated(self, n_h, rng):
        # the condensed map must reproduce stage-by-stage iteration exactly
        for _ in range(20):
            if rng.random() < 0.5:
                sys = build_machine_subsystem(
                    MACHINE, rng.uniform(-400, 400), *DC, rng.uniform(0, 2 * math.pi)
                )
            else:
                sys = build_grid_subsystem(GRID, rng.normal(0, 300, 2), *DC)
            d = discretize(sys, T_S)
            m = build_multistep(d, n_h)
            x0 = rng.normal(0, 10, 2)
            levels = rng.integers(-1, 2, 3 * n_h)
            stacked = predict_outputs(m, x0, levels)
            x = x0.copy()
            rows = []
            for j in range(n_h):
                x = d.state_mat @ x + d.input_mat @ levels[3 * j : 3 * j + 3] + d.drift
                rows.append(d.output_mat @ x)
            iterated = np.concatenate(rows)
            scale = max(1.0, np.abs(iterated).max())
            assert_allclose(stacked, iterated, rtol=0, atol=1e-9 * scale)


def random_state(rng, omega_m=None):
    return PlantState(
        i_m_dq=tuple(rng.normal(0, 20, 2).tolist()),
        i_n_ab=tuple(rng.normal(0, 20, 2).tolist()),
        v_dc=float(rng.uniform(600, 800)),
        v_imb=float(rng.uniform(-5, 5)),
        omega_m=float(rng.uniform(-200, 200)) if omega_m is None else omega_m,
        theta_e=float(rng.uniform(0, 2 * math.pi)),
        t=float(rng.uniform(0, 0.02)),
    )


class TestStepModels:
    FIELDS = ("state_mat", "input_mat", "drift", "output_mat")

    @staticmethod
    def per_side(st, machine, grid):
        """Each side built and discretized on its own, then stacked."""
        m = discretize(
            build_machine_subsystem(
                machine, machine.pole_pairs * st.omega_m, st.v_dc, st.v_imb, st.theta_e
            ),
            T_S,
        )
        e_ab = _kernels.grid_emf2(st.t, grid.e_peak, grid.omega_n)
        n = discretize(build_grid_subsystem(grid, e_ab, st.v_dc, st.v_imb), T_S)
        proj = (CLARKE_PINV_MAT @ park_matrix(st.theta_e).T, CLARKE_PINV_MAT)
        return m, n, np.array(proj)

    def check(self, st, machine=MACHINE, grid=GRID):
        got = build_step_models(st, machine, grid, T_S, C_DC)
        m, n, proj = self.per_side(st, machine, grid)
        for name in self.FIELDS:
            want = np.array((getattr(m, name), getattr(n, name)))
            assert getattr(got.sides, name).tobytes() == want.tobytes(), name
        assert got.proj.tobytes() == proj.tobytes()
        assert got.proj_m.tobytes() == proj[0].tobytes()
        assert got.gain == T_S / C_DC

    def test_direct_build_equals_per_side_build_at_standstill(self, rng):
        # omega_e = 0 makes -0.0 entries: Ts * -omega_e and the back-EMF drift
        self.check(PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0))
        for _ in range(50):
            self.check(random_state(rng, omega_m=0.0))
        # r_n = 0 gives the grid state matrix -0.0 * 0.0 off its diagonal
        self.check(random_state(rng, omega_m=0.0), grid=GridParams(0.0, 0.02, 250.0, 100.0 * math.pi))

    def test_direct_build_equals_per_side_build_at_random_states(self, rng):
        for _ in range(300):
            self.check(random_state(rng))

    def test_sides_are_views(self, rng):
        models = step_models(random_state(rng))
        for i, side in enumerate((models.machine, models.grid)):
            for name in self.FIELDS:
                assert np.shares_memory(getattr(side, name), getattr(models.sides, name))


class TestImbalanceContributions:
    @pytest.mark.parametrize("n_h", range(1, 7))
    def test_side_stack_equals_each_side_byte_for_byte(self, n_h, rng):
        # the shorter list is padded with zero rows, as select_pair does
        for _ in range(40):
            st = random_state(rng)
            models = step_models(st)
            k_m, k_n = (int(k) for k in rng.integers(1, 11, 2))
            lv_m = rng.integers(-1, 2, (k_m, 3 * n_h))
            lv_n = rng.integers(-1, 2, (k_n, 3 * n_h))
            levels = np.zeros((2, max(k_m, k_n), 3 * n_h), dtype=np.int64)
            levels[0, :k_m] = lv_m
            levels[1, :k_n] = lv_n
            x0 = np.array((st.i_m_dq, st.i_n_ab))
            both = imbalance_contributions(x0, models.sides, levels, models.proj, models.gain)
            assert both.shape == (2, max(k_m, k_n), n_h)
            alone_m = imbalance_contributions(
                st.i_m_dq, models.machine, lv_m, models.proj_m, models.gain
            )
            alone_n = imbalance_contributions(
                st.i_n_ab, models.grid, lv_n, CLARKE_PINV_MAT, models.gain
            )
            assert both[0, :k_m].tobytes() == alone_m.tobytes()
            assert both[1, :k_n].tobytes() == alone_n.tobytes()


class TestPredictImbalance:
    def test_zero_switches_freeze_the_trajectory(self):
        st = make_state(v_imb=1.25)
        n_h = 3
        zeros = (0,) * (3 * n_h)
        path = predict_imbalance(st, zeros, zeros, step_models(st))
        assert_allclose(path, np.full(n_h, 1.25))

    def test_single_stage_matches_direct_update(self):
        st = make_state()
        u_m, u_n = (1, 0, -1), (0, 1, 1)
        path = predict_imbalance(st, u_m, u_n, step_models(st))
        gain = T_S / C_DC
        i_m_abc = CLARKE_PINV_MAT @ park_matrix(st.theta_e).T @ st.i_m_dq
        i_n_abc = CLARKE_PINV_MAT @ st.i_n_ab
        expected = st.v_imb + gain * (
            np.abs(u_m) @ i_m_abc - np.abs(u_n) @ i_n_abc
        )
        assert path.shape == (1,)
        assert path[0] == pytest.approx(expected, rel=1e-12)

    def test_machine_current_sign_flip_negates_contribution(self):
        # the one-stage update is linear in the machine current, so flipping
        # the current flips the machine contribution exactly (grid side idle)
        st = make_state()
        flipped = dataclasses.replace(st, i_m_dq=tuple(-i for i in st.i_m_dq))
        u_m, zeros = np.array([1, 0, -1]), np.zeros(3, dtype=int)
        base = predict_imbalance(st, u_m, zeros, step_models(st)) - st.v_imb
        neg = predict_imbalance(flipped, u_m, zeros, step_models(flipped)) - st.v_imb
        assert_allclose(neg, -base, rtol=1e-9)

    def test_horizon_mismatch_raises(self):
        st = make_state()
        u_m, u_n = np.zeros(3, dtype=int), np.zeros(6, dtype=int)
        with pytest.raises(SequenceError, match="horizon"):
            predict_imbalance(st, u_m, u_n, step_models(st))
