import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from seqmpc.controller import (
    MAX_HORIZON,
    ControllerConfig,
    DcLinkPi,
    ReferenceState,
    build_references,
    control_step,
    stack_reference,
)
from seqmpc.plant import GridParams, MachineParams, PlantState
from seqmpc.prediction import build_step_models, predict_imbalance
from seqmpc.solver import k_best

MACHINE = MachineParams(0.1379, 0.019, 0.42675, 3)
GRID = GridParams(0.156, 0.020, 250.0, 100.0 * math.pi)
T_S = 50e-6
C_DC = 1100e-6
PI = DcLinkPi(kp=-0.5, ki=-20.0, clamp=50.0, v_dc_ref=700.0)


def running_state(rng):
    omega_m = 100.0
    return PlantState(
        i_m_dq=tuple(rng.normal(0, 8, 2).tolist()),
        i_n_ab=tuple(rng.normal(0, 8, 2).tolist()),
        v_dc=700.0 + rng.normal(0, 2),
        v_imb=rng.normal(0, 0.5),
        omega_m=omega_m,
        theta_e=rng.uniform(0, 2 * math.pi),
        t=rng.uniform(0, 0.02),
    )


class TestControllerConfig:
    def test_standard_mode_forces_single_candidates(self):
        cfg = ControllerConfig(n_h=2, n_k=5, n_l=7, mode="standard_sd")
        assert cfg.n_k == 1 and cfg.n_l == 1

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ControllerConfig(mode="fancy")

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ControllerConfig(n_h=0)

    def test_rejects_horizon_beyond_decoder_depth(self):
        # 3 * 6 = 18 decoder layers compile, 21 would not
        assert MAX_HORIZON == 6
        assert ControllerConfig(n_h=MAX_HORIZON).n_h == MAX_HORIZON
        with pytest.raises(ValueError, match="n_h must be <= 6: .* nested loops"):
            ControllerConfig(n_h=MAX_HORIZON + 1)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_effort_weight(self, lam):
        # the common-mode direction makes the lam = 0 Gram matrix singular
        with pytest.raises(ValueError):
            ControllerConfig(lam=lam)


class TestBuildReferences:
    def test_all_zero_at_equilibrium(self):
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        out = build_references(st, MACHINE, PI, 0.0, 0.0, 0.0, T_S)
        assert out.i_dq_ref == (0.0, 0.0)
        assert out.pq_ref == (0.0, 0.0)
        assert out.integral == 0.0

    def test_torque_inversion(self):
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        out = build_references(st, MACHINE, PI, 19.20375, 0.0, 0.0, T_S)
        assert out.i_dq_ref[0] == 0.0
        assert out.i_dq_ref[1] == pytest.approx(10.0)

    def test_proportional_term(self):
        st = PlantState.initial(v_dc=690.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        pi = dataclasses.replace(PI, kp=0.5, ki=0.0)
        out = build_references(st, MACHINE, pi, 0.0, 0.0, 0.0, dt=1e-6)
        i_g_ref = out.pq_ref[0] / st.v_dc
        assert i_g_ref == pytest.approx(5.0)

    def test_integral_accumulates_and_clamps(self):
        st = PlantState.initial(v_dc=600.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        pi = dataclasses.replace(PI, kp=0.0)
        refs = ReferenceState()
        for _ in range(10):
            refs = build_references(st, MACHINE, pi, 0.0, 0.0, refs.integral, dt=0.01)
        # 100 V error for 0.1 s -> raw integral 10, bounded by clamp/|ki| = 2.5
        assert refs.integral == pytest.approx(2.5)
        assert abs(refs.pq_ref[0] / st.v_dc) <= 50.0

    def test_power_feedforward(self):
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        pi = dataclasses.replace(PI, kp=0.0, ki=0.0)
        out = build_references(st, MACHINE, pi, 20.0, 110.0, 0.0, T_S)
        assert out.pq_ref[0] == pytest.approx(110.0 * 20.0)
        assert out.pq_ref[1] == 0.0


def np_clip_references(st, machine, pi, t_e_ref, omega_m_ref, integral, dt):
    """(integral, i_dq_ref, pq_ref) of `build_references`, clamped with
    `np.clip` instead of `min(max(x, lo), hi)`."""
    i_q_ref = t_e_ref / (1.5 * machine.pole_pairs * machine.psi_pm)
    err = pi.v_dc_ref - st.v_dc
    integral = integral + dt * err
    if pi.ki != 0.0:
        bound = abs(pi.clamp / pi.ki)
        integral = float(np.clip(integral, -bound, bound))
    i_g_ref = float(np.clip(pi.kp * err + pi.ki * integral, -pi.clamp, pi.clamp))
    p_ref = st.v_dc * i_g_ref + omega_m_ref * t_e_ref
    return integral, (0.0, i_q_ref), (p_ref, 0.0)


SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.5, -2.5, 1e300)


class TestClampsMatchNpClip:
    """The scalar clamps `min(max(x, lo), hi)` give `np.clip`'s value and
    sign on NaN, signed zeros, infinities and the bounds themselves."""

    @pytest.mark.parametrize("bound", [60.0, 0.0, math.inf, 5e-324])
    def test_torque_reference_clamp(self, bound):
        # the form of run_scenario's t_e_ref clamp, bounds +-t_e_max
        for x in SPECIAL + (bound, -bound):
            want = float(np.clip(x, -bound, bound))
            assert repr(float(min(max(x, -bound), bound))) == repr(want)

    def test_build_references(self):
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        grid = itertools.product(
            SPECIAL,                               # integral
            (700.0, 600.0, 800.0, math.inf, -math.inf, math.nan),  # v_dc_ref
            (50.0, 0.0, -0.0, math.inf, -50.0),   # pi_clamp, zero included
            (-20.0, 20.0, 0.0),                    # pi_ki
            (-0.5, 0.0, -0.0),                     # pi_kp
        )
        for integral, v_dc_ref, pi_clamp, pi_ki, pi_kp in grid:
            pi = DcLinkPi(kp=pi_kp, ki=pi_ki, clamp=pi_clamp, v_dc_ref=v_dc_ref)
            args = (st, MACHINE, pi, 10.0, -0.0, integral, T_S)
            out = build_references(*args)
            got = (out.integral, out.i_dq_ref, out.pq_ref)
            assert repr(got) == repr(np_clip_references(*args))


class TestStackReference:
    def test_single_stage(self):
        refs = ReferenceState(i_dq_ref=(0.0, 4.0), pq_ref=(100.0, 0.0))
        y_m, y_n = stack_reference(refs, 1)
        assert_allclose(y_m, [0.0, 4.0])
        assert_allclose(y_n, [100.0, 0.0])

    def test_repeats_over_horizon(self):
        refs = ReferenceState(i_dq_ref=(0.0, 4.0), pq_ref=(100.0, 0.0))
        y_m, y_n = stack_reference(refs, 3)
        assert y_m.shape == (6,)
        assert_allclose(y_m, [0.0, 4.0] * 3)
        assert_allclose(y_n, [100.0, 0.0] * 3)

    def test_length_scales_with_horizon(self):
        refs = ReferenceState()
        for n_h in (1, 2, 5):
            y_m, y_n = stack_reference(refs, n_h)
            assert y_m.shape == (2 * n_h,) and y_n.shape == (2 * n_h,)


class TestControlStep:
    def test_standard_mode_equals_single_candidate_sequential(self, rng):
        for _ in range(10):
            st = running_state(rng)
            refs_k = build_references(st, MACHINE, PI, 15.0, 100.0, 0.0, T_S)
            seq = control_step(
                st, ControllerConfig(n_h=2, n_k=1, n_l=1), refs_k,
                MACHINE, GRID, (0, 0, 0), (0, 0, 0), T_S, C_DC,
            )
            std = control_step(
                st, ControllerConfig(n_h=2, mode="standard_sd"), refs_k,
                MACHINE, GRID, (0, 0, 0), (0, 0, 0), T_S, C_DC,
            )
            assert seq.full_u_m == std.full_u_m
            assert seq.full_u_n == std.full_u_n
            assert seq.s_m == std.s_m and seq.s_n == std.s_n

    def test_quiet_plant_yields_zero_decision(self):
        # zero state, dead grid source and references equal to the free
        # response make the all-off sequence exactly optimal on both sides
        quiet_grid = GridParams(0.156, 0.020, 0.0, 100.0 * math.pi)
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        refs = build_references(st, MACHINE, PI, 0.0, 0.0, 0.0, T_S)
        out = control_step(
            st, ControllerConfig(n_h=2, n_k=3, n_l=3), refs,
            MACHINE, quiet_grid, (0, 0, 0), (0, 0, 0), T_S, C_DC,
        )
        assert out.s_m == (0, 0, 0)
        assert out.s_n == (0, 0, 0)
        assert (out.full_u_m.levels == 0).all()
        assert (out.full_u_n.levels == 0).all()

    def test_applied_block_heads_the_sequence(self, rng):
        for _ in range(10):
            st = running_state(rng)
            refs_k = build_references(st, MACHINE, PI, 10.0, 90.0, 0.0, T_S)
            out = control_step(
                st, ControllerConfig(n_h=2, n_k=3, n_l=2), refs_k,
                MACHINE, GRID, (0, 0, 0), (0, 0, 0), T_S, C_DC,
            )
            # the applied blocks are level tuples of three Python ints
            for s, seq in ((out.s_m, out.full_u_m), (out.s_n, out.full_u_n)):
                assert type(s) is tuple and len(s) == 3
                assert all(type(v) is int for v in s)
                assert s == tuple(seq.levels[:3].tolist())

    def test_pair_is_imbalance_optimal_over_candidate_product(self, rng):
        # rebuild the candidate lists independently and check the decision
        # minimizes the predicted imbalance norm over every pair
        from seqmpc.controller import build_references as _build
        from seqmpc import _kernels
        from seqmpc.prediction import (
            build_grid_subsystem,
            build_machine_subsystem,
            build_multistep,
            discretize,
        )
        from seqmpc.solver import assemble_qp

        cfg = ControllerConfig(n_h=2, n_k=4, n_l=4)
        for _ in range(5):
            st = running_state(rng)
            refs_k = _build(st, MACHINE, PI, 12.0, 100.0, 0.0, T_S)
            out = control_step(
                st, cfg, refs_k, MACHINE, GRID, (0, 0, 0), (0, 0, 0), T_S,
                C_DC,
            )
            y_m, y_n = stack_reference(refs_k, cfg.n_h)
            multi_m = build_multistep(
                discretize(build_machine_subsystem(MACHINE, MACHINE.pole_pairs * st.omega_m, st.v_dc, st.v_imb, st.theta_e), T_S),
                cfg.n_h,
            )
            multi_n = build_multistep(
                discretize(build_grid_subsystem(GRID, _kernels.grid_emf2(st.t, GRID.e_peak, GRID.omega_n), st.v_dc, st.v_imb), T_S),
                cfg.n_h,
            )
            cands_m = k_best(assemble_qp(multi_m, st.i_m_dq, y_m, (0, 0, 0), cfg.lam), cfg.n_k)
            cands_n = k_best(assemble_qp(multi_n, st.i_n_ab, y_n, (0, 0, 0), cfg.lam), cfg.n_l)
            assert out.full_u_m in cands_m.sequences
            assert out.full_u_n in cands_n.sequences
            models = build_step_models(st, MACHINE, GRID, T_S, C_DC)
            for u_m in cands_m.sequences:
                for u_n in cands_n.sequences:
                    path = predict_imbalance(st, u_m, u_n, models)
                    assert out.j_o <= float(path @ path) + 1e-15

    def test_node_telemetry_positive(self, rng):
        st = running_state(rng)
        refs = build_references(st, MACHINE, PI, 5.0, 0.0, 0.0, T_S)
        out = control_step(
            st, ControllerConfig(n_h=1, n_k=2, n_l=2), refs,
            MACHINE, GRID, (0, 0, 0), (0, 0, 0), T_S, C_DC,
        )
        assert out.nodes_m >= 3 and out.nodes_n >= 3
        assert out.j_m >= 0.0 and out.j_n >= 0.0 and out.j_o >= 0.0
