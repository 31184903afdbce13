import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from seqmpc import controller
from seqmpc.controller import (
    MAX_HORIZON,
    ControllerConfig,
    DcLinkPi,
    build_references,
    control_step,
)
from seqmpc.plant import GridParams, MachineParams, PlantState
from seqmpc.prediction import StepPlan, build_step_models, predict_imbalance
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
        assert out == (0.0, 0.0, 0.0) and all(type(v) is float for v in out)

    def test_torque_inversion(self):
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        i_q_ref, _, _ = build_references(st, MACHINE, PI, 19.20375, 0.0, 0.0, T_S)
        assert i_q_ref == pytest.approx(10.0)

    def test_proportional_term(self):
        st = PlantState.initial(v_dc=690.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        pi = dataclasses.replace(PI, kp=0.5, ki=0.0)
        _, p_ref, _ = build_references(st, MACHINE, pi, 0.0, 0.0, 0.0, dt=1e-6)
        i_g_ref = p_ref / st.v_dc
        assert i_g_ref == pytest.approx(5.0)

    def test_integral_accumulates_and_clamps(self):
        st = PlantState.initial(v_dc=600.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        pi = dataclasses.replace(PI, kp=0.0)
        integral = 0.0
        for _ in range(10):
            _, p_ref, integral = build_references(st, MACHINE, pi, 0.0, 0.0, integral, dt=0.01)
        # 100 V error for 0.1 s -> raw integral 10, bounded by clamp/|ki| = 2.5
        assert integral == pytest.approx(2.5)
        assert abs(p_ref / st.v_dc) <= 50.0

    def test_power_feedforward(self):
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        pi = dataclasses.replace(PI, kp=0.0, ki=0.0)
        _, p_ref, _ = build_references(st, MACHINE, pi, 20.0, 110.0, 0.0, T_S)
        assert p_ref == pytest.approx(110.0 * 20.0)


def np_clip_references(st, machine, pi, t_e_ref, omega_m_ref, integral, dt):
    """(i_q_ref, p_ref, integral) of `build_references`, clamped with
    `np.clip` instead of `min(max(x, lo), hi)`."""
    i_q_ref = t_e_ref / (1.5 * machine.pole_pairs * machine.psi_pm)
    err = pi.v_dc_ref - st.v_dc
    integral = integral + dt * err
    if pi.ki != 0.0:
        bound = abs(pi.clamp / pi.ki)
        integral = float(np.clip(integral, -bound, bound))
    i_g_ref = float(np.clip(pi.kp * err + pi.ki * integral, -pi.clamp, pi.clamp))
    p_ref = st.v_dc * i_g_ref + omega_m_ref * t_e_ref
    return i_q_ref, p_ref, integral


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
            assert repr(build_references(*args)) == repr(np_clip_references(*args))


class TestStackReference:
    """`control_step` writes the references into its plan as the rows
    (0, i_q_ref) and (p_ref, 0), each repeated over the horizon."""

    @staticmethod
    def stacked(i_q_ref, p_ref, n_h):
        """The plan's (2, 2N) references after one control step."""
        cfg = ControllerConfig(n_h=n_h, n_k=2, n_l=2)
        plan = StepPlan(cfg.n_h, cfg.n_k, cfg.n_l)
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=100.0, theta_e=0.3)
        control_step(st, cfg, i_q_ref, p_ref, MACHINE, GRID, (0, 0, 0), (0, 0, 0), T_S, C_DC,
                     plan)
        return plan.y_ref

    def test_single_stage(self):
        y_m, y_n = self.stacked(4.0, 100.0, 1)
        assert_allclose(y_m, [0.0, 4.0])
        assert_allclose(y_n, [100.0, 0.0])

    def test_repeats_over_horizon(self):
        y_m, y_n = self.stacked(4.0, 100.0, 3)
        assert y_m.shape == (6,)
        assert_allclose(y_m, [0.0, 4.0] * 3)
        assert_allclose(y_n, [100.0, 0.0] * 3)

    def test_length_scales_with_horizon(self):
        for n_h in (1, 2, 5):
            y_m, y_n = self.stacked(0.0, 0.0, n_h)
            assert y_m.shape == (2 * n_h,) and y_n.shape == (2 * n_h,)


def decide(*args):
    """(decision, its chosen machine and grid rows, the machine and grid
    k-best lists) of one control step, the lists captured from `k_best` as
    the step makes them."""
    lists = []

    def capture(qp, k):
        cands = k_best(qp, k)
        lists.append(cands)
        return cands

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "k_best", capture)
        decision = control_step(*args)
    cands_m, cands_n = lists
    rows = (cands_m.rows[decision.rank_m], cands_n.rows[decision.rank_n])
    return decision, rows, cands_m, cands_n


class TestControlStep:
    def test_standard_mode_equals_single_candidate_sequential(self, rng):
        for _ in range(10):
            st = running_state(rng)
            i_q_ref, p_ref, _ = build_references(st, MACHINE, PI, 15.0, 100.0, 0.0, T_S)
            seq, seq_rows, *_ = decide(
                st, ControllerConfig(n_h=2, n_k=1, n_l=1), i_q_ref, p_ref,
                MACHINE, GRID, (0, 0, 0), (0, 0, 0), T_S, C_DC,
            )
            std, std_rows, *_ = decide(
                st, ControllerConfig(n_h=2, mode="standard_sd"), i_q_ref, p_ref,
                MACHINE, GRID, (0, 0, 0), (0, 0, 0), T_S, C_DC,
            )
            assert (seq.rank_m, seq.rank_n) == (std.rank_m, std.rank_n) == (0, 0)
            assert seq_rows == std_rows
            assert seq.s_m == std.s_m and seq.s_n == std.s_n

    def test_quiet_plant_yields_zero_decision(self):
        # zero state, dead grid source and references equal to the free
        # response make the all-off sequence exactly optimal on both sides
        quiet_grid = GridParams(0.156, 0.020, 0.0, 100.0 * math.pi)
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        i_q_ref, p_ref, _ = build_references(st, MACHINE, PI, 0.0, 0.0, 0.0, T_S)
        out, (row_m, row_n), *_ = decide(
            st, ControllerConfig(n_h=2, n_k=3, n_l=3), i_q_ref, p_ref,
            MACHINE, quiet_grid, (0, 0, 0), (0, 0, 0), T_S, C_DC,
        )
        assert out.s_m == (0, 0, 0)
        assert out.s_n == (0, 0, 0)
        assert row_m == (0,) * 6
        assert row_n == (0,) * 6

    def test_applied_block_heads_the_sequence(self, rng):
        for _ in range(10):
            st = running_state(rng)
            i_q_ref, p_ref, _ = build_references(st, MACHINE, PI, 10.0, 90.0, 0.0, T_S)
            out, rows, *_ = decide(
                st, ControllerConfig(n_h=2, n_k=3, n_l=2), i_q_ref, p_ref,
                MACHINE, GRID, (0, 0, 0), (0, 0, 0), T_S, C_DC,
            )
            # the applied blocks are level tuples of three Python ints
            for s, row in zip((out.s_m, out.s_n), rows):
                assert type(s) is tuple and len(s) == 3
                assert all(type(v) is int for v in s)
                assert s == row[:3]

    def test_pair_is_imbalance_optimal_over_candidate_product(self, rng):
        # rebuild the candidate lists independently and check the decision
        # minimizes the predicted imbalance norm over every pair
        from seqmpc.controller import build_references as _build
        from seqmpc import _kernels
        from seqmpc.prediction import (
            build_grid_subsystem,
            build_machine_subsystem,
            discretize,
        )
        from seqmpc.solver import assemble_qp
        from test_step_forms import plan_of_sides

        cfg = ControllerConfig(n_h=2, n_k=4, n_l=4)
        for _ in range(5):
            st = running_state(rng)
            i_q_ref, p_ref, _ = _build(st, MACHINE, PI, 12.0, 100.0, 0.0, T_S)
            out, (row_m, row_n), *_ = decide(
                st, cfg, i_q_ref, p_ref, MACHINE, GRID, (0, 0, 0), (0, 0, 0), T_S,
                C_DC,
            )
            # each side's model by the per-side definition, in a plan of its own
            plan = plan_of_sides((
                discretize(build_machine_subsystem(MACHINE, MACHINE.pole_pairs * st.omega_m, st.v_dc, st.v_imb, st.theta_e), T_S),
                discretize(build_grid_subsystem(GRID, _kernels.grid_emf2(st.t, GRID.e_peak, GRID.omega_n), st.v_dc, st.v_imb), T_S),
            ), cfg.n_h)
            plan.x0[...] = st.i_m_dq, st.i_n_ab
            plan.y_ref[...] = ((0.0, i_q_ref) * cfg.n_h, (p_ref, 0.0) * cfg.n_h)
            plan.u_prev[...] = 0.0
            qp_m, qp_n = assemble_qp(cfg.lam, plan)
            cands_m = k_best(qp_m, cfg.n_k)
            cands_n = k_best(qp_n, cfg.n_l)
            assert row_m in cands_m.rows
            assert row_n in cands_n.rows
            models = StepPlan(cfg.n_h)
            build_step_models(st, MACHINE, GRID, T_S, C_DC, models)
            for u_m in cands_m.rows:
                for u_n in cands_n.rows:
                    path = predict_imbalance(st, u_m, u_n, models)
                    assert out.j_o <= float(path @ path) + 1e-15

    def test_node_telemetry_positive(self, rng):
        st = running_state(rng)
        i_q_ref, p_ref, _ = build_references(st, MACHINE, PI, 5.0, 0.0, 0.0, T_S)
        out = control_step(
            st, ControllerConfig(n_h=1, n_k=2, n_l=2), i_q_ref, p_ref,
            MACHINE, GRID, (0, 0, 0), (0, 0, 0), T_S, C_DC,
        )
        assert out.nodes_m >= 3 and out.nodes_n >= 3
        assert out.j_m >= 0.0 and out.j_n >= 0.0 and out.j_o >= 0.0
