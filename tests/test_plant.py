import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from seqmpc import _kernels
from seqmpc.plant import (
    DIVERGENCE_LIMIT,
    GridParams,
    MachineParams,
    PlantState,
    SimulationBlowUpError,
    converter_matrix,
    electromagnetic_torque,
    plant_step,
    power_output,
)

MACHINE = MachineParams(r_s=0.1379, l_s=0.019, psi_pm=0.42675, pole_pairs=3)
GRID = GridParams(r_n=0.156, l_n=0.020, e_peak=250.0, omega_n=100.0 * math.pi)
DC = (700.0, 0.0)  # v_dc, v_imb
C_DC = 1100e-6
INERTIA = 0.05
QUIET_GRID = GridParams(0.156, 0.020, 0.0, 100.0 * math.pi)


# ---------------------------------------------------------------------------
# the plant's physics one operation per function: the reference that
# `_kernels.integrate_plant`'s straight-line substep must reproduce bit for bit
# ---------------------------------------------------------------------------


def converter_voltage3(sa, sb, sc, v_dc, v_imb):
    # per-phase voltage of the three-level NPC bridge for one switch state
    g = (v_dc + v_imb) / 6.0
    ua = g * (2.0 * sa - sb - sc)
    ub = g * (2.0 * sb - sa - sc)
    uc = g * (2.0 * sc - sa - sb)
    return ua, ub, uc


def machine_deriv2(i_d, i_q, u_d, u_q, omega_e, r_s, l_s, psi_pm):
    di_d = (-r_s / l_s) * i_d + omega_e * i_q + u_d / l_s
    di_q = -omega_e * i_d + (-r_s / l_s) * i_q + u_q / l_s - (psi_pm / l_s) * omega_e
    return di_d, di_q


def grid_deriv2(i_a, i_b, u_a, u_b, e_a, e_b, r_n, l_n):
    di_a = (-r_n / l_n) * i_a + u_a / l_n - e_a / l_n
    di_b = (-r_n / l_n) * i_b + u_b / l_n - e_b / l_n
    return di_a, di_b


def dc_link_deriv2(sma, smb, smc, sna, snb, snc, ima, imb, imc, ina, inb, inc, c_dc):
    dv_dc = (sma * ima + smb * imb + smc * imc - (sna * ina + snb * inb + snc * inc)) / c_dc
    dv_imb = (
        abs(sma) * ima + abs(smb) * imb + abs(smc) * imc
        - (abs(sna) * ina + abs(snb) * inb + abs(snc) * inc)
    ) / c_dc
    return dv_dc, dv_imb


def composed_integrate_plant(
    i_md, i_mq, i_na, i_nb, v_dc, v_imb, omega_m, theta_e, t,
    s_ma, s_mb, s_mc, s_na, s_nb, s_nc,
    r_s, l_s, psi_pm, pole_pairs,
    r_n, l_n, e_peak, omega_n,
    c_dc, inertia, t_mech,
    dt, substeps,
):
    """`_kernels.integrate_plant` as a loop over the per-operation helpers."""
    h = dt / substeps
    for _ in range(substeps):
        omega_e = pole_pairs * omega_m

        u_ma, u_mb, u_mc = converter_voltage3(s_ma, s_mb, s_mc, v_dc, v_imb)
        u_mal, u_mbe = _kernels.clarke3(u_ma, u_mb, u_mc)
        u_md, u_mq = _kernels.park2(u_mal, u_mbe, theta_e)

        u_na, u_nb, u_nc = converter_voltage3(s_na, s_nb, s_nc, v_dc, v_imb)
        u_nal, u_nbe = _kernels.clarke3(u_na, u_nb, u_nc)
        e_al, e_be = _kernels.grid_emf2(t, e_peak, omega_n)

        dmd, dmq = machine_deriv2(i_md, i_mq, u_md, u_mq, omega_e, r_s, l_s, psi_pm)
        dna, dnb = grid_deriv2(i_na, i_nb, u_nal, u_nbe, e_al, e_be, r_n, l_n)

        i_mal, i_mbe = _kernels.park_inv2(i_md, i_mq, theta_e)
        ima, imb, imc = _kernels.clarke_pinv2(i_mal, i_mbe)
        ina, inb, inc = _kernels.clarke_pinv2(i_na, i_nb)
        dv_dc, dv_imb = dc_link_deriv2(
            s_ma, s_mb, s_mc, s_na, s_nb, s_nc, ima, imb, imc, ina, inb, inc, c_dc
        )

        t_e = 1.5 * pole_pairs * psi_pm * i_mq
        domega = (t_mech - t_e) / inertia

        i_md = i_md + h * dmd
        i_mq = i_mq + h * dmq
        i_na = i_na + h * dna
        i_nb = i_nb + h * dnb
        v_dc = v_dc + h * dv_dc
        v_imb = v_imb + h * dv_imb
        omega_m = omega_m + h * domega
        theta_e = (theta_e + h * (pole_pairs * omega_m)) % (2 * math.pi)
        t = t + h
    return i_md, i_mq, i_na, i_nb, v_dc, v_imb, omega_m, theta_e, t


class TestIntegratePlant:
    @pytest.mark.parametrize("substeps", [1, 10])
    def test_equals_composed_reference(self, substeps, rng):
        # every output by repr, so to the bit; at standstill (omega = 0) and
        # at speed, with an unbalanced link and sampled switch pairs
        levels = [int(v) for v in rng.integers(-1, 2, (300, 6)).ravel()]
        for case in range(300):
            state = (
                *rng.normal(0, 20, 4), 700.0 + rng.normal(0, 20), rng.normal(0, 5),
                0.0 if case % 2 else rng.uniform(-150, 150),
                rng.uniform(0, 2 * math.pi), rng.uniform(0, 0.1),
            )
            args = (
                *(float(v) for v in state), *levels[6 * case : 6 * case + 6],
                MACHINE.r_s, MACHINE.l_s, MACHINE.psi_pm, MACHINE.pole_pairs,
                GRID.r_n, GRID.l_n, GRID.e_peak, GRID.omega_n,
                C_DC, INERTIA, float(rng.normal(0, 30)), 50e-6, substeps,
            )
            assert repr(_kernels.integrate_plant(*args)) == repr(composed_integrate_plant(*args))


def random_state(rng):
    return PlantState(
        i_m_dq=tuple(rng.normal(0, 10, 2).tolist()),
        i_n_ab=tuple(rng.normal(0, 10, 2).tolist()),
        v_dc=700.0 + rng.normal(0, 5),
        v_imb=rng.normal(0, 2),
        omega_m=rng.uniform(0, 120),
        theta_e=rng.uniform(0, 2 * math.pi),
        t=rng.uniform(0, 0.02),
    )


class TestConverterVoltage:
    def test_zero_switches(self):
        assert_allclose(converter_voltage3(0, 0, 0, *DC), np.zeros(3))

    def test_line_to_line(self):
        u = converter_voltage3(1, -1, 0, *DC)
        assert_allclose(u, [350.0, -350.0, 0.0])

    def test_common_mode_nullspace(self):
        assert_allclose(converter_voltage3(1, 1, 1, *DC), np.zeros(3))
        assert_allclose(converter_voltage3(-1, -1, -1, *DC), np.zeros(3))

    def test_rows_sum_to_zero(self, rng):
        for _ in range(50):
            s = [int(v) for v in rng.integers(-1, 2, 3)]
            u = converter_voltage3(*s, 700.0, float(rng.normal(0, 3)))
            assert sum(u) == pytest.approx(0.0, abs=1e-9)

    def test_matrix_agrees_with_op(self, rng):
        for _ in range(20):
            s = [int(v) for v in rng.integers(-1, 2, 3)]
            assert_allclose(
                converter_matrix(*DC) @ s, converter_voltage3(*s, *DC)
            )


def dc_link_deriv(s_m, s_n, i_m_abc, i_n_abc, c):
    return dc_link_deriv2(*s_m, *s_n, *i_m_abc, *i_n_abc, c)


class TestDcLinkDerivative:
    def test_zero_switches(self):
        out = dc_link_deriv((0, 0, 0), (0, 0, 0), np.ones(3), np.ones(3), 1100e-6)
        assert out == (0.0, 0.0)

    def test_machine_phase_injection(self):
        dv_dc, dv_imb = dc_link_deriv(
            (1, 0, 0), (0, 0, 0), np.array([10.0, 0.0, 0.0]), np.zeros(3), 1100e-6,
        )
        assert dv_dc == pytest.approx(10.0 / 1100e-6, rel=1e-12)
        assert dv_imb == pytest.approx(10.0 / 1100e-6, rel=1e-12)

    def test_sign_split_between_level_and_magnitude(self):
        dv_dc, dv_imb = dc_link_deriv(
            (-1, 0, 0), (0, 0, 0), np.array([10.0, 0.0, 0.0]), np.zeros(3), 1100e-6,
        )
        assert dv_dc == pytest.approx(-9090.909, rel=1e-4)
        assert dv_imb == pytest.approx(9090.909, rel=1e-4)

    def test_bilinear_in_currents(self, rng):
        s_m = (1, -1, 0)
        s_n = (0, 1, -1)
        i_m = rng.normal(size=3)
        i_n = rng.normal(size=3)
        one = dc_link_deriv(s_m, s_n, i_m, i_n, 1.0)
        three = dc_link_deriv(s_m, s_n, 3 * i_m, 3 * i_n, 1.0)
        assert_allclose(three, np.multiply(one, 3.0), rtol=1e-12)


def machine_deriv(x_dq, u_dq, omega_e):
    return machine_deriv2(*x_dq, *u_dq, omega_e, MACHINE.r_s, MACHINE.l_s, MACHINE.psi_pm)


class TestMachineDerivative:
    def test_rest(self):
        assert_allclose(machine_deriv((0.0, 0.0), (0.0, 0.0), 0.0), np.zeros(2))

    def test_input_gain(self):
        out = machine_deriv((0.0, 0.0), (1.0, 0.0), 0.0)
        assert_allclose(out, [1.0 / 0.019, 0.0])

    def test_back_emf(self):
        out = machine_deriv((0.0, 0.0), (0.0, 0.0), 100.0)
        assert_allclose(out, [0.0, -0.42675 / 0.019 * 100.0])


def grid_deriv(x_ab, u_ab, e_ab):
    return grid_deriv2(*x_ab, *u_ab, *e_ab, GRID.r_n, GRID.l_n)


class TestGridDerivative:
    def test_rest(self):
        z = (0.0, 0.0)
        assert_allclose(grid_deriv(z, z, z), z)

    def test_rl_decay(self):
        out = grid_deriv((1.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        assert_allclose(out, [-7.8, 0.0])

    def test_source_cancellation(self):
        u = (10.0, 0.0)
        assert_allclose(grid_deriv((0.0, 0.0), u, u), np.zeros(2))


class TestGridEmf:
    def test_phase_zero(self):
        e_ab = _kernels.grid_emf2(0.0, GRID.e_peak, GRID.omega_n)
        assert_allclose(e_ab, [306.186, 0.0], atol=1e-3)
        assert_allclose(e_ab, _kernels.clarke3(250.0, -125.0, -125.0), rtol=1e-12)

    def test_constant_magnitude(self):
        norms = [
            np.linalg.norm(_kernels.grid_emf2(t, GRID.e_peak, GRID.omega_n))
            for t in np.linspace(0, 0.04, 57)
        ]
        assert_allclose(norms, norms[0], rtol=1e-12)

    def test_period(self):
        assert_allclose(
            _kernels.grid_emf2(0.02, GRID.e_peak, GRID.omega_n),
            _kernels.grid_emf2(0.0, GRID.e_peak, GRID.omega_n),
            atol=1e-9,
        )
        assert 2 * math.pi / GRID.omega_n == pytest.approx(0.02)


class TestPowerOutput:
    def test_no_current(self):
        assert power_output(np.zeros(2), np.array([100.0, 0.0])) == (0.0, 0.0)

    def test_active(self):
        assert power_output(np.array([2.0, 0.0]), np.array([100.0, 0.0])) == (200.0, 0.0)

    def test_reactive(self):
        assert power_output(np.array([0.0, 2.0]), np.array([100.0, 0.0])) == (0.0, -200.0)


class TestTorque:
    def test_zero(self):
        assert electromagnetic_torque(0.0, MACHINE) == 0.0

    def test_known_point(self):
        assert electromagnetic_torque(10.0, MACHINE) == pytest.approx(19.20375)

    def test_round_trip_with_reference(self):
        t_ref = 33.3
        i_q = t_ref / (1.5 * MACHINE.pole_pairs * MACHINE.psi_pm)
        assert electromagnetic_torque(i_q, MACHINE) == pytest.approx(t_ref)


def rotor_state(omega_m, theta_e, i_q=0.0):
    return PlantState(
        i_m_dq=(0.0, i_q),
        i_n_ab=(0.0, 0.0),
        v_dc=700.0,
        v_imb=0.0,
        omega_m=omega_m,
        theta_e=theta_e,
        t=0.0,
    )


class TestPlantState:
    def test_one_flat_record_in_the_integrators_order(self, rng):
        # plant_step returns `integrate_plant`'s nine floats as they come,
        # the currents paired
        names = [f.name for f in dataclasses.fields(PlantState)]
        assert names == ["i_m_dq", "i_n_ab", "v_dc", "v_imb", "omega_m", "theta_e", "t"]
        st = random_state(rng)
        s_m, s_n = (1, 0, -1), (0, 1, -1)
        out = plant_step(st, s_m, s_n, MACHINE, GRID, C_DC, INERTIA, 2.0, 50e-6, 3)
        want = _kernels.integrate_plant(
            *st.i_m_dq, *st.i_n_ab, st.v_dc, st.v_imb, st.omega_m, st.theta_e, st.t,
            1, 0, -1, 0, 1, -1,
            MACHINE.r_s, MACHINE.l_s, MACHINE.psi_pm, MACHINE.pole_pairs,
            GRID.r_n, GRID.l_n, GRID.e_peak, GRID.omega_n,
            C_DC, INERTIA, 2.0, 50e-6, 3,
        )
        got = (*out.i_m_dq, *out.i_n_ab, out.v_dc, out.v_imb, out.omega_m, out.theta_e, out.t)
        assert repr(got) == repr(want)

    def test_initial_state(self):
        st = PlantState.initial(v_dc=700.0, v_imb=-3.0, omega_m=12.0, theta_e=7.0)
        theta_e = 7.0 % (2 * math.pi)
        assert st == PlantState((0.0, 0.0), (0.0, 0.0), 700.0, -3.0, 12.0, theta_e, 0.0)

    @pytest.mark.parametrize(
        "v_dc, v_imb, message",
        [
            (0.0, 0.0, "v_dc must be positive"),
            (-700.0, 0.0, "v_dc must be positive"),
            (math.nan, 0.0, "v_dc must be positive"),
            (math.inf, 0.0, "non-finite DC-link state"),
            (700.0, math.nan, "non-finite DC-link state"),
            (700.0, -math.inf, "non-finite DC-link state"),
            (700.0, 700.0, "capacitor imbalance exceeds total voltage"),
            (700.0, -800.0, "capacitor imbalance exceeds total voltage"),
        ],
    )
    def test_initial_rejects_a_bad_dc_link(self, v_dc, v_imb, message):
        with pytest.raises(ValueError, match=message):
            PlantState.initial(v_dc=v_dc, v_imb=v_imb, omega_m=0.0, theta_e=0.0)

    @pytest.mark.parametrize(
        "v_dc, omega_m, message",
        [
            (2e9, 0.0, r"must not exceed 1e\+09"),
            (-2e9, 0.0, "v_dc must be positive"),
            (700.0, 2e9, r"must not exceed 1e\+09"),
            (700.0, -2e9, r"must not exceed 1e\+09"),
            (700.0, math.nan, r"must not exceed 1e\+09"),
        ],
    )
    def test_initial_rejects_a_state_beyond_the_divergence_limit(self, v_dc, omega_m, message):
        # a state `plant_step` would reject may not start a run either
        with pytest.raises(ValueError, match=message):
            PlantState.initial(v_dc=v_dc, v_imb=0.0, omega_m=omega_m, theta_e=0.0)
        st = PlantState.initial(v_dc=DIVERGENCE_LIMIT, v_imb=0.0, omega_m=-DIVERGENCE_LIMIT,
                                theta_e=0.0)
        assert (st.v_dc, st.omega_m) == (1e9, -1e9)


class TestMechStep:
    """Rotor speed and angle as `plant_step` integrates them."""

    def test_torque_balance(self):
        i_q = 10.0
        st = rotor_state(50.0, 1.0, i_q)
        t_m = electromagnetic_torque(i_q, MACHINE)
        out = plant_step(
            st, (0, 0, 0), (0, 0, 0), MACHINE, QUIET_GRID, C_DC, INERTIA, t_m,
            1e-3, 1,
        )
        assert out.omega_m == st.omega_m

    def test_acceleration(self):
        st = rotor_state(0.0, 0.0)
        out = plant_step(
            st, (0, 0, 0), (0, 0, 0), MACHINE, QUIET_GRID, C_DC, 0.1, 10.0,
            1e-3, 1,
        )
        assert out.omega_m == pytest.approx(0.1)

    def test_angle_stays_wrapped(self):
        # a huge inertia holds ~100 rad/s, so one second turns the rotor
        # through ~48 electrical revolutions
        st = rotor_state(100.0, 0.0)
        out = plant_step(
            st, (0, 0, 0), (0, 0, 0), MACHINE, QUIET_GRID, C_DC, 1e9, 0.0,
            1.0, 10_000,
        )
        assert out.omega_m == pytest.approx(100.0)
        assert 0.0 <= out.theta_e < 2 * math.pi


class TestPlantStep:
    def test_fixed_point(self):
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)
        out = plant_step(
            st, (0, 0, 0), (0, 0, 0), MACHINE, QUIET_GRID, C_DC, INERTIA, 0.0,
            50e-6, 10,
        )
        assert_allclose(out.i_m_dq, st.i_m_dq)
        assert_allclose(out.i_n_ab, st.i_n_ab)
        assert out.v_dc == st.v_dc
        assert out.omega_m == st.omega_m

    def test_single_substep_equals_composed_euler(self, rng):
        st = random_state(rng)
        s_m = (1, 0, -1)
        s_n = (-1, 1, 0)
        t_m = 3.0
        dt = 50e-6
        out = plant_step(st, s_m, s_n, MACHINE, GRID, C_DC, INERTIA, t_m, dt, substeps=1)

        omega_e = MACHINE.pole_pairs * st.omega_m
        u_m = converter_voltage3(*s_m, st.v_dc, st.v_imb)
        u_n = converter_voltage3(*s_n, st.v_dc, st.v_imb)
        u_m_dq = _kernels.park2(*_kernels.clarke3(*u_m), st.theta_e)
        u_n_ab = _kernels.clarke3(*u_n)
        e_ab = _kernels.grid_emf2(st.t, GRID.e_peak, GRID.omega_n)
        d_m = machine_deriv(st.i_m_dq, u_m_dq, omega_e)
        d_n = grid_deriv(st.i_n_ab, u_n_ab, e_ab)
        i_m_abc = _kernels.clarke_pinv2(*_kernels.park_inv2(*st.i_m_dq, st.theta_e))
        i_n_abc = _kernels.clarke_pinv2(*st.i_n_ab)
        dv_dc, dv_imb = dc_link_deriv(
            s_m, s_n, i_m_abc, i_n_abc, C_DC
        )
        t_e = electromagnetic_torque(st.i_m_dq[1], MACHINE)
        # the rotor angle integrates the freshly updated speed
        omega_m = st.omega_m + dt * (t_m - t_e) / INERTIA
        theta_e = (st.theta_e + dt * (MACHINE.pole_pairs * omega_m)) % (2 * math.pi)

        assert_allclose(out.i_m_dq, st.i_m_dq + dt * np.array(d_m), rtol=1e-12)
        assert_allclose(out.i_n_ab, st.i_n_ab + dt * np.array(d_n), rtol=1e-12)
        assert out.v_dc == pytest.approx(st.v_dc + dt * dv_dc, rel=1e-12)
        assert out.v_imb == pytest.approx(st.v_imb + dt * dv_imb, rel=1e-12)
        assert out.omega_m == pytest.approx(omega_m, rel=1e-12)
        assert out.theta_e == pytest.approx(theta_e, rel=1e-12)

    def test_substep_refinement_is_first_order(self, rng):
        # halving the substep size should roughly halve the distance to a
        # fine-grained reference (explicit Euler is order one)
        st = random_state(rng)
        s_m = (1, -1, 0)
        s_n = (0, -1, 1)
        dt = 50e-6

        def state_vec(substeps):
            out = plant_step(st, s_m, s_n, MACHINE, GRID, C_DC, INERTIA, 5.0, dt, substeps)
            return np.concatenate(
                [out.i_m_dq, out.i_n_ab, [out.v_dc, out.v_imb, out.omega_m]]
            )

        ref = state_vec(512)
        err = [np.linalg.norm(state_vec(n) - ref) for n in (4, 8, 16)]
        assert err[0] > err[1] > err[2]
        assert err[0] / err[1] == pytest.approx(2.0, rel=0.35)
        assert err[1] / err[2] == pytest.approx(2.0, rel=0.35)

    def test_overflowing_step_blows_up(self):
        # a vanishing capacitance overflows the DC-link derivative; the
        # blow-up guard is the only check on an integrated state
        st = PlantState((10.0, 0.0), (0.0, 0.0), 700.0, 0.0, 0.0, 0.0, 0.0)
        diverged = r"^plant state diverged \(\|x\| > 1e\+09\)$"
        with pytest.raises(SimulationBlowUpError, match=diverged):
            plant_step(
                st, (1, 0, -1), (0, 0, 0), MACHINE, GRID, 5e-324, INERTIA,
                0.0, 50e-6, 1,
            )

    @pytest.mark.parametrize("position", range(7))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2e9, -2e9, 1e9, -1e9])
    def test_each_integrated_quantity_is_bounded(self, monkeypatch, position, value):
        # the seven integrated quantities, in `integrate_plant`'s order: the
        # four currents, v_dc, v_imb and omega_m; the angle and the time follow
        out = [3.0, -3.0, 0.0, 5.0, 700.0, -2.0, 10.0, 0.5, 1e-4]
        out[position] = value
        monkeypatch.setattr(_kernels, "integrate_plant", lambda *args: tuple(out))
        st = PlantState.initial(v_dc=700.0, v_imb=0.0, omega_m=0.0, theta_e=0.0)

        def step():
            return plant_step(st, (0, 0, 0), (0, 0, 0), MACHINE, GRID, C_DC, INERTIA,
                              0.0, 50e-6, 1)

        if not abs(value) <= 1e9:
            with pytest.raises(SimulationBlowUpError, match=r"^plant state diverged"):
                step()
        elif position == 4 and value < 0:
            with pytest.raises(SimulationBlowUpError, match="^DC-link voltage collapsed$"):
                step()
        else:
            got = step()
            assert (*got.i_m_dq, *got.i_n_ab, got.v_dc, got.v_imb, got.omega_m)[position] == value

    def test_dc_energy_sign(self):
        # constant positive machine-side injection with idle grid side can
        # only push the total DC voltage up; a stiff inductance and zero
        # q-current keep the injected phase current effectively constant
        st = PlantState(
            i_m_dq=(7.0, 0.0),
            i_n_ab=(0.0, 0.0),
            v_dc=700.0,
            v_imb=0.0,
            omega_m=0.0,
            theta_e=0.0,
            t=0.0,
        )
        stiff_machine = MachineParams(r_s=0.0, l_s=1e6, psi_pm=0.42675, pole_pairs=3)
        v_prev = st.v_dc
        s_m = (1, 0, 0)
        i_abc = _kernels.clarke_pinv2(*_kernels.park_inv2(*st.i_m_dq, 0.0))
        assert np.array(s_m) @ i_abc > 0
        for _ in range(50):
            st = plant_step(
                st, s_m, (0, 0, 0), stiff_machine, QUIET_GRID, C_DC, INERTIA, 0.0,
                50e-6, 1,
            )
            assert st.v_dc > v_prev
            v_prev = st.v_dc

    def test_unforced_decay(self, rng):
        # enormous inertia pins the speed at zero, so no back-EMF source
        # re-excites the machine current
        st = PlantState(
            i_m_dq=tuple(rng.normal(0, 10, 2).tolist()),
            i_n_ab=tuple(rng.normal(0, 10, 2).tolist()),
            v_dc=700.0,
            v_imb=0.0,
            omega_m=0.0,
            theta_e=0.3,
            t=0.0,
        )
        prev_m = np.linalg.norm(st.i_m_dq)
        prev_n = np.linalg.norm(st.i_n_ab)
        for _ in range(100):
            st = plant_step(
                st, (0, 0, 0), (0, 0, 0), MACHINE, QUIET_GRID, C_DC, 1e9, 0.0,
                50e-6, 5,
            )
            cur_m = np.linalg.norm(st.i_m_dq)
            cur_n = np.linalg.norm(st.i_n_ab)
            assert cur_m <= prev_m * (1 + 1e-12)
            assert cur_n <= prev_n * (1 + 1e-12)
            prev_m, prev_n = cur_m, cur_n
