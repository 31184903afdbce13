"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The closed-loop runs are shared across criteria through
a lazily populated module cache, so the full gate stays within a couple of
minutes on the compiled kernel path.
"""

import math
import sys
import time

import numpy as np
import pytest

from seqmpc import _kernels
from seqmpc.controller import ControllerConfig
from seqmpc.harness import ScenarioConfig, compute_metrics, run_scenario
from seqmpc.prediction import build_multistep, discretize, effort_maps
from seqmpc.solver import brute_force_kbest, k_best, sphere_decode
from seqmpc.verify import random_qp_instance

LONG = 0.5
SHORT = 0.1


def report(criterion: str, passed: bool, detail: str):
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, file=sys.stderr, flush=True)


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(n_h, n_k, n_l, mode="sequential", duration=LONG):
        key = (n_h, n_k, n_l, mode, duration)
        if key not in cache:
            cfg = ScenarioConfig(duration=duration)
            ctrl = ControllerConfig(n_h=n_h, n_k=n_k, n_l=n_l, mode=mode)
            started = time.perf_counter()
            series = run_scenario(cfg, ctrl)
            elapsed = time.perf_counter() - started
            cache[key] = (series, cfg, elapsed)
        return cache[key]

    return get


class TestCriterion1SolverExactness:
    def test_kbest_matches_enumeration(self):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        states_per_horizon = 100
        checked = 0
        for n_h in (1, 2):
            for _ in range(states_per_horizon):
                qp = random_qp_instance(rng, n_h)
                for k in (1, 4, 10):
                    got = k_best(qp, k)
                    want = brute_force_kbest(qp, k, n_h)
                    assert [s.as_tuple() for s in got.sequences] == [
                        s.as_tuple() for s in want.sequences
                    ], f"ordering diverged at n_h={n_h}, k={k}"
                    np.testing.assert_allclose(
                        got.costs, want.costs, rtol=0, atol=1e-9
                    )
                    checked += 1
        elapsed = time.perf_counter() - started
        passed = elapsed < 60.0
        report(
            "criterion 1 (solver exactness)",
            passed,
            f"{checked} k-best lists identical to brute force in {elapsed:.1f}s (< 60s)",
        )
        assert passed


class TestCriterion2CondensationEquivalence:
    def test_raw_and_condensed_argmin_agree(self):
        from seqmpc.verify import check_condensation

        started = time.perf_counter()
        ok, detail = check_condensation(seed=2025, cases=50, horizons=(1, 2))
        elapsed = time.perf_counter() - started
        passed = ok and elapsed < 10.0
        report(
            "criterion 2 (condensation equivalence)",
            passed,
            f"{detail} in {elapsed:.1f}s (< 10s)",
        )
        assert passed


class TestCriterion3ImbalanceBound:
    def test_steady_imbalance_band(self, runs):
        series, cfg, elapsed = runs(3, 4, 4)
        sl = series.steady_slice(cfg.steady_fraction)
        v_imb = np.abs(series.column("v_imb")[sl])
        frac = float(np.mean(v_imb <= 1.5))
        passed = frac >= 0.99 and elapsed < 300.0
        report(
            "criterion 3 (DC-link balance bound)",
            passed,
            f"|v_imb| <= 1.5 V for {100 * frac:.2f}% of steady samples "
            f"(max {v_imb.max():.2f} V), run took {elapsed:.0f}s (< 300s)",
        )
        assert passed


class TestCriterion4ThdTrend:
    def test_longer_horizon_lowers_thd(self, runs):
        series3, cfg, _ = runs(3, 4, 4)
        series1, _, _ = runs(1, 4, 4)
        thd3 = compute_metrics(series3, cfg).thd_machine
        thd1 = compute_metrics(series1, cfg).thd_machine
        margin = (thd1 - thd3) / thd1
        passed = thd3 < thd1 and margin >= 0.05
        report(
            "criterion 4 (THD improves with horizon)",
            passed,
            f"THD(N_h=3)={thd3:.4f} < THD(N_h=1)={thd1:.4f}, margin {100 * margin:.1f}% (>= 5%)",
        )
        assert passed


class TestCriterion5NodeAsymmetry:
    def test_horizon_dominates_candidate_count(self, runs):
        base = compute_metrics(*runs(1, 1, 1, duration=SHORT)[:2]).avg_nodes
        deep = compute_metrics(*runs(3, 1, 1, duration=SHORT)[:2]).avg_nodes
        wide = compute_metrics(*runs(1, 10, 10, duration=SHORT)[:2]).avg_nodes
        lhs = deep / base
        rhs = wide / base
        passed = lhs > rhs
        report(
            "criterion 5 (node-count asymmetry)",
            passed,
            f"horizon growth x{lhs:.1f} vs candidate growth x{rhs:.1f}",
        )
        assert passed


class TestCriterion6BaselineComparison:
    def test_sequential_beats_standard_sd_on_imbalance(self, runs):
        for n_h in (1, 3):
            seq_m = compute_metrics(*runs(n_h, 4, 4)[:2])
            std_m = compute_metrics(*runs(n_h, 1, 1, mode="standard_sd")[:2])
            passed = seq_m.rmse_v_imb < std_m.rmse_v_imb
            report(
                f"criterion 6 (imbalance vs baseline, N_h={n_h})",
                passed,
                f"sequential RMSE {seq_m.rmse_v_imb:.3f} V < standard {std_m.rmse_v_imb:.3f} V",
            )
            assert passed


class TestCriterion7Tracking:
    def test_torque_reactive_power_and_dc_voltage(self, runs):
        series, cfg, _ = runs(3, 4, 4)
        metrics = compute_metrics(series, cfg)
        sl = series.steady_slice(cfg.steady_fraction)

        t_e_ref = cfg.torque_nm[-1][1]
        torque_ok = metrics.rmse_te < 0.05 * t_e_ref

        omega_ref = cfg.speed_rpm[-1][1] * 2 * math.pi / 60.0
        rated_p = omega_ref * t_e_ref
        q_mean = float(np.abs(series.column("q")[sl]).mean())
        q_ok = q_mean < 0.05 * rated_p

        v_dc_tail = series.column("v_dc")[-max(1, len(series) // 10):]
        v_dc_ok = bool(np.all(np.abs(v_dc_tail - cfg.v_dc_ref) <= 0.01 * cfg.v_dc_ref))

        passed = torque_ok and q_ok and v_dc_ok
        report(
            "criterion 7 (tracking)",
            passed,
            f"RMSE(T_e)={metrics.rmse_te:.3f} (< {0.05 * t_e_ref:.2f}), "
            f"mean|Q|={q_mean:.1f} var (< {0.05 * rated_p:.1f}), "
            f"V_dc tail within {np.abs(v_dc_tail - cfg.v_dc_ref).max():.2f} V (< {0.01 * cfg.v_dc_ref:.1f})",
        )
        assert passed


class TestCriterion8Properties:
    CASES = 1000

    def test_transform_invariants(self):
        rng = np.random.default_rng(8)
        v3 = rng.normal(0, 100, (self.CASES, 3))
        v2 = rng.normal(0, 100, (self.CASES, 2))
        theta = rng.uniform(-10, 10, self.CASES)
        ok = True
        for i in range(self.CASES):
            ab = _kernels.clarke3(*v3[i])
            back = _kernels.clarke3(*_kernels.clarke_pinv2(*v2[i]))
            ok &= np.allclose(back, v2[i], rtol=1e-12, atol=1e-9)
            common = _kernels.clarke3(*np.full(3, v3[i, 0]))
            ok &= np.allclose(common, 0.0, atol=1e-9)
            dq = _kernels.park2(*ab, theta[i])
            ok &= math.isclose(
                float(np.linalg.norm(dq)), float(np.linalg.norm(ab)),
                rel_tol=1e-9, abs_tol=1e-9,
            )
            ok &= np.allclose(_kernels.park_inv2(*dq, theta[i]), ab, rtol=1e-9, atol=1e-9)
        report(
            "criterion 8a (transform invariants)",
            ok, f"{self.CASES} random cases (round trips, isometry, common mode)",
        )
        assert ok

    def test_stacking_equals_iteration(self):
        from seqmpc.verify import check_stacking

        ok, detail = check_stacking(seed=88, cases=self.CASES, horizons=(1, 2, 3))
        report("criterion 8b (stacked prediction = iteration)", ok, detail)
        assert ok

    def test_effort_of_constant_sequence_is_zero(self):
        from seqmpc.prediction import build_grid_subsystem

        rng = np.random.default_rng(888)
        cfg = ScenarioConfig()
        ok = True
        for _ in range(self.CASES):
            n_h = int(rng.integers(1, 5))
            d = discretize(
                build_grid_subsystem(cfg.grid(), rng.normal(0, 300, 2), 700.0, 0.0), cfg.t_s
            )
            m = build_multistep(d, n_h)
            u = rng.integers(-1, 2, 3)
            diff_mat, prev_sel = effort_maps(m.horizon)
            delta = diff_mat @ np.tile(u, n_h) - prev_sel @ u
            ok &= not delta.any()
        report("criterion 8c (constant-sequence effort is zero)", ok, f"{self.CASES} cases")
        assert ok

    def test_radius_monotone_and_exclusion_sound(self):
        rng = np.random.default_rng(8888)
        ok = True
        for _ in range(self.CASES):
            qp = random_qp_instance(rng, 1)
            _, trace = sphere_decode(qp)
            ok &= bool((np.diff(trace) <= 0).all())
            cands = k_best(qp, 6)
            keys = [s.as_tuple() for s in cands.sequences]
            ok &= len(set(keys)) == len(keys)
            ok &= not any(b < a for a, b in zip(cands.costs, cands.costs[1:]))
        report(
            "criterion 8d (radius monotonicity + exclusion soundness)",
            ok, f"{self.CASES} decodes",
        )
        assert ok

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        cfg = ScenarioConfig(duration=0.02, substeps=2)
        ctrl = ControllerConfig(n_h=2, n_k=2, n_l=2)
        paths = []
        for name in ("one.csv", "two.csv"):
            path = tmp_path / name
            run_scenario(cfg, ctrl).write_csv(path)
            paths.append(path.read_bytes())
        ok = paths[0] == paths[1]
        report("criterion 8e (byte-identical reruns)", ok, f"{len(paths[0])} bytes compared")
        assert ok
