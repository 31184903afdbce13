import dataclasses
import gc
import itertools
import math
import platform
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from seqmpc import harness, prediction
from seqmpc.controller import ControllerConfig
from seqmpc.harness import (
    TS_COLUMNS,
    ConfigError,
    ScenarioConfig,
    TimeSeries,
    compute_metrics,
    compute_rmse,
    compute_switching_frequency,
    compute_thd,
    dump_config,
    load_config,
    profile_value,
    run_scenario,
    sweep,
    thd_spectrum,
    write_sweep_csv,
)
from seqmpc.plant import SimulationBlowUpError
from seqmpc.prediction import SequenceError
from seqmpc.solver import CandidateList, SolverError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# short but long enough for a one-period THD window at 56.25 Hz
QUICK = dict(duration=0.04, substeps=2, thd_periods=1)


def quick_cfg(**kw):
    merged = {**QUICK, **kw}
    return ScenarioConfig(**merged)


class TestRmse:
    def test_identical_series(self):
        assert compute_rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_offset(self):
        x = np.array([5.0, 6.0, 7.0])
        assert compute_rmse(x, x - 2.5) == pytest.approx(2.5)

    def test_known_value(self):
        assert compute_rmse([0.0, 2.0], [0.0, 0.0]) == pytest.approx(math.sqrt(2.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_rmse([], [])


class TestThd:
    FS = 20_000.0

    def _tone(self, f0, periods=40, harmonics=()):
        n = int(round(periods * self.FS / f0))
        t = np.arange(n) / self.FS
        x = np.cos(2 * np.pi * f0 * t)
        for h, amp in harmonics:
            x = x + amp * np.cos(2 * np.pi * h * f0 * t)
        return x

    def test_pure_tone_is_distortion_free(self):
        x = self._tone(50.0)
        assert compute_thd(x, 1 / self.FS, 50.0, 5) == pytest.approx(0.0, abs=1e-9)

    def test_ten_percent_third_harmonic(self):
        x = self._tone(50.0, harmonics=[(3, 0.1)])
        assert compute_thd(x, 1 / self.FS, 50.0, 5) == pytest.approx(0.1, abs=1e-6)

    def test_amplitude_invariance(self):
        x = self._tone(50.0, harmonics=[(5, 0.07), (7, 0.02)])
        a = compute_thd(x, 1 / self.FS, 50.0, 5)
        b = compute_thd(123.4 * x, 1 / self.FS, 50.0, 5)
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(math.hypot(0.07, 0.02), abs=1e-6)

    def test_phase_offset_insensitivity(self):
        # steady periodic signal: shifting the window must not move THD much
        f0 = 56.25
        n_shift = 17
        x = self._tone(f0, periods=60, harmonics=[(3, 0.05)])
        a = compute_thd(x, 1 / self.FS, f0, 5)
        b = compute_thd(x[:-n_shift], 1 / self.FS, f0, 5)
        assert b == pytest.approx(a, rel=0.05)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            compute_thd(np.zeros(4000), 1 / self.FS, 50.0, 5)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            compute_thd(np.ones(10), 1 / self.FS, 50.0, 5)

    def test_spectrum_scales_bins_without_a_twin_by_one_over_n(self):
        # an even window of 2 000 samples: 0 Hz and Nyquist have no conjugate
        # twin, the tone's bin has one
        k = np.arange(2000)
        x = 3.0 + 10.0 * np.cos(2 * np.pi * 50.0 * k / self.FS) + 0.5 * (-1.0) ** k
        freqs, mags = thd_spectrum(x, 1 / self.FS, 50.0, 5)
        assert freqs[-1] == self.FS / 2
        assert mags[0] == pytest.approx(3.0, rel=1e-12)
        assert mags[5] == pytest.approx(10.0, rel=1e-12)
        assert mags[-1] == pytest.approx(0.5, rel=1e-12)
        # an odd window of 1 999 samples has no Nyquist bin: its last bin has
        # a twin and keeps 2/n
        k = np.arange(1999)
        f0 = self.FS / 1999
        x = 3.0 + 10.0 * np.cos(2 * np.pi * f0 * k / self.FS) + 0.5 * np.cos(np.pi * 1998 * k / 1999)
        freqs, mags = thd_spectrum(x, 1 / self.FS, f0, 1)
        assert len(mags) == 1000 and freqs[-1] < self.FS / 2
        assert mags[0] == pytest.approx(3.0, rel=1e-12)
        assert mags[1] == pytest.approx(10.0, rel=1e-12)
        assert mags[-1] == pytest.approx(0.5, rel=1e-12)


class TestSwitchingFrequency:
    T_S = 50e-6

    def test_constant_levels(self):
        levels = np.tile([1, 0, -1], (100, 1))
        assert compute_switching_frequency(levels, self.T_S) == 0.0

    def test_single_phase_toggle(self):
        n = 201
        levels = np.zeros((n, 3), dtype=int)
        levels[1::2, 0] = 1
        f = compute_switching_frequency(levels, self.T_S)
        assert f == pytest.approx(20_000.0 / 3.0, rel=1e-9)

    def test_double_step_counts_twice(self):
        levels = np.array([[-1, 0, 0], [1, 0, 0]])
        f = compute_switching_frequency(levels, self.T_S)
        assert f == pytest.approx(2.0 / (3.0 * self.T_S))

    def test_duration_invariance_for_periodic_pattern(self):
        base = np.array([[0, 0, 0], [1, 0, 0]] * 50)
        tripled = np.vstack([base, base, base])
        f1 = compute_switching_frequency(base, self.T_S)
        f3 = compute_switching_frequency(tripled, self.T_S)
        assert f3 == pytest.approx(f1, rel=0.02)


class TestProfiles:
    def test_piecewise_lookup(self):
        prof = ((0.0, 1.0), (0.1, 5.0), (0.2, -2.0))
        assert profile_value(prof, 0.0) == 1.0
        assert profile_value(prof, 0.05) == 1.0
        assert profile_value(prof, 0.1) == 5.0
        assert profile_value(prof, 0.3) == -2.0

    def test_fundamental_is_the_speed_in_effect_at_the_last_step(self):
        # a profile entry after the run's end is never reached, so the THD
        # window is placed for the speed the run holds (56.25 Hz, not 100 Hz)
        late = ScenarioConfig(duration=0.2, speed_rpm=((0.0, 1125.0), (1.0, 2000.0)))
        assert late.fundamental_hz() == ScenarioConfig(duration=0.2).fundamental_hz() == 56.25
        # an entry reached at the last step, t = 3 999 * t_s, is in effect
        reached = ScenarioConfig(duration=0.2, speed_rpm=((0.0, 1125.0), (3999 * 50e-6, 2000.0)))
        assert reached.fundamental_hz() == 100.0
        beyond = ScenarioConfig(duration=0.2, speed_rpm=((0.0, 1125.0), (4000 * 50e-6, 2000.0)))
        assert beyond.fundamental_hz() == 56.25

    def test_reversed_rotation_has_the_frequency_of_its_magnitude(self):
        reversed_ = ScenarioConfig(speed_rpm=((0.0, -1125.0),))
        assert reversed_.fundamental_hz() == ScenarioConfig().fundamental_hz() == 56.25
        reversed_.check_metric_windows()
        with pytest.raises(ConfigError, match="at 0 Hz .*fundamental frequency must be positive"):
            ScenarioConfig(speed_rpm=((0.0, 0.0),)).check_metric_windows()

    def test_metrics_of_a_run_ignore_a_profile_entry_it_never_reaches(self):
        one = quick_cfg()
        two = quick_cfg(speed_rpm=((0.0, 1125.0), (1.0, 2000.0)))
        ctrl = ControllerConfig(n_h=1)
        series_one, series_two = run_scenario(one, ctrl), run_scenario(two, ctrl)
        assert series_one.data == series_two.data
        assert compute_metrics(series_two, two) == compute_metrics(series_one, one)

    def test_unsorted_profile_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(speed_rpm=((0.1, 5.0), (0.0, 1.0)))

    @pytest.mark.parametrize("name", ["speed_rpm", "torque_nm"])
    @pytest.mark.parametrize(
        "profile",
        [(), ((0.0,),), ((0.0, 1.0, 2.0),), (5.0,), (("a", "b"),), [(0.0, 1.0)]],
        ids=["empty", "single", "triple", "number", "strings", "list"],
    )
    def test_profile_that_is_not_time_value_pairs_rejected(self, name, profile):
        # an empty profile used to load and fail with IndexError on step 0
        with pytest.raises(ConfigError, match=f"{name} must be a nonempty tuple"):
            ScenarioConfig(**{name: profile})


INT_COLUMNS = ("s_m_a", "s_m_b", "s_m_c", "s_n_a", "s_n_b", "s_n_c", "nodes_m", "nodes_n")


def fresh_row(step):
    """A row of new value objects: floats, and ints beyond the small-int cache."""
    return tuple(
        1000 * step + k if name in INT_COLUMNS else step * 0.5 + k / 32.0
        for k, name in enumerate(TS_COLUMNS)
    )


class TestTimeSeries:
    def test_retains_about_eight_bytes_per_value(self):
        steps = 2000
        started = not tracemalloc.is_tracing()  # a running tracer is left running
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            series = TimeSeries()
            for step in range(steps):
                series.append(*fresh_row(step))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(series) == steps
        # a list of Python objects holds about 27 bytes per value
        assert retained / (steps * len(TS_COLUMNS)) <= 10.0

    def test_columns_are_float64_or_int64_copies(self):
        series = TimeSeries()
        series.append(*fresh_row(1))
        for name in TS_COLUMNS:
            typecode, dtype = ("q", np.int64) if name in INT_COLUMNS else ("d", np.float64)
            assert series.data[name].typecode == typecode, name
            col = series.column(name)
            assert col.dtype == dtype, name
            want = col.copy()
            col[0] = -7
            assert np.array_equal(series.column(name), want)
        series.append(*fresh_row(2))  # a view left exporting the buffer would raise BufferError
        assert len(series) == 2
        assert series.column("nodes_n").tolist() == [1028, 2028]
        assert series.column("t").tolist() == [0.5, 1.0]

    @pytest.mark.parametrize("name", ["s_m_a", "s_n_c", "nodes_m"])
    def test_float_in_a_level_or_node_column_is_rejected(self, name):
        row = list(fresh_row(1))
        row[TS_COLUMNS.index(name)] = 1.0
        with pytest.raises(TypeError):
            TimeSeries().append(*row)

    @pytest.mark.parametrize("bad", ["s_m_a", "nodes_n", 28, 30, 0], ids=str)
    def test_a_rejected_row_leaves_every_column_as_it_was(self, bad):
        # a float in an int column, or a row of the wrong length
        series = TimeSeries()
        series.append(*fresh_row(1))
        if isinstance(bad, str):
            row = list(fresh_row(2))
            row[TS_COLUMNS.index(bad)] = 1.0
            error = TypeError
        else:
            row = (fresh_row(2) * 2)[:bad]
            error = ValueError
        with pytest.raises(error):
            series.append(*row)
        assert len(series) == 1
        assert {len(col) for col in series.data.values()} == {1}
        series.append(*fresh_row(2))
        assert series.column("nodes_n").tolist() == [1028, 2028]

    def test_csv_prints_levels_as_ints_and_floats_as_the_float_format(self, tmp_path):
        series = TimeSeries()
        row = list(fresh_row(3))
        row[0] = 1 / 3
        series.append(*row)
        path = tmp_path / "ts.csv"
        series.write_csv(path)
        header, line = path.read_text().splitlines()
        assert header == ",".join(TS_COLUMNS)
        fields = dict(zip(TS_COLUMNS, line.split(","), strict=True))
        assert fields["t"] == "0.333333333" and fields["i_m_d"] == "1.53125"
        assert fields["s_m_a"] == "3018" and fields["nodes_n"] == "3028"


class TestRunScenario:
    def test_record_count(self):
        cfg = ScenarioConfig(duration=0.001, substeps=2)
        series = run_scenario(cfg, ControllerConfig(n_h=1))
        assert len(series) == 20

    def test_zero_source_scenario_stays_at_zero(self):
        cfg = quick_cfg(
            e_peak=0.0,
            speed_rpm=((0.0, 0.0),),
            torque_nm=((0.0, 0.0),),
            pi_kp=0.0, pi_ki=0.0,
        )
        series = run_scenario(cfg, ControllerConfig(n_h=1))
        assert np.abs(series.column("i_m_d")).max() == 0.0
        assert np.abs(series.column("i_n_al")).max() == 0.0
        assert np.abs(series.column("v_imb")).max() == 0.0
        assert series.column("v_dc").max() == 700.0

    def test_a_diverging_run_names_the_step_whose_plant_step_failed(self, monkeypatch):
        # a nanohenry stator inductance makes the explicit Euler integration
        # diverge within a few periods; `plant_step` is the one blow-up check
        steps = []
        plant_step = harness.plant_step

        def counted_step(*args):
            steps.append(len(steps))
            return plant_step(*args)

        monkeypatch.setattr(harness, "plant_step", counted_step)
        cfg = ScenarioConfig(duration=0.09, substeps=2, l_s=1e-9, horizons=(1,))
        with pytest.raises(SimulationBlowUpError) as err:
            run_scenario(cfg)
        assert str(err.value) == f"step {steps[-1]}: plant state diverged (|x| > 1e+09)"
        assert steps[-1] == 1

    def test_sequence_error_in_a_step_becomes_a_solver_error_naming_the_step(self, monkeypatch):
        failing = 2
        control_step = harness.control_step
        calls = []

        def step(*args):
            calls.append(args)
            if len(calls) > failing:
                CandidateList([(0.0, (0, 2, 0))], 1)  # raises SequenceError
            return control_step(*args)

        monkeypatch.setattr(harness, "control_step", step)
        with pytest.raises(SolverError, match=r"^step 2: sequence entries must lie in") as err:
            run_scenario(ScenarioConfig(duration=0.001, substeps=2), ControllerConfig(n_h=1))
        assert isinstance(err.value.__cause__, SequenceError) and len(calls) == failing + 1

    def test_other_value_error_in_a_step_is_not_taken_for_a_solver_error(self, monkeypatch):
        # a shape error from a bug must keep its type and traceback
        def step(*args):
            np.ones(2) @ np.ones(3)

        monkeypatch.setattr(harness, "control_step", step)
        with pytest.raises(ValueError, match="matmul") as err:
            run_scenario(ScenarioConfig(duration=0.001, substeps=2), ControllerConfig(n_h=1))
        assert not isinstance(err.value, SequenceError)

    def test_determinism_bytes(self, tmp_path):
        cfg = quick_cfg()
        ctrl = ControllerConfig(n_h=1, n_k=2, n_l=2)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_scenario(cfg, ctrl).write_csv(a)
        run_scenario(cfg, ctrl).write_csv(b)
        assert a.read_bytes() == b.read_bytes()


class TestMetricsPipeline:
    def test_metrics_are_finite_and_nonnegative(self):
        cfg = quick_cfg(duration=0.08)
        series = run_scenario(cfg, ControllerConfig(n_h=1, n_k=2, n_l=2))
        metrics = compute_metrics(series, cfg)
        for value in dataclasses.astuple(metrics):
            assert np.isfinite(value) and value >= 0.0

    def test_node_accounting_matches_series(self):
        cfg = quick_cfg()
        series = run_scenario(cfg, ControllerConfig(n_h=1))
        nodes = series.column("nodes_m") + series.column("nodes_n")
        got = compute_metrics(series, cfg)
        assert got.avg_nodes == pytest.approx(nodes.mean())
        assert got.max_nodes == nodes.max()

    def test_worst_step_work_is_bounded(self):
        # the default controller's startup current transient is the
        # decoder's worst case: 36 558 nodes in one step without a box
        # bound, 2 382 with a path-independent one, 942 with the
        # path-dependent one
        series = run_scenario(ScenarioConfig(duration=0.02))
        nodes = series.column("nodes_m") + series.column("nodes_n")
        assert nodes.max() <= 4000

    @pytest.mark.parametrize("n_h, duration", [(4, 0.01), (5, 0.002)])
    def test_long_horizon_worst_step_work_is_bounded(self, n_h, duration):
        # from standstill, the worst step at N_h = 4 visited 18 180 nodes
        # and at N_h = 5 143 319 with a path-independent box bound; the
        # path-dependent one cuts them to 2 865 and 2 142
        series = run_scenario(ScenarioConfig(duration=duration, horizons=(n_h,)))
        nodes = series.column("nodes_m") + series.column("nodes_n")
        assert nodes.max() <= 4000


class TestSweep:
    def test_grid_of_one(self):
        cfg = quick_cfg(horizons=(1,), n_ks=(1,), n_ls=(1,), lambdas=(0.1,), modes=("sequential",))
        rows = sweep(cfg)
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"

    def test_cross_product_row_count(self):
        cfg = quick_cfg(horizons=(1, 2), n_ks=(1, 2), modes=("sequential", "standard_sd"))
        rows = sweep(cfg)
        assert len(rows) == 8

    def test_failed_cell_recorded_not_raised(self):
        # zero-source scenario has zero fundamental current: THD fails but
        # the sweep must keep going
        cfg = quick_cfg(
            e_peak=0.0, speed_rpm=((0.0, 0.0),), torque_nm=((0.0, 0.0),),
            pi_kp=0.0, pi_ki=0.0, horizons=(1, 1),
        )
        rows = sweep(cfg)
        assert len(rows) == 2
        assert all(r["status"].startswith("error") for r in rows)

    @pytest.mark.parametrize("error", [TypeError, ValueError, SolverError])
    def test_only_a_run_failure_becomes_a_row(self, monkeypatch, error):
        # a bug in a cell, a plain ValueError included, keeps its type and
        # traceback; a failed solve is a row
        def step(*args):
            raise error("cell failure")

        monkeypatch.setattr(harness, "control_step", step)
        cfg = quick_cfg(horizons=(1,))
        if error is not SolverError:
            with pytest.raises(error, match="^cell failure$"):
                sweep(cfg)
        else:
            rows = sweep(cfg)
            assert [r["status"] for r in rows] == ["error: step 0: cell failure"]
            assert all(math.isnan(rows[0][name]) for name in harness.METRIC_COLUMNS)

    def test_each_distinct_controller_runs_once(self, monkeypatch):
        # standard_sd sets its lists to one, so its cells for n_k = 1 and 2
        # are one controller; the repeated cell gets a copy of the first row
        cfg = quick_cfg(horizons=(1,), n_ks=(1, 2), modes=("sequential", "standard_sd"))
        runs = []
        run = harness.run_scenario

        def counted_run(cfg, ctrl):
            runs.append(ctrl)
            return run(cfg, ctrl)

        monkeypatch.setattr(harness, "run_scenario", counted_run)
        rows = sweep(cfg)
        assert len(rows) == 4 and len(runs) == len(set(runs)) == 3
        assert rows[1] == rows[3] and rows[1] is not rows[3]
        cells = itertools.product(cfg.horizons, cfg.n_ks, cfg.n_ls, cfg.lambdas, cfg.modes)
        names = ("horizons", "n_ks", "n_ls", "lambdas", "modes")
        alone = [sweep(dataclasses.replace(cfg, **{n: (v,) for n, v in zip(names, cell)}))
                 for cell in cells]
        assert rows == [cell_rows[0] for cell_rows in alone]

    def test_csv_round_trip(self, tmp_path):
        cfg = quick_cfg(horizons=(1,))
        rows = sweep(cfg)
        path = tmp_path / "metrics.csv"
        write_sweep_csv(rows, path)
        text = path.read_text().splitlines()
        assert text[0].startswith("n_h,n_k,n_l,lambda,mode,status")
        assert len(text) == 2

    def test_node_count_grows_with_horizon(self):
        cfg = quick_cfg(horizons=(1, 3), n_ks=(1,), n_ls=(1,))
        rows = sweep(cfg)
        by_horizon = {r["n_h"]: r["avg_nodes"] for r in rows}
        assert by_horizon[3] > by_horizon[1]


class TestModeEquivalence:
    def test_single_candidate_sequential_matches_baseline_trajectory(self):
        # with one candidate per side the imbalance stage has nothing to
        # choose, so both modes must emit the same switches at every step
        cfg = quick_cfg(duration=0.02)
        seq = run_scenario(cfg, ControllerConfig(n_h=2, n_k=1, n_l=1))
        std = run_scenario(cfg, ControllerConfig(n_h=2, mode="standard_sd"))
        for col in ("s_m_a", "s_m_b", "s_m_c", "s_n_a", "s_n_b", "s_n_c"):
            assert (seq.column(col) == std.column(col)).all()
        assert (seq.column("v_imb") == std.column("v_imb")).all()


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = ScenarioConfig(
            duration=0.25,
            horizons=(1, 3),
            n_ks=(2,),
            modes=("sequential", "standard_sd"),
            speed_rpm=((0.0, 900.0), (0.1, 1125.0)),
            # a load torque that perfbench's seed 7 draws: 17 significant digits
            torque_nm=((0.0, 24.647665529666323),),
        )
        path = tmp_path / "scenario.ini"
        path.write_text(dump_config(cfg))
        loaded = load_config(path)
        assert loaded == cfg

    def test_round_trip_is_exact_for_every_float(self, tmp_path):
        # one ulp above each float default, profiles and lists included
        def up(value):
            if isinstance(value, tuple):
                return tuple(up(v) for v in value)
            return math.nextafter(value, math.inf) if isinstance(value, float) else value

        cfg = ScenarioConfig(
            **{f.name: up(f.default) for f in dataclasses.fields(ScenarioConfig)}
        )
        assert cfg != ScenarioConfig()
        path = tmp_path / "scenario.ini"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_unknown_key_rejected(self, tmp_path):
        # a misspelt key, and the retired `seed` and `lambda_v` keys that
        # nothing read
        path = tmp_path / "bad.ini"
        for section, key, value in (
            ("scenario", "duraton", "1.0"),
            ("scenario", "seed", "1"),
            ("controller", "lambda_v", "0.02"),
        ):
            path.write_text(f"[{section}]\n{key} = {value}\n")
            with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[{section}\\]"):
                load_config(path)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"duration = 0.2\n", "no section headers"),
            (b"[scenario]\nduration = 0.2\nduration = 0.3\n", "option 'duration' .* already exists"),
            (b"[scenario]\nduration = 0.2\n[scenario]\nt_s = 5e-5\n", "section 'scenario' already exists"),
            (b"[scenario]\nduration = 5%\n", "bad value for duration: '5%'"),
            (b"[scenario]\nduration = 0.2\xff\n", "can't decode byte 0xff"),
            (b"[DEFAULT]\nduration = 0.2\n", "unknown section \\[DEFAULT\\]"),
            (b"[DEFAULT]\nduration = 0.2\n[plant]\nc_dc = 1e-3\n", "unknown section \\[DEFAULT\\]"),
            (b"[foo]\nduration = 0.2\n", "unknown section \\[foo\\]"),
        ],
        ids=["no-header", "repeated-key", "repeated-section", "percent", "not-utf-8",
             "default-alone", "default-with-section", "unknown-section"],
    )
    def test_unreadable_file_is_a_config_error(self, tmp_path, content, message):
        # the parser's own errors, and keys under [DEFAULT], which would
        # otherwise load silently or count as keys of every other section
        path = tmp_path / "bad.ini"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_sections_cover_exactly_the_fields(self):
        keys = [name for names in harness._SECTIONS.values() for name in names]
        assert len(keys) == len(set(keys))
        assert set(keys) == {f.name for f in dataclasses.fields(ScenarioConfig)}

    def test_effort_weight_floor(self):
        # every shipped config passes; a positive but tiny weight is rejected
        # at load time instead of failing the factorization on step 0
        for path in sorted(CONFIG_DIR.glob("*.ini")):
            assert load_config(path).controller_grid()
        ScenarioConfig().controller()
        for n_h in (1, 3):
            with pytest.raises(ConfigError, match="too small"):
                ScenarioConfig(horizons=(n_h,), lambdas=(1e-12,)).controller()

    def test_too_many_candidate_pairs_rejected_at_load_time(self, monkeypatch):
        # 20000 x 20000 would ask the step plan for gigabytes; it must fail
        # as a config error before the plan allocates anything
        big = ScenarioConfig(n_ks=(20000,), n_ls=(20000,))
        grid = ScenarioConfig(n_ks=(20000, 4), n_ls=(20000,))
        sd = ScenarioConfig(n_ks=(20000,), modes=("standard_sd",))
        with monkeypatch.context() as m:
            m.setattr(prediction, "np", None)  # a plan allocation fails the test
            for cfg in (big, grid):
                with pytest.raises(ConfigError, match="n_k=20000 and n_l=20000 at N_h=3"):
                    cfg.controller_grid()
            with pytest.raises(ConfigError, match="n_k=20000 and n_l=20000 at N_h=3"):
                big.controller()
        # standard_sd keeps one candidate per side whatever the lists ask
        assert (sd.controller().n_k, sd.controller().n_l) == (1, 1)
        wide = ScenarioConfig(horizons=(1,), n_ks=(40,), n_ls=(30,)).controller()
        assert (wide.n_h, wide.n_k, wide.n_l) == (1, 40, 30)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("c_dc", 0.0), ("c_dc", -1e-3), ("inertia", 0.0), ("inertia", -0.05),
            ("v_dc_ref", 0.0), ("v_dc_ref", -700.0),
            ("duration", 0.0), ("t_s", -5e-5), ("substeps", 0),
        ],
    )
    def test_plant_constants_must_be_positive(self, name, value):
        # the capacitance, the inertia, the DC-link reference, the run's
        # length, the sampling period and the plant's substeps are run
        # constants, checked once here
        message = {
            "v_dc_ref": "v_dc_ref must be positive",
            "duration": "duration and t_s must be positive",
            "t_s": "duration and t_s must be positive",
            "substeps": "substeps must be >= 1",
        }.get(name, "c_dc and inertia must be positive")
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**{name: value})

    def test_bad_profile_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[references]\nspeed_rpm = fast\n")
        with pytest.raises(ConfigError):
            load_config(path)


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="reads CPython's collector count")
@pytest.mark.parametrize("omega_m0", [0.0, 1125.0 * 2.0 * math.pi / 60.0],
                         ids=["standstill", "1125rpm"])
def test_closed_loop_keeps_no_container_per_step(omega_m0):
    """`gc.get_count()[0]` is CPython's generation-0 count: container objects
    allocated less those freed since the last collection.  The loop runs
    near the collector's threshold, so a container kept per step would start
    collections of a millisecond and more inside the measured loop; twice
    the steps must not grow the count by more than the run's fixed part."""
    cfg = ScenarioConfig(omega_m0=omega_m0)
    run_scenario(dataclasses.replace(cfg, duration=50 * cfg.t_s))  # generates the kernels
    growth = []
    for steps in (200, 400):
        run = dataclasses.replace(cfg, duration=steps * cfg.t_s)
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            run_scenario(run)
            growth.append(gc.get_count()[0] - before)
        finally:
            gc.enable()
    assert growth[1] - growth[0] <= 2, growth
