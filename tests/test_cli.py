import pytest
from click.testing import CliRunner

from seqmpc import harness, solver
from seqmpc.cli import main
from seqmpc.harness import ScenarioConfig, dump_config
from seqmpc.prediction import SequenceError
from seqmpc.solver import NotPositiveDefiniteError

QUICK_ARGS = ["--duration", "0.04", "--substeps", "2", "--horizon", "1", "--nk", "2", "--nl", "2"]


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def quick_config(tmp_path):
    cfg = ScenarioConfig(duration=0.04, substeps=2, thd_periods=1, horizons=(1,), n_ks=(2,), n_ls=(2,))
    path = tmp_path / "scenario.ini"
    path.write_text(dump_config(cfg))
    return path


def steady_window_config(tmp_path, fraction):
    """An 800-step scenario whose one-period THD window fits, with
    `steady_fraction` leaving 0 steps (1e-5) or 1 step (0.00125) to the
    steady window."""
    cfg = ScenarioConfig(duration=0.04, thd_periods=1, steady_fraction=fraction)
    path = tmp_path / "steady.ini"
    path.write_text(dump_config(cfg))
    return path


class TestRun:
    def test_writes_outputs(self, runner, tmp_path, quick_config):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["run", "--config", str(quick_config), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert (out / "timeseries.csv").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "spectrum.csv").exists()
        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header.startswith("t,i_m_d,i_m_q")

    def test_flag_overrides(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["run", "--duration", "0.1", "--substeps", "2", "--horizon", "1",
             "--mode", "standard_sd", "--lambda", "0.05", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        metrics_line = (out / "metrics.csv").read_text().splitlines()[1]
        assert metrics_line.startswith("1,1,1,0.05,standard_sd")

    def test_window_too_long_exits_one(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", *QUICK_ARGS, "--out", str(out)])
        assert result.exit_code == 1

    def test_run_shorter_than_thd_window_exits_one_before_step_zero(
        self, runner, tmp_path, monkeypatch
    ):
        # 5 periods at 1125 rpm take 1 778 steps (~89 ms); 80 ms has 1 600
        steps = []
        monkeypatch.setattr(harness, "control_step", lambda *args: steps.append(args))
        result = runner.invoke(main, ["run", "--duration", "0.08", "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert "config error:" in result.output and "THD window" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not steps and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fraction", [1e-5, 0.00125])
    def test_steady_window_under_two_steps_exits_one_before_step_zero(
        self, runner, tmp_path, monkeypatch, fraction
    ):
        steps = []
        monkeypatch.setattr(harness, "control_step", lambda *args: steps.append(args))
        result = runner.invoke(
            main, ["run", "--config", str(steady_window_config(tmp_path, fraction)),
                   "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1, result.output
        assert "config error:" in result.output and "steady_fraction" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not steps and not (tmp_path / "o").exists()

    def test_bad_config_exits_one(self, runner, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nmystery = 1\n")
        result = runner.invoke(main, ["run", "--config", str(bad)])
        assert result.exit_code == 1

    def test_multi_valued_grid_rejected_for_run(self, runner, tmp_path):
        cfg = ScenarioConfig(horizons=(1, 2))
        path = tmp_path / "grid.ini"
        path.write_text(dump_config(cfg))
        result = runner.invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "flags", [["--nk", "0"], ["--horizon", "0"], ["--lambda", "0"], ["--lambda", "-1"]]
    )
    def test_bad_controller_setting_exits_one(self, runner, tmp_path, flags):
        result = runner.invoke(
            main, ["run", "--duration", "0.01", *flags, "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1, result.output
        assert "config error:" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not (tmp_path / "o").exists()

    def test_horizon_beyond_decoder_depth_exits_one(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "--horizon", "7", "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert "config error: n_h must be <= 6" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not (tmp_path / "o").exists()

    def test_tiny_effort_weight_exits_one(self, runner, tmp_path):
        # positive, but too small for the subproblems to factor on step 0
        result = runner.invoke(
            main,
            ["run", "--duration", "0.01", "--lambda", "1e-12", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1, result.output
        assert "config error:" in result.output and "too small" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("references", "t_e_max", "nan"),
            ("references", "pi_clamp", "-5"),
            ("references", "speed_kp", "nan"),
            ("controller", "lambdas", "inf"),
            ("metrics", "steady_fraction", "0"),
            ("metrics", "steady_fraction", "1.5"),
            ("metrics", "thd_periods", "0"),
            ("plant", "r_s", "-1"),
            ("plant", "l_n", "0"),
            ("plant", "inertia", "0"),
            ("plant", "c_dc", "0"),
            ("initial", "v_dc0", "inf"),
            ("initial", "v_imb0", "800"),
        ],
    )
    def test_bad_scenario_number_exits_one(
        self, runner, tmp_path, monkeypatch, section, key, value
    ):
        steps = []
        monkeypatch.setattr(harness, "control_step", lambda *args: steps.append(args))
        path = tmp_path / "bad.ini"
        path.write_text(f"[scenario]\nduration = 0.1\n[{section}]\n{key} = {value}\n")
        result = runner.invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert "config error:" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not steps and not (tmp_path / "o").exists()

    def test_blowup_exits_two(self, runner, tmp_path):
        # a microhenry-scale stator inductance makes the explicit Euler
        # integration violently unstable within a few periods
        cfg = ScenarioConfig(duration=0.09, substeps=2, l_s=1e-9, horizons=(1,))
        path = tmp_path / "unstable.ini"
        path.write_text(dump_config(cfg))
        result = runner.invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "blew up" in result.output

    def test_dc_link_collapse_exits_two(self, runner, tmp_path):
        # a nanofarad DC link discharges below zero within two periods,
        # whatever margin the effort weight keeps over the factorization
        cfg = ScenarioConfig(duration=0.09, c_dc=1e-9)
        path = tmp_path / "collapse.ini"
        path.write_text(dump_config(cfg))
        result = runner.invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "simulation blew up: step 2: DC-link voltage collapsed" in result.output
        assert not (tmp_path / "o").exists()

    def test_solver_error_names_its_step_and_exits_three(self, runner, tmp_path, monkeypatch):
        # every factorization from control step `failing` on fails
        failing = 3
        steps = []
        control_step, reverse_cholesky = harness.control_step, solver.reverse_cholesky

        def counted_step(*args):
            steps.append(len(steps))
            return control_step(*args)

        def factor(q, *out):
            if len(steps) > failing:
                raise NotPositiveDefiniteError(2)
            return reverse_cholesky(q, *out)

        monkeypatch.setattr(harness, "control_step", counted_step)
        monkeypatch.setattr(solver, "reverse_cholesky", factor)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", "--duration", "0.1", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert f"solver error: step {failing}: matrix is not positive definite (pivot 2)" in result.output
        assert steps == list(range(failing + 1)) and not out.exists()

    def test_sequence_error_in_a_step_names_its_step_and_exits_three(
        self, runner, tmp_path, monkeypatch
    ):
        # a check inside control step `failing` raises; no traceback escapes
        failing = 3
        steps = []
        control_step = harness.control_step

        def checked_step(*args):
            steps.append(len(steps))
            if len(steps) > failing:
                raise SequenceError("candidate costs must be nondecreasing")
            return control_step(*args)

        monkeypatch.setattr(harness, "control_step", checked_step)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", "--duration", "0.1", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert f"solver error: step {failing}: candidate costs must be nondecreasing" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert steps == list(range(failing + 1)) and not out.exists()


class TestSweep:
    def test_sweep_writes_rows(self, runner, tmp_path, quick_config):
        out = tmp_path / "sweepout"
        result = runner.invoke(
            main,
            ["sweep", "--config", str(quick_config), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one configuration

    def test_sweep_shorter_than_thd_window_exits_one_before_step_zero(
        self, runner, tmp_path, monkeypatch
    ):
        steps = []
        monkeypatch.setattr(harness, "control_step", lambda *args: steps.append(args))
        result = runner.invoke(
            main, ["sweep", "--duration", "0.02", "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1, result.output
        assert "config error:" in result.output and "THD window" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not steps and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fraction", [1e-5, 0.00125])
    def test_steady_window_under_two_steps_exits_one_before_step_zero(
        self, runner, tmp_path, monkeypatch, fraction
    ):
        steps = []
        monkeypatch.setattr(harness, "control_step", lambda *args: steps.append(args))
        result = runner.invoke(
            main, ["sweep", "--config", str(steady_window_config(tmp_path, fraction)),
                   "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1, result.output
        assert "config error:" in result.output and "steady_fraction" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not steps and not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags", [["--nk", "0"], ["--horizon", "0"], ["--lambda", "0"], ["--horizon", "7"]]
    )
    def test_bad_controller_setting_exits_one(self, runner, tmp_path, flags):
        result = runner.invoke(
            main, ["sweep", "--duration", "0.01", *flags, "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1, result.output
        assert "config error:" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not (tmp_path / "o").exists()


    def test_tiny_effort_weight_exits_one(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", "--duration", "0.01", "--lambda", "1e-12", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1, result.output
        assert "config error:" in result.output and "too small" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert not (tmp_path / "o").exists()


class TestUsageErrors:
    """click's usage errors exit 1, like a config error; 2 means a blow-up."""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--horizon", "abc"], "Invalid value for '--horizon'"),
            (["--bogus", "1"], "No such option"),
            (["--mode", "x"], "'sequential', 'standard_sd'"),
            (["--seed", "1"], "No such option"),
        ],
        ids=["horizon-abc", "bogus", "mode-x", "seed"],
    )
    def test_bad_flag_exits_one(self, runner, tmp_path, command, flags, message):
        result = runner.invoke(main, [command, *flags, "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert message in result.output
        assert not (tmp_path / "o").exists()

    def test_unknown_command_exits_one(self, runner):
        result = runner.invoke(main, ["nosuch"])
        assert result.exit_code == 1, result.output
        assert "No such command" in result.output


class TestVerify:
    def test_verify_passes(self, runner):
        result = runner.invoke(main, ["verify", "--seed", "3", "--cases", "5"])
        assert result.exit_code == 0, result.output
        assert "pass  kbest_vs_bruteforce" in result.output
