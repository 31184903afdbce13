"""tools/output_hashes.py, the output-hash check: the digests it prints are
those of the files the CLI writes, and a failing command fails the tool."""

import hashlib
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from seqmpc.cli import main
from seqmpc.harness import ScenarioConfig, dump_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_hashes.py"


def write_config(path, **fields):
    path.write_text(dump_config(ScenarioConfig(**fields)))
    return path


def tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True)


def test_digests_are_those_of_the_files_the_cli_writes(tmp_path):
    run_cfg = write_config(tmp_path / "run.ini", duration=0.1, substeps=2, horizons=(1,))
    sweep_cfg = write_config(tmp_path / "sweep.ini", duration=0.1, substeps=2, horizons=(1,))
    want = []
    for command, cfg in (("run", run_cfg), ("sweep", sweep_cfg)):
        out = tmp_path / command
        result = CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        want += [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {command}/{p.name}"
                 for p in sorted(out.iterdir())]
    assert [line.split("  ")[1] for line in want] == [
        "run/metrics.csv", "run/spectrum.csv", "run/timeseries.csv", "sweep/metrics.csv"]
    result = tool(run_cfg, sweep_cfg)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == want


def test_a_failing_command_fails_the_tool(tmp_path):
    # 5 THD periods at 1125 rpm take 1 778 steps; 0.01 s has 200
    short = write_config(tmp_path / "short.ini", duration=0.01)
    result = tool(short, short)
    assert result.returncode == 1 and result.stdout == ""
    assert "run" in result.stderr and "exited 1" in result.stderr


def test_wrong_argument_count_is_a_usage_error():
    result = tool("configs/base.ini")
    assert result.returncode == 1 and "Usage" in result.stderr
