"""tools/bench_pairs.py, the paired benchmark runner: its summary of
synthetic runs (medians, quartiles, pairs won, ties, the unresolved rule,
the units attempted next to the peak RSS), the seed it passes on, and a
usage error.  No benchmark runs here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool()

METRICS = [
    {"name": "steps_per_s", "better": "higher", "bound": 0.24},
    {"name": "ctrl_ms_p50", "better": "lower", "bound": 0.25},
]


def runs(parent, change, name="ctrl_ms_p50", workload="steady"):
    """Records of len(parent) pairs, one metric each, in the tool's order."""
    out = []
    for pair, values in enumerate(zip(parent, change)):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in sides:
            out.append({"side": side, "workload": workload, "pair": pair, "exit": 0,
                        "correct": True, name: values[side == "change"]})
    return out


def test_medians_quartiles_and_wins():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 3.0, 4.0]
    got = bench_pairs.summarize(runs(parent, change), METRICS)["steady"]
    assert got["pairs"] == 5 and got["all_correct"]
    assert got["steps_per_s"] is None  # reported by no run
    p50 = got["ctrl_ms_p50"]
    assert p50["parent_median"] == 3.0 and p50["change_median"] == 3.0
    assert p50["change_rel"] == 0.0
    # lower is better: pairs 0, 3 and 4 go to the change, pair 2 to the
    # parent, and the tie of pair 1 to neither
    assert (p50["change_wins"], p50["parent_wins"]) == (3, 1)
    assert p50["parent_quartiles"] == [2.0, 4.0]  # inclusive method
    assert p50["parent_spread_rel"] == pytest.approx(2.0 / 3.0)
    assert p50["bound"] == 0.25 and p50["unresolved"]
    assert not p50["worse_beyond_bound"]


def test_higher_is_better_and_worse_beyond_bound():
    parent = [100.0, 101.0, 100.0, 99.0]
    change = [70.0, 72.0, 101.0, 71.0]
    got = bench_pairs.summarize(runs(parent, change, "steps_per_s"), METRICS)["steady"]
    sps = got["steps_per_s"]
    assert (sps["change_wins"], sps["parent_wins"]) == (1, 3)
    assert sps["parent_median"] == 100.0 and sps["change_median"] == 71.5
    assert sps["change_rel"] == pytest.approx(-0.285)
    assert sps["parent_quartiles"] == [99.75, 100.25]
    assert not sps["unresolved"]  # spread 0.5 % against a 24 % bound
    assert sps["worse_beyond_bound"]  # 28.5 % fewer steps per second


def test_unresolved_only_when_the_spread_exceeds_the_bound():
    # quartiles 1.0 and 1.25 about the median 1.0: a spread of exactly the bound
    parent = [1.0, 1.0, 1.0, 1.25, 1.25]
    got = bench_pairs.summarize(runs(parent, parent), METRICS)["steady"]["ctrl_ms_p50"]
    assert got["parent_quartiles"] == [1.0, 1.25] and got["parent_spread_rel"] == 0.25
    assert not got["unresolved"]
    assert (got["change_wins"], got["parent_wins"]) == (0, 0)  # five ties
    wider = bench_pairs.summarize(runs([1.0, 1.0, 1.0, 1.5, 1.5], parent), METRICS)
    assert wider["steady"]["ctrl_ms_p50"]["unresolved"]


def test_failed_runs_are_left_out_and_flagged():
    records = runs([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) + runs([5.0], [5.0], workload="sweep")
    records[0].update(exit=1, correct=False, ctrl_ms_p50=None)  # pair 0's parent
    got = bench_pairs.summarize(records, METRICS)
    assert list(got) == ["steady", "sweep"]
    steady = got["steady"]["ctrl_ms_p50"]
    assert not got["steady"]["all_correct"] and got["sweep"]["all_correct"]
    assert steady["parent_median"] == 2.5 and steady["parent_quartiles"] == [2.25, 2.75]
    assert (steady["change_wins"], steady["parent_wins"]) == (2, 0)
    assert got["sweep"]["ctrl_ms_p50"]["parent_quartiles"] == [5.0, 5.0]


def test_the_summary_is_json():
    got = bench_pairs.summarize(runs([1.0, 2.0], [2.0, 1.0]), METRICS)
    assert json.loads(json.dumps(got)) == got


def test_an_unknown_workload_is_a_usage_error(tmp_path):
    out = tmp_path / "bench.json"
    result = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "HEAD", "--out", str(out), "--workloads", "nope"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2 and "invalid choice: 'nope'" in result.stderr
    assert not out.exists()


def test_each_workload_gives_each_sides_attempted_range():
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    records = runs([45.5, 45.4, 43.9], [43.3, 43.2, 41.6], name="peak_rss_mb", workload="sweep")
    # records alternate parent, change / change, parent / parent, change
    for record, attempted in zip(records, [12, 12, 11, 12, 8, 9]):
        record["attempted"] = attempted
    records[-1].pop("attempted")  # a run without a result reports none
    got = bench_pairs.summarize(records, metrics)["sweep"]
    assert got["attempted"] == {"parent": [8, 12], "change": [11, 12]}
    assert (got["peak_rss_mb"]["change_wins"], got["peak_rss_mb"]["parent_wins"]) == (3, 0)
    other = bench_pairs.summarize(runs([1.0], [1.0]), METRICS)["steady"]
    assert other["attempted"] == {"parent": None, "change": None}


def test_the_seed_reaches_the_command_and_the_record_name(tmp_path, monkeypatch):
    calls = []

    def run_once(commit, workload, seed):
        calls.append((workload, seed))
        return {"exit": 0, "correct": True, "attempted": 3, "peak_rss_mb": 40.0}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    # no `git rev-parse`: the test runs outside a git checkout too
    monkeypatch.setattr(bench_pairs, "resolve", lambda commit: commit)
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["HEAD", "HEAD", "--out", str(out), "--pairs", "2",
                             "--workloads", "steady", "--seed", "7"])
    assert code == 0 and calls == [("steady", 7)] * 4
    got = json.loads(out.read_text())
    assert got["seed"] == 7
    assert got["command"][-6:] == ["--workload", "W", "--seed", "7", "--trace", "0"]
    assert got["summary"]["steady"]["attempted"] == {
        "parent": [3, 3], "change": [3, 3]
    }
    assert bench_pairs.record_name("steady", 7) == "steady-seed7-trace0.json"
    assert bench_pairs.run_args(0) == ("--seed", "0", "--trace", "0")
