"""Behaviour-preserving changes must reproduce the benchmark's golden runs.

Runs each of perfbench's seed-0 workloads (`startup`, `steady`, `steady_sd`
and `sweep`) through the public API and compares its CSV with
`perfbench/golden/`, as perfbench's golden check does: every timeseries
column except the `nodes_*` telemetry, and every sweep column except
`avg_nodes`.  The test only reads the benchmark's files, so it follows a
re-recorded golden file.
"""

import csv
import gzip
import importlib.util
import sys
from pathlib import Path

import pytest

from seqmpc import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_workloads():
    """`perfbench/workloads.py`, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def read_columns(fh) -> dict:
    header, *rows = csv.reader(fh)
    return dict(zip(header, zip(*rows)))


def assert_matches_golden(name, path, skipped):
    """Every column of workload `name`'s golden file but the `skipped` ones
    is in the CSV at `path`, row for row."""
    with open(path, newline="") as fh:
        got = read_columns(fh)
    with gzip.open(PERFBENCH / "golden" / f"{name}.csv.gz", "rt", newline="") as fh:
        want = read_columns(fh)
    for column, values in want.items():
        if skipped(column):
            continue
        assert column in got, f"column {column} is missing"
        row = next((i for i, (a, b) in enumerate(zip(got[column], values)) if a != b), None)
        assert row is None, f"column {column} differs from row {row}"
        assert len(got[column]) == len(values), f"column {column} has another length"


@pytest.mark.parametrize("name", ["startup", "steady", "steady_sd"])
def test_timeseries_matches_golden(name, tmp_path):
    workloads = perfbench_workloads()
    path = tmp_path / "timeseries.csv"
    harness.run_scenario(workloads.scenario(name, 0)).write_csv(path)
    assert_matches_golden(name, path, lambda column: column.startswith("nodes_"))


def test_sweep_matches_golden(tmp_path):
    workloads = perfbench_workloads()
    path = tmp_path / "metrics.csv"
    harness.write_sweep_csv(harness.sweep(workloads.scenario("sweep", 0)), path)
    assert_matches_golden("sweep", path, lambda column: column == "avg_nodes")
