"""Behaviour-preserving changes must reproduce the benchmark's golden runs.

Runs perfbench's seed-0 `startup` and `steady_sd` scenarios through
`run_scenario` and compares every timeseries column except the `nodes_*`
telemetry with `perfbench/golden/`, as perfbench's golden check does.  The
test only reads the benchmark's files, so it follows a re-recorded golden
file.
"""

import csv
import gzip
import importlib.util
import sys
from pathlib import Path

import pytest

from seqmpc.harness import run_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_scenario(name: str):
    """`perfbench/workloads.py`'s seed-0 scenario of workload `name`."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.scenario(name, 0)


def read_columns(fh) -> dict:
    header, *rows = csv.reader(fh)
    return dict(zip(header, zip(*rows)))


@pytest.mark.parametrize("name", ["startup", "steady_sd"])
def test_timeseries_matches_golden(name, tmp_path):
    path = tmp_path / "timeseries.csv"
    run_scenario(perfbench_scenario(name)).write_csv(path)
    with open(path, newline="") as fh:
        got = read_columns(fh)
    with gzip.open(PERFBENCH / "golden" / f"{name}.csv.gz", "rt", newline="") as fh:
        want = read_columns(fh)
    for column, values in want.items():
        if column.startswith("nodes_"):
            continue
        assert column in got, f"column {column} is missing"
        row = next((i for i, (a, b) in enumerate(zip(got[column], values)) if a != b), None)
        assert row is None, f"column {column} differs from row {row}"
        assert len(got[column]) == len(values), f"column {column} has another length"
