"""Run the benchmark in alternating parent/change pairs and summarise it.

Usage: python tools/bench_pairs.py PARENT CHANGE --out FILE [--pairs N]
                                   [--workloads W ...] [--seed S]

PARENT and CHANGE are commits of this repository.  For each of N pairs
(default 5) and each workload W (default: every workload of BENCHMARK.json),
the benchmark command of BENCHMARK.json runs once on each commit as
`python3 perfbench/run.py --workload W --seed S --trace 0` (S defaults to 0;
another seed checks a claim on inputs it was not written on), the parent
first in even-numbered pairs and the change first in odd ones.  Runs go one
at a time, each in a fresh `git archive` checkout in a temporary directory
that is removed after the run.

FILE gets one JSON object: the two commits, the seed, the command, and per
run its side, commit, workload, pair, exit code, `correct`, `attempted`,
`failed`, the perfbench checks, the five end-to-end metrics and
`tail_percentile`, the percentile perfbench chose for `ctrl_ms_tail` (from
the run's record under perfbench/_out/results/).  Its `summary` holds per workload and
metric the parent and change medians, the change relative to the parent,
the pairs each side won by the metric's `better` (a tie counts for
neither), the parent's inclusive quartiles and their spread relative to
its median next to the metric's `bound`, `unresolved` when that spread
exceeds the bound, and `worse_beyond_bound` when the change's median is
worse than the parent's by more than the bound, and per workload each
side's fewest and most `attempted` units, since a run that completes more
units reads a higher `peak_rss_mb`.  The host, the method and
a verdict are for the reader to add.

Exits 1 if any run exits non-zero or is not `correct`, after writing FILE,
and 2 on a usage error.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_args(seed: int) -> tuple:
    """The benchmark command's arguments after `--workload W`."""
    return ("--seed", str(seed), "--trace", "0")


def record_name(workload: str, seed: int) -> str:
    """The file name of a run's record under perfbench/_out/results/."""
    return f"{workload}-seed{seed}-trace0.json"


def quartiles(values) -> list:
    """[q1, q3] of `values`, inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs, end_to_end) -> dict:
    """{workload: {"pairs", "all_correct", "attempted", metric: {...}}} of
    `runs` (the records this tool writes) for each metric of `end_to_end`
    (BENCHMARK.json's list of {"name", "better", "bound"}).  "attempted" is
    each side's [fewest, most] units, None for a side whose runs report none.
    A metric that no parent run or no change run reports is None.  The
    metrics are positive, so each median has a relative change."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        pairs = {}
        for run in mine:
            pairs.setdefault(run["pair"], {})[run["side"]] = run
        entry = {
            "pairs": len(pairs),
            "all_correct": all(run["exit"] == 0 and run["correct"] for run in mine),
            "attempted": {},
        }
        for side in ("parent", "change"):
            counts = [run["attempted"] for run in mine if run["side"] == side and "attempted" in run]
            entry["attempted"][side] = [min(counts), max(counts)] if counts else None
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "higher" else -1
            values = {
                side: [run[name] for run in mine if run["side"] == side and run.get(name) is not None]
                for side in ("parent", "change")
            }
            if not values["parent"] or not values["change"]:
                entry[name] = None
                continue
            wins = {"parent": 0, "change": 0}
            for pair in pairs.values():
                if any(pair.get(side, {}).get(name) is None for side in wins):
                    continue
                gain = sign * (pair["change"][name] - pair["parent"][name])
                if gain:
                    wins["change" if gain > 0 else "parent"] += 1
            parent, change = (statistics.median(values[side]) for side in ("parent", "change"))
            q1, q3 = quartiles(values["parent"])
            spread = (q3 - q1) / parent
            entry[name] = {
                "parent_median": parent,
                "change_median": change,
                "change_rel": change / parent - 1,
                "change_wins": wins["change"],
                "parent_wins": wins["parent"],
                "parent_quartiles": [q1, q3],
                "parent_spread_rel": spread,
                "bound": bound,
                "unresolved": spread > bound,
                "worse_beyond_bound": sign * (change / parent - 1) < -bound,
            }
        summary[workload] = entry
    return summary


def checkout(commit: str, dest: Path) -> None:
    """The files of `commit` extracted into `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_once(commit: str, workload: str, seed: int) -> dict:
    """Exit code, outcome, checks, end-to-end metrics and tail percentile of
    one benchmark run on a fresh checkout of `commit`."""
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        checkout(commit, tmp)
        proc = subprocess.run([*BENCHMARK["command"], "--workload", workload, *run_args(seed)],
                              cwd=tmp, capture_output=True, text=True)
        out = {"exit": proc.returncode, "correct": False}
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            record = json.loads(
                (tmp / "perfbench" / "_out" / "results" / record_name(workload, seed)).read_text()
            )
        except (IndexError, ValueError, OSError) as exc:
            out["error"] = f"no result: {exc}; stderr: {proc.stderr.strip()[-300:]}"
            return out
        out.update(correct=result["correct"], attempted=result["attempted"],
                   failed=result["failed"], checks=record.get("checks"))
        for metric in BENCHMARK["end_to_end"]:
            out[metric["name"]] = result["metrics"].get(metric["name"], {}).get("value")
        samples = record["meta"].get("samples") or {}
        out["tail_percentile"] = samples.get("ctrl_ms_tail", {}).get("percentile")
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def resolve(commit: str) -> str:
    """The short hash of `commit`; raises ValueError if it names no commit."""
    proc = subprocess.run(["git", "rev-parse", "--short", "--verify", f"{commit}^{{commit}}"],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        raise ValueError(f"{commit!r} names no commit of this repository")
    return proc.stdout.strip()


def main(argv=None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        commits = {"parent": resolve(args.parent), "change": resolve(args.change)}
    except ValueError as exc:
        parser.error(str(exc))

    runs = []
    for pair in range(args.pairs):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workloads:
            for side in sides:
                run = {"side": side, "commit": commits[side], "workload": workload,
                       "pair": pair, "time": time.strftime("%H:%M:%S")}
                run.update(run_once(commits[side], workload, args.seed))
                runs.append(run)
                print(f"pair {pair} {workload} {side} {commits[side]}: exit {run['exit']}, "
                      f"correct {run['correct']}", file=sys.stderr)

    args.out.write_text(json.dumps({
        **commits,
        "seed": args.seed,
        "command": [*BENCHMARK["command"], "--workload", "W", *run_args(args.seed)],
        "pairs": args.pairs,
        "summary": summarize(runs, BENCHMARK["end_to_end"]),
        "runs": runs,
    }, indent=1) + "\n")
    return 0 if all(run["exit"] == 0 and run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
