#!/usr/bin/env python3
"""Closed-loop benchmark of the seqmpc simulator.

    python3 perfbench/run.py --workload steady --seed 0 --seconds 10 --trace 0

Runs one workload (see workloads.py) from this process through the public
API, checks the outputs, prints every metric by name with its unit, and ends
with one JSON line {"correct", "attempted", "failed", "metrics"}.  A full
record with the run's metadata goes to perfbench/_out/results/.

--trace 0 measures the end-to-end metrics, with one timing wrapper on
`seqmpc.harness.control_step` and nothing else:

  setup_s       interpreter start, import and scenario set-up up to the first
                control step; median of SETUP_PROBES fresh interpreters
  steps_per_s   simulated periods per second over the measured window (after
                the settle steps); on sweep, all periods of all cells over
                the whole sweep call
  ctrl_ms_p50   time of one control step, median over measured steps
  ctrl_ms_tail  the highest percentile of TAIL_LADDER with >= 10 steps beyond
                it; percentile and sample count are in the metadata
  peak_rss_mb   peak resident set of this process or of any child

The three timings are host times scaled to a reference host speed.  Before
each control step the timing wrapper runs one pass of a fixed loop that
shares no code with the program (spans.reference_pass), outside the step's
time and outside the measured window.  A step's time, and its stretch of the
window, are multiplied by REFERENCE_CAL_MS over the mean of the passes just
before and just after it.  On a shared 2-core host the raw timings spread by
12-32 % (quartiles over ten runs) and change within a run; scaled, they
spread by 2-9 %.  The raw host timings and the median pass are in the
metadata.

It also prints, without putting them in the JSON line, the control quality
from compute_metrics (thd_machine, rmse_te, rmse_p, rmse_v_imb; on sweep the
mean over its cells) for workloads whose run covers the THD window.  They are
deterministic per seed, but their spread from seed to seed (6-85 %) exceeds
any bound an end-to-end metric may have; the golden check of seed 0 catches
any change in them.

--trace 1 runs pairs of units, one untraced and one traced, and reports the
per-layer metrics of spans.LAYER_METRICS from the traced ones, including
trace.overhead_frac = traced / untraced wall time - 1, which carries the
host's noise between the two units (about +-15 %).

Output checks (outside the timed region), each failure counting toward
`failed`: seed 0 is compared with the golden files (every timeseries column
except nodes_*, every sweep column except avg_nodes); repeated units must be
identical to the first, and a traced unit to its untraced twin; a sample of
control steps of the first untraced unit is re-run and each k-best list
compared with enumeration (`brute_force_kbest`); the span tree must be
consistent; every wrapper must be gone afterwards.

--record-golden (seed 0 only) writes the golden files instead of comparing.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
GOLDEN = HERE / "golden"

sys.path[:0] = [str(SRC), str(HERE)]
try:
    import numpy as np
    import seqmpc
    from seqmpc import harness, solver
except ImportError as exc:
    sys.exit(f"perfbench: cannot import seqmpc from {SRC}: {exc}")
if not Path(seqmpc.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: seqmpc was imported from {seqmpc.__file__}, not from {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
TAIL_LADDER = (99.9, 99.0, 97.5, 90.0, 50.0)
MIN_BEYOND = 10
#: control steps re-checked against enumeration per run (each k-best list
#: costs ~0.55 s at N_h=3)
CHECK_STEPS = {0: 1, 1: 2}
KBEST_ATOL = 1e-9
#: typical calibration pass (spans.reference_pass) on the reference host:
#: Python 3.11, numpy 2.4, a shared 2-core 2.1 GHz Xeon sandbox; ms
REFERENCE_CAL_MS = 0.4

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "ctrl_ms_p50": "ms",
    "ctrl_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
QUALITY = {"thd_machine": "ratio", "rmse_te": "N.m", "rmse_p": "W", "rmse_v_imb": "V"}


# ---------------------------------------------------------------------------
# attempts and failures
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted runs or sweep cells, and which of them failed and why."""

    def __init__(self):
        self.ok = {}
        self.reasons = []

    def attempt(self, key):
        self.ok.setdefault(key, True)

    def fail(self, key, reason):
        self.ok[key] = False
        self.reasons.append(f"{key}: {reason}")

    @property
    def failed(self):
        return sum(not ok for ok in self.ok.values())


# ---------------------------------------------------------------------------
# one unit
# ---------------------------------------------------------------------------


class Unit:
    """One call into the public API, timed, then reduced to what the checks
    and metrics need so that only one result is in memory at a time."""

    def __init__(self, name, cfg, key, keep_steps=(), tracer=None, calibrate=False):
        self.name = name
        self.key = key
        self.cfg = cfg
        self.kind = workloads.WORKLOADS[name].kind
        timer = spans.StepTimer(cfg.t_s, keep_steps, calibrate)
        with tracer if tracer is not None else timer:
            self.start = time.perf_counter()
            result = workloads.run_unit(harness, name, cfg)
            self.end = time.perf_counter()
            if tracer is not None:
                self._finish(result)
        if tracer is None:
            self._finish(result)
        self.records = timer.records
        self.kept = timer.kept

    def _finish(self, result):
        """Result CSV, control quality and a digest of the output; these are
        timed as harness layers when the unit is traced."""
        path = OUT / self.name
        path.mkdir(parents=True, exist_ok=True)
        self.quality = {}
        if self.kind == "sweep":
            self.csv = path / "sweep.csv"
            harness.write_sweep_csv(result, self.csv)
            self.rows = result
            ok = [row for row in result if row["status"] == "ok"]
            if ok:
                self.quality = {q: statistics.fmean(row[q] for row in ok) for q in QUALITY}
            output = result
        else:
            self.csv = path / "timeseries.csv"
            result.write_csv(self.csv)
            self.rows = [{"status": "ok"}]
            if covers_thd_window(self.cfg):
                m = harness.compute_metrics(result, self.cfg)
                self.quality = {q: getattr(m, q) for q in QUALITY}
            output = sorted(result.data.items())
        # repr is exact for floats, so equal digests mean equal outputs
        self.digest = hashlib.sha256(repr(output).encode()).hexdigest()


def covers_thd_window(cfg):
    window = round(cfg.thd_periods / (cfg.fundamental_hz() * cfg.t_s))
    return window <= cfg.n_steps()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _read_columns(fh):
    reader = csv.reader(fh)
    header = next(reader)
    columns = {name: [] for name in header}
    for row in reader:
        for name, value in zip(header, row):
            columns[name].append(value)
    return columns


def golden_path(name):
    return GOLDEN / f"{name}.csv.gz"


def _skipped(name, column):
    if workloads.WORKLOADS[name].kind == "sweep":
        return column == "avg_nodes"
    return column.startswith("nodes_")


def compare_golden(name, csv_path):
    """Differences between a result CSV and the golden file of seed 0."""
    with gzip.open(golden_path(name), "rt", newline="") as fh:
        want = _read_columns(fh)
    with open(csv_path, newline="") as fh:
        got = _read_columns(fh)
    problems = []
    for column, values in want.items():
        if _skipped(name, column):
            continue
        if column not in got:
            problems.append(f"column {column} is missing")
        elif got[column] != values:
            row = next(
                (i for i, (a, b) in enumerate(zip(got[column], values)) if a != b),
                min(len(values), len(got[column])),
            )
            problems.append(f"column {column} differs from row {row}")
    return problems


def record_golden(name, csv_path):
    GOLDEN.mkdir(exist_ok=True)
    with open(csv_path, "rb") as src, gzip.GzipFile(
        golden_path(name), "wb", mtime=0
    ) as dst:
        shutil.copyfileobj(src, dst)


def pick_check_steps(seed, workload, count):
    """Steps re-checked against enumeration: one among the first 100
    measured steps (on startup, the transient), one among the rest."""
    rng = random.Random(f"checks/{seed}")
    settle = workload.settle
    bounds = [(settle, settle + 100), (settle + 100, workload.steps)]
    return [rng.randrange(*bounds[i % 2]) for i in range(count)]


def check_kbest(kept):
    """Re-run kept control steps with `k_best` captured and compare every
    list with enumeration.  Returns (lists checked, problems), or None when
    the code has no `k_best` to capture."""
    target = spans.resolve("seqmpc.controller", "k_best")
    if target is None:
        return None
    captured = []

    def capture(original):
        def k_best(qp, k, *args, **kwargs):
            cands = original(qp, k, *args, **kwargs)
            captured.append((qp, k, cands))
            return cands
        return k_best

    checked, problems = 0, []
    for step, args, kwargs, decision in kept:
        captured.clear()
        patch = spans.Patches()
        patch.replace(*target, capture)
        try:
            again = harness.control_step(*args, **kwargs)
        finally:
            patch.restore()
        if (again.s_m, again.s_n) != (decision.s_m, decision.s_n):
            problems.append(f"step {step}: re-run applied another switch state")
        for qp, k, got in captured:
            want = solver.brute_force_kbest(qp, k, qp.horizon)
            checked += 1
            if [s.as_tuple() for s in got.sequences] != [s.as_tuple() for s in want.sequences]:
                problems.append(f"step {step}: k-best order differs from enumeration")
            elif np.max(np.abs(np.subtract(got.costs, want.costs))) > KBEST_ATOL:
                problems.append(f"step {step}: k-best costs differ from enumeration")
    return checked, problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def measure_setup(name, seed):
    """Median seconds from launching a fresh interpreter to its first control
    step, and every sample.  Not scaled by the calibration: set-up is bound
    by process start and imports, which the calibration loop does not track."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples), samples


def tail_percentile(n):
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return TAIL_LADDER[-1]


def end_to_end(units, settle, kind):
    """Timing metrics over the measured windows of the untraced units, scaled
    to the reference host speed, and the raw host timings with the sample
    counts behind the percentiles.

    A step's slowdown is the mean of the calibration passes just before it
    and just after it over REFERENCE_CAL_MS.  Its time, and the stretch of
    the window from its start to the next step's calibration pass, are
    divided by it.
    """
    raw, scaled = [], []
    steps = 0
    window = window_scaled = 0.0
    for unit in units:
        records = unit.records
        if not records:
            continue
        cal = [r[3] for r in records]
        slowdown = [
            (a + b) * 0.5e3 / REFERENCE_CAL_MS for a, b in zip(cal, cal[1:] + cal[-1:])
        ]
        t_s = unit.cfg.t_s
        measured = [i for i, r in enumerate(records) if round(r[2] / t_s) >= settle]
        for i in measured:
            start, end = records[i][:2]
            raw.append((end - start) * 1e3)
            scaled.append(raw[-1] / slowdown[i])
        # a sweep's window is the whole call, a run's starts at its first
        # measured step
        timed = range(len(records)) if kind == "sweep" else measured
        if not timed:
            continue
        if kind == "sweep":
            head = records[0][0] - cal[0] - unit.start
            window += head
            window_scaled += head / slowdown[0]
        for i in timed:
            end = records[i + 1][0] - cal[i + 1] if i + 1 < len(records) else unit.end
            window += end - records[i][0]
            window_scaled += (end - records[i][0]) / slowdown[i]
        steps += len(timed)
    if not raw:
        return {}, {}
    pct = tail_percentile(len(raw))
    host = {
        "steps_per_s": steps / window,
        "ctrl_ms_p50": statistics.median(raw),
        "ctrl_ms_tail": spans.nearest_rank(sorted(raw), pct),
        "calibration_ms": statistics.median(
            r[3] * 1e3 for unit in units for r in unit.records
        ),
        "samples": {
            "ctrl_ms_p50": {"percentile": 50.0, "steps": len(raw)},
            "ctrl_ms_tail": {"percentile": pct, "steps": len(raw)},
        },
    }
    metrics = {
        "steps_per_s": steps / window_scaled,
        "ctrl_ms_p50": statistics.median(scaled),
        "ctrl_ms_tail": spans.nearest_rank(sorted(scaled), pct),
    }
    return metrics, host


def peak_rss_mb():
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def git_revision():
    """Commit of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "seqmpc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(name, seed, seconds, trace, record):
    workload = workloads.WORKLOADS[name]
    cfg = workloads.scenario(name, seed)
    settle = workload.settle
    ledger = Ledger()
    checks = {}
    keep = pick_check_steps(seed, workload, CHECK_STEPS[trace])
    tracer = spans.Tracer() if trace else None
    untouched = spans.snapshot()

    setup = None
    if not trace:
        try:
            setup = measure_setup(name, seed)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            ledger.attempt(("setup", 0))
            ledger.fail(("setup", 0), str(exc))
    untraced, traced = [], []
    began = time.perf_counter()
    while True:
        index = len(untraced) + len(traced)
        try:
            unit = Unit(
                name, cfg, index, keep if not untraced else (),
                calibrate=not trace,
            )
            untraced.append(unit)
            if trace:
                traced.append(Unit(name, cfg, index + 1, tracer=tracer))
        except Exception as exc:  # noqa: BLE001 - a failed run is a result
            index = len(untraced) + len(traced)
            ledger.attempt((index, 0))
            ledger.fail((index, 0), f"{type(exc).__name__}: {exc}")
            break
        if time.perf_counter() - began >= seconds:
            break
    rss = peak_rss_mb()

    # ---- checks, outside the timed region
    first = untraced[0] if untraced else None
    for unit in untraced + traced:
        for cell, row in enumerate(unit.rows):
            ledger.attempt((unit.key, cell))
            if row["status"] != "ok":
                ledger.fail((unit.key, cell), row["status"])
            if unit.digest != first.digest:
                ledger.fail((unit.key, cell), "output differs from the first untraced unit")
    if first is not None and seed == 0:
        if record:
            record_golden(name, first.csv)
            checks["golden"] = "recorded"
        else:
            problems = compare_golden(name, first.csv)
            checks["golden"] = problems or "ok"
            for problem in problems:
                ledger.fail((0, 0), f"golden: {problem}")
    if first is not None:
        result = check_kbest(first.kept)
        if result is None:
            checks["kbest_vs_enumeration"] = "absent"
        else:
            checked, problems = result
            checks["kbest_vs_enumeration"] = problems or f"ok ({checked} lists)"
            for problem in problems:
                ledger.fail((0, 0), f"k-best: {problem}")
    if tracer is not None:
        problems = tracer.check_tree()
        checks["span_tree"] = problems or f"ok ({len(tracer.spans)} spans)"
        for problem in problems:
            ledger.fail((1, 0), f"spans: {problem}")
    restored = spans.snapshot() == untouched
    checks["wrappers_restored"] = "ok" if restored else "no"
    if not restored:
        ledger.fail((0, 0), "a wrapper was left installed")

    # ---- metrics
    host = {}
    metrics = {}
    if traced:
        overhead = sum(u.end - u.start for u in traced) / sum(
            u.end - u.start for u in untraced[: len(traced)]
        ) - 1.0
        sweep_rows = [row for u in traced if u.kind == "sweep" for row in u.rows]
        metrics = tracer.layer_metrics(settle, sweep_rows, overhead)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}.csv")
    elif not trace:
        timing, host = end_to_end(untraced, settle, workload.kind)
        values = dict(timing, peak_rss_mb=rss)
        if setup:
            values["setup_s"] = setup[0]
        metrics = {m: (values[m], unit) for m, unit in END_TO_END.items() if m in values}
    quality = {q: (v, QUALITY[q]) for q, v in first.quality.items()} if first else {}

    theta, load = workloads.draw_inputs(seed)
    meta = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "theta_e0_rad": theta,
        "load_nm": load,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jit_enabled": getattr(seqmpc, "JIT_ENABLED", None),
        "nproc": len(os.sched_getaffinity(0)),
        "steps_per_unit": cfg.n_steps(),
        "settle_steps": settle,
        "units": len(untraced) + len(traced),
        "samples": host.pop("samples", None),
        "raw_host_timing": host or None,
        "setup_samples_s": setup[1] if setup else None,
        "checked_steps": keep,
    }
    return meta, metrics, quality, checks, ledger


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measuring time; whole units are repeated until it is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="write the golden files of seed 0 instead of comparing")
    args = parser.parse_args(argv)
    if args.record_golden and args.seed != 0:
        parser.error("--record-golden needs --seed 0")

    meta, metrics, quality, checks, ledger = run(
        args.workload, args.seed, args.seconds, args.trace, args.record_golden
    )
    attempted = max(1, len(ledger.ok))
    failed = ledger.failed if ledger.ok else 1
    correct = failed == 0

    print(f"# seqmpc closed-loop benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"#   {workloads.WORKLOADS[args.workload].why}")
    for key, value in meta.items():
        print(f"#   {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    wanted = spans.LAYER_METRICS if args.trace else END_TO_END
    for name in wanted:
        if name not in metrics:
            print(f"{name:44s} {'absent':>14s}")
    print(f"{'fail_frac':44s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    for name, (value, unit) in quality.items():
        print(f"{name:44s} {value:14.6g} {unit} (control quality, not in the JSON line)")
    for name, outcome in checks.items():
        print(f"# check {name}: {outcome}")
    for reason in ledger.reasons:
        print(f"# FAILED {reason}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "quality": {k: {"value": v, "unit": u} for k, (v, u) in quality.items()},
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "failures": ledger.reasons,
    }
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
