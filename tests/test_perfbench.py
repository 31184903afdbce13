"""The benchmark still yields a result on this code.

Runs one traced `startup` unit of `perfbench/run.py` in a fresh interpreter,
as the benchmark runs it, and checks what its last line must carry: exit 0,
strict JSON (no NaN or Infinity), `correct` true with no failure, and
exactly the per-layer metrics that `BENCHMARK.json` lists.  A name that
perfbench wraps and the code no longer has leaves its metrics absent, so
the test fails.  A name that is still wrapped but no longer called reads 0,
so the test also bounds the metrics that read exactly 0 on this unit to those
that have no calls to count on a traced `startup` run.  Like
`test_golden.py`, it only reads the benchmark's files; the run itself writes
under the git-ignored `perfbench/_out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: metrics that read 0 on a traced `startup` unit: the control step calls
#: `k_best`, never `sphere_decode`, and builds both sides' step models in one
#: piece, not through the per-side builders; the unit is too short for the
#: THD window, so it computes no metrics; and it runs no sweep
ZERO_ON_STARTUP = {
    "solver.sphere_decode.calls_per_step",
    "prediction.model_build.us_per_step",
    "prediction.discretize.calls_per_step",
    "harness.compute_metrics.ms",
    "harness.sweep.cells",
    "harness.sweep.cells_failed",
    "harness.sweep.cell_s_p50",
    "harness.sweep.cell_s_max",
}


def reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_traced_startup_run_reports_every_layer_metric():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "startup", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=reject)
    assert result["correct"] is True and result["failed"] == 0, run.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the metrics reported but not listed, and listed but not reported
    assert set(result["metrics"]) ^ {m["name"] for m in spec["per_layer"]} == set()
    zero = {name for name, metric in result["metrics"].items() if metric["value"] == 0}
    assert zero <= ZERO_ON_STARTUP
