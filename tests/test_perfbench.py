"""The benchmark still yields a result on this code.

Runs one traced `startup` unit of `perfbench/run.py` in a fresh interpreter,
as the benchmark runs it, and checks what its last line must carry: exit 0,
strict JSON (no NaN or Infinity), `correct` true with no failure, and
exactly the per-layer metrics that `BENCHMARK.json` lists.  A name that
perfbench wraps and the code no longer has leaves its metrics absent, so
the test fails.  Like `test_golden.py`, it only reads the benchmark's
files; the run itself writes under the git-ignored `perfbench/_out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
