"""Child process of the set-up measurement.

Starts like a user's process would: imports the library, builds the
workload's scenario and enters the closed loop.  At the first control step it
prints the monotonic clock and exits at once.  The parent started its own
clock (the same system-wide monotonic clock) before launching this
interpreter, so the difference is interpreter start plus import plus scenario
set-up.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from seqmpc import harness  # noqa: E402


def _first_step(*args, **kwargs):
    print(repr(time.monotonic()), flush=True)
    os._exit(0)  # sweep catches exceptions per cell, so leave without unwinding


if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    harness.control_step = _first_step
    workloads.run_unit(harness, name, workloads.scenario(name, seed))
    sys.exit("the workload never reached a control step")
