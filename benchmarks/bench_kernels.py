#!/usr/bin/env python3
"""Benchmark the numba kernel path against the pure-Python fallback.

The two paths cannot coexist in one process (the flag is read at import), so
the script measures the current mode and, when compiled kernels are active,
re-launches itself with SEQMPC_NUMBA=0 to collect the fallback numbers.

The closed-loop figure times the first `--steps` control periods from
standstill (N_h=3, N_k=N_l=4), i.e. the startup transient, whose decoder
searches are far larger than in the steady state.

Usage:
    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --steps 400 --repeat 3
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import seqmpc
from seqmpc import _kernels
from seqmpc.controller import ControllerConfig
from seqmpc.harness import ScenarioConfig, run_scenario
from seqmpc.plant import GridParams, MachineParams, PlantState, SwitchState, plant_step
from seqmpc.solver import k_best
from seqmpc.verify import random_qp_instance


def bench_decoder(repeat: int) -> float:
    rng = np.random.default_rng(11)
    qps = [random_qp_instance(rng, 2) for _ in range(40)]
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        for qp in qps:
            k_best(qp, 4)
        best = min(best, time.perf_counter() - start)
    return best / len(qps)


def bench_plant(repeat: int) -> float:
    machine = MachineParams(0.1379, 0.019, 0.42675, 3)
    grid = GridParams(0.156, 0.020, 250.0, 100.0 * math.pi)
    rng = np.random.default_rng(12)
    switches = [
        (
            SwitchState(*(int(v) for v in rng.integers(-1, 2, 3))),
            SwitchState(*(int(v) for v in rng.integers(-1, 2, 3))),
        )
        for _ in range(500)
    ]
    best = math.inf
    for _ in range(repeat):
        st = PlantState.initial(machine, t_m=10.0)
        start = time.perf_counter()
        for s_m, s_n in switches:
            st = plant_step(st, s_m, s_n, machine, grid, 50e-6, 10)
        best = min(best, time.perf_counter() - start)
    return best / len(switches)


def bench_startup(steps: int, repeat: int) -> float:
    cfg = ScenarioConfig(duration=steps * 50e-6)
    ctrl = ControllerConfig(n_h=3, n_k=4, n_l=4, t_s=cfg.t_s)
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        run_scenario(cfg, ctrl)
        best = min(best, time.perf_counter() - start)
    return best / steps


def collect(steps: int, repeat: int) -> dict:
    _kernels.warmup()
    return {
        "jit": seqmpc.JIT_ENABLED,
        "decoder_kbest4_nh2_s": bench_decoder(repeat),
        "plant_step_substeps10_s": bench_plant(repeat),
        "closed_loop_startup_step_nh3_nk4_s": bench_startup(steps, repeat),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=200,
                        help="startup-transient steps per measurement")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions; the best time wins")
    parser.add_argument("--emit-json", action="store_true",
                        help="print raw numbers as JSON and exit (internal)")
    args = parser.parse_args()

    mine = collect(args.steps, args.repeat)
    if args.emit_json:
        print(json.dumps(mine))
        return

    results = {("numba" if mine["jit"] else "pure"): mine}
    if mine["jit"]:
        env = dict(os.environ, SEQMPC_NUMBA="0")
        out = subprocess.run(
            [sys.executable, __file__, "--steps", str(max(20, args.steps // 10)),
             "--repeat", "1", "--emit-json"],
            env=env, capture_output=True, text=True, check=True,
        )
        results["pure"] = json.loads(out.stdout)
    else:
        print("numba path disabled or unavailable; measuring the pure path only\n")

    names = [
        ("decoder_kbest4_nh2_s", "k-best decode (k=4, 6 layers)"),
        ("plant_step_substeps10_s", "plant step (10 substeps)"),
        ("closed_loop_startup_step_nh3_nk4_s", "startup step (N_h=3, N_k=4)"),
    ]
    print(f"{'kernel':<34} {'numba':>12} {'pure':>12} {'speedup':>9}")
    print("-" * 70)
    for key, label in names:
        jit_t = results.get("numba", {}).get(key)
        pure_t = results.get("pure", {}).get(key)
        jit_txt = f"{jit_t * 1e6:9.1f} us" if jit_t else "-"
        pure_txt = f"{pure_t * 1e6:9.1f} us" if pure_t else "-"
        speedup = f"{pure_t / jit_t:8.1f}x" if jit_t and pure_t else "-"
        print(f"{label:<34} {jit_txt:>12} {pure_txt:>12} {speedup:>9}")


if __name__ == "__main__":
    main()
