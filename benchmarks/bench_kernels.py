#!/usr/bin/env python3
"""Time the hot kernels: one k-best decode, one plant step, one startup step.

The closed-loop figure times the first `--steps` control periods from
standstill (N_h=3, N_k=N_l=4), i.e. the startup transient, whose decoder
searches are far larger than in the steady state.

Usage:
    python benchmarks/bench_kernels.py
    python benchmarks/bench_kernels.py --steps 400 --repeat 3
"""

import argparse
import math
import time

import numpy as np

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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=200,
                        help="startup-transient steps per measurement")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions; the best time wins")
    args = parser.parse_args()

    rows = [
        ("decoder_kbest4_nh2_s", "k-best decode (k=4, 6 layers)",
         bench_decoder(args.repeat)),
        ("plant_step_substeps10_s", "plant step (10 substeps)",
         bench_plant(args.repeat)),
        ("closed_loop_startup_step_nh3_nk4_s", "startup step (N_h=3, N_k=4)",
         bench_startup(args.steps, args.repeat)),
    ]
    print(f"{'kernel':<34} {'time':>12}   key")
    print("-" * 86)
    for key, label, seconds in rows:
        print(f"{label:<34} {seconds * 1e6:9.1f} us   {key}")


if __name__ == "__main__":
    main()
