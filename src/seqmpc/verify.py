"""Randomized solver-vs-oracle property suite.

Generates controller-shaped random subproblems around realistic operating
magnitudes, then checks the decoder against exhaustive enumeration, the
condensation against the raw cost, and the stacked prediction against
stage-by-stage iteration.  Used by the `verify` CLI subcommand and reused by
the test suite.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .harness import ScenarioConfig
from .plant import PlantState
from .prediction import (
    StepPlan,
    build_multistep,
    build_step_models,
    effort_maps,
    predict_outputs,
)
from .solver import QpForm, assemble_qp, brute_force_kbest, k_best

#: output reference scales of the machine side (A) and the grid side (W, var)
REF_SCALES = (15.0, 3000.0)


def _random_step(rng: np.random.Generator, n_h: int):
    """(plan, side) of a random but plausible controller state: a fresh
    plan for horizon `n_h` holding the step's models and multistep maps at
    a random DC-link state, and the side drawn, 0 (the machine, at a random
    electrical speed and angle) or 1 (the grid, at a random time), each with
    probability one half.  Every current, reference and previous level in
    the plan is zero; the caller draws the side's own."""
    cfg = ScenarioConfig()
    v_dc = float(rng.uniform(600.0, 800.0))
    v_imb = float(rng.uniform(-5.0, 5.0))
    omega_e = theta_e = t = 0.0
    side = 0 if rng.random() < 0.5 else 1
    if side == 0:
        omega_e = float(rng.uniform(-400.0, 400.0))
        theta_e = float(rng.uniform(0.0, 2.0 * np.pi))
    else:
        t = float(rng.uniform(0.0, 0.02))
    # one pole pair, so that the electrical speed is the drawn one exactly
    machine = dataclasses.replace(cfg.machine(), pole_pairs=1)
    st = PlantState((0.0, 0.0), (0.0, 0.0), v_dc, v_imb, omega_e, theta_e, t)
    plan = StepPlan(n_h)
    build_step_models(st, machine, cfg.grid(), cfg.t_s, cfg.c_dc, plan)
    build_multistep(plan)
    plan.y_ref[...] = plan.u_prev[...] = 0.0
    return plan, side


def random_qp_instance(rng: np.random.Generator, n_h: int) -> QpForm:
    """A condensed subproblem from a random but plausible controller state."""
    plan, side = _random_step(rng, n_h)
    plan.x0[side] = rng.normal(0.0, 15.0, size=2)
    plan.y_ref[side] = np.tile(rng.normal(0.0, REF_SCALES[side], size=2), n_h)
    plan.u_prev[side] = rng.integers(-1, 2, size=3)
    return assemble_qp(0.1, plan)[side]


def raw_cost_closure(plan: StepPlan, side: int, x0, y_ref, u_prev, weight: float):
    """The uncondensed tracking-plus-effort cost of side `side` of the
    plan's multistep maps as a callable on a sequence's levels; it reads
    the plan's maps when called."""
    x0 = np.asarray(x0, float)
    y_ref = np.asarray(y_ref, float)
    prev = np.asarray(u_prev)
    diff_mat, prev_sel = effort_maps(plan.n_h)

    def cost(levels) -> float:
        y = predict_outputs(plan, side, x0, levels)
        du = diff_mat @ np.asarray(levels) - prev_sel @ prev
        track = y - y_ref
        return float(track @ track + weight * (du @ du))

    return cost


def check_kbest_vs_bruteforce(seed: int, cases: int, horizons=(1, 2), ks=(1, 4, 10)):
    """k_best must match enumeration sequence-for-sequence on random QPs."""
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(cases):
        for n_h in horizons:
            qp = random_qp_instance(rng, n_h)
            for k in ks:
                got = k_best(qp, k)
                want = brute_force_kbest(qp, k, n_h)
                if got.rows != want.rows:
                    return False, f"sequence mismatch at n_h={n_h}, k={k}"
                if not np.allclose(got.costs, want.costs, rtol=0, atol=1e-9):
                    return False, f"cost mismatch at n_h={n_h}, k={k}"
                checked += 1
    return True, f"{checked} k-best lists matched enumeration"


def check_condensation(seed: int, cases: int, horizons=(1, 2)):
    """Raw-cost argmin must equal the triangular-form argmin by enumeration."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        n_h = horizons[i % len(horizons)]
        plan, side = _random_step(rng, n_h)
        y_ref = np.tile(rng.normal(0.0, REF_SCALES[side], size=2), n_h)
        x0 = rng.normal(0.0, 15.0, size=2)
        u_prev = tuple(int(v) for v in rng.integers(-1, 2, size=3))
        plan.y_ref[side], plan.x0[side], plan.u_prev[side] = y_ref, x0, u_prev
        qp = assemble_qp(0.1, plan)[side]
        raw = raw_cost_closure(plan, side, x0, y_ref, u_prev, weight=0.1)
        raw_best = brute_force_kbest(raw, 1, n_h).rows[0]
        qp_best = brute_force_kbest(qp, 1, n_h).rows[0]
        if raw_best != qp_best:
            return False, f"argmin mismatch on case {i} (n_h={n_h})"
    return True, f"{cases} condensed argmins matched the raw cost"


def check_stacking(seed: int, cases: int, horizons=(1, 2, 3)):
    """Condensed prediction must equal iterating the one-step model."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        n_h = horizons[i % len(horizons)]
        plan, side = _random_step(rng, n_h)
        a, b = plan.state_mat[side], plan.input_mat[side]
        n, c = plan.drift[side], plan.output_mat[side]
        x0 = rng.normal(0.0, 15.0, size=2)
        levels = rng.integers(-1, 2, size=3 * n_h)
        stacked = predict_outputs(plan, side, x0, levels)
        x = x0.copy()
        iterated = []
        for j in range(n_h):
            x = a @ x + b @ levels[3 * j : 3 * j + 3] + n
            iterated.append(c @ x)
        iterated = np.concatenate(iterated)
        scale = max(1.0, float(np.max(np.abs(iterated))))
        if not np.allclose(stacked, iterated, rtol=0, atol=1e-9 * scale):
            return False, f"stacked/iterated mismatch on case {i} (n_h={n_h})"
    return True, f"{cases} stacked predictions matched stage iteration"


def check_exclusion_soundness(seed: int, cases: int):
    """Each k_best list must be duplicate-free and in (cost, lexicographic) order."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        qp = random_qp_instance(rng, 1)
        cands = k_best(qp, int(rng.integers(2, 11)))
        keys = list(cands.rows)
        if len(set(keys)) != len(keys):
            return False, "duplicate sequence in a k-best list"
        ranked = list(zip(cands.costs, keys))
        if any(b < a for a, b in zip(ranked, ranked[1:])):
            return False, "k-best list is not in (cost, lexicographic) order"
    return True, f"{cases} k-best lists were duplicate-free and sorted"


def run_all(seed: int = 0, cases: int = 25):
    """Run every property; returns a list of (name, passed, detail)."""
    results = [
        ("kbest_vs_bruteforce", *check_kbest_vs_bruteforce(seed, max(1, cases // 5))),
        ("condensation_equivalence", *check_condensation(seed + 1, cases)),
        ("stacking_equals_iteration", *check_stacking(seed + 2, cases)),
        ("exclusion_soundness", *check_exclusion_soundness(seed + 3, cases)),
    ]
    return results
