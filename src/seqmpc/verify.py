"""Randomized solver-vs-oracle property suite.

Generates controller-shaped random subproblems around realistic operating
magnitudes, then checks the decoder against exhaustive enumeration, the
condensation against the raw cost, and the stacked prediction against
stage-by-stage iteration.  Used by the `verify` CLI subcommand and reused by
the test suite.
"""

from __future__ import annotations

import numpy as np

from . import _kernels as _k
from .harness import ScenarioConfig
from .prediction import (
    SwitchSequence,
    build_grid_subsystem,
    build_machine_subsystem,
    build_multistep,
    discretize,
    effort_maps,
    predict_outputs,
)
from .solver import QpForm, assemble_qp, brute_force_kbest, k_best


def _random_side(rng: np.random.Generator, cfg: ScenarioConfig):
    """(continuous side model, output reference scale) of a random but
    plausible controller state: the machine side or the grid side, each with
    probability one half, at a random DC-link state."""
    v_dc = float(rng.uniform(600.0, 800.0))
    v_imb = float(rng.uniform(-5.0, 5.0))
    if rng.random() < 0.5:
        omega_e = float(rng.uniform(-400.0, 400.0))
        theta_e = float(rng.uniform(0.0, 2.0 * np.pi))
        return build_machine_subsystem(cfg.machine(), omega_e, v_dc, v_imb, theta_e), 15.0
    e_ab = _k.grid_emf2(float(rng.uniform(0.0, 0.02)), cfg.e_peak, cfg.omega_n)
    return build_grid_subsystem(cfg.grid(), e_ab, v_dc, v_imb), 3000.0


def random_qp_instance(rng: np.random.Generator, n_h: int) -> QpForm:
    """A condensed subproblem from a random but plausible controller state."""
    cfg = ScenarioConfig()
    sys, ref_scale = _random_side(rng, cfg)
    x0 = rng.normal(0.0, 15.0, size=2)
    y_ref = np.tile(rng.normal(0.0, ref_scale, size=2), n_h)
    u_prev = tuple(int(v) for v in rng.integers(-1, 2, size=3))
    model = build_multistep(discretize(sys, cfg.t_s), n_h)
    return assemble_qp(model, x0, y_ref, u_prev, weight=0.1)


def raw_cost_closure(model, x0, y_ref, u_prev, weight: float):
    """The uncondensed tracking-plus-effort cost as a sequence callable."""
    x0 = np.asarray(x0, float)
    y_ref = np.asarray(y_ref, float)
    prev = np.asarray(u_prev)
    diff_mat, prev_sel = effort_maps(model.horizon)

    def cost(seq: SwitchSequence) -> float:
        y = predict_outputs(model, x0, seq)
        du = diff_mat @ seq.levels - prev_sel @ prev
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
                if not np.array_equal(got.levels, want.levels):
                    return False, f"sequence mismatch at n_h={n_h}, k={k}"
                if not np.allclose(got.costs, want.costs, rtol=0, atol=1e-9):
                    return False, f"cost mismatch at n_h={n_h}, k={k}"
                checked += 1
    return True, f"{checked} k-best lists matched enumeration"


def check_condensation(seed: int, cases: int, horizons=(1, 2)):
    """Raw-cost argmin must equal the triangular-form argmin by enumeration."""
    rng = np.random.default_rng(seed)
    cfg = ScenarioConfig()
    for i in range(cases):
        n_h = horizons[i % len(horizons)]
        sys, ref_scale = _random_side(rng, cfg)
        y_ref = np.tile(rng.normal(0.0, ref_scale, size=2), n_h)
        x0 = rng.normal(0.0, 15.0, size=2)
        u_prev = tuple(int(v) for v in rng.integers(-1, 2, size=3))
        model = build_multistep(discretize(sys, cfg.t_s), n_h)
        qp = assemble_qp(model, x0, y_ref, u_prev, weight=0.1)
        raw = raw_cost_closure(model, x0, y_ref, u_prev, weight=0.1)
        raw_best = brute_force_kbest(raw, 1, n_h).sequences[0]
        qp_best = brute_force_kbest(qp, 1, n_h).sequences[0]
        if raw_best != qp_best:
            return False, f"argmin mismatch on case {i} (n_h={n_h})"
    return True, f"{cases} condensed argmins matched the raw cost"


def check_stacking(seed: int, cases: int, horizons=(1, 2, 3)):
    """Condensed prediction must equal iterating the one-step model."""
    rng = np.random.default_rng(seed)
    cfg = ScenarioConfig()
    for i in range(cases):
        n_h = horizons[i % len(horizons)]
        sys, _ = _random_side(rng, cfg)
        model = discretize(sys, cfg.t_s)
        multi = build_multistep(model, n_h)
        x0 = rng.normal(0.0, 15.0, size=2)
        levels = rng.integers(-1, 2, size=3 * n_h)
        seq = SwitchSequence(levels=levels, horizon=n_h)
        stacked = predict_outputs(multi, x0, seq)
        x = x0.copy()
        iterated = []
        for j in range(n_h):
            x = model.state_mat @ x + model.input_mat @ seq.block(j) + model.drift
            iterated.append(model.output_mat @ x)
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
        keys = [tuple(row) for row in cands.levels.tolist()]
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
