"""The step plan: buffers reused across steps change nothing, and nothing a
step returns to the closed loop lives in them.

`run_scenario` builds one `StepPlan` per run and passes it to every control
step; a call without one builds a fresh plan.  On the recorded steps of
perfbench's `steady`, `sweep` and `startup` scenarios (`recorded_steps` in
conftest.py), a plan reused step after step must give what a fresh plan per
step gives, byte for byte: the decision, each side's factor and target, the
candidate lists and the node counts.  The decision must not share memory
with the plan, so a decision kept from one step is unchanged after the next.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from seqmpc import controller
from seqmpc.controller import control_step, step_plan
from seqmpc.prediction import StepPlan


def decision_bytes(d):
    """Every field of a decision, floats to the bit and levels as bytes."""
    return repr((
        d.s_m, d.s_n, d.full_u_m.levels.tobytes(), d.full_u_n.levels.tobytes(),
        d.full_u_m.horizon, d.full_u_n.horizon, d.j_m, d.j_n, d.j_o, d.nodes_m, d.nodes_n,
    ))


def traced_step(args, plan):
    """(decision, per side (factor, target, list levels, costs, nodes)) of one
    control step, the lists captured from `k_best` as it returns them."""
    seen = []
    k_best = controller.k_best

    def capture(qp, k):
        cands = k_best(qp, k)
        seen.append((qp.factor.tobytes(), qp.target.tobytes(), cands.levels.tobytes(),
                     repr(cands.costs), cands.nodes_visited))
        return cands

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "k_best", capture)
        decision = control_step(*args, plan)
    return decision_bytes(decision), seen


def runs(recorded_steps):
    """The recorded steps grouped by run, in step order."""
    return [[args for _, args in steps]
            for _, steps in itertools.groupby(recorded_steps, key=lambda item: item[0])]


def arrays(obj, seen=None):
    """Every ndarray reachable from `obj` through attributes, dataclass
    fields, lists, tuples and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        items = obj
    elif isinstance(obj, dict):
        items = obj.values()
    elif dataclasses.is_dataclass(obj):
        items = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [a for item in items for a in arrays(item, seen)]


def test_recorded_runs_are_several_steps_long(recorded_steps):
    assert [len(steps) for steps in runs(recorded_steps)] == [100, 25, 25, 25, 25, 25]


def test_reused_plan_equals_a_fresh_plan_per_step(recorded_steps):
    for steps in runs(recorded_steps):
        plan = step_plan(steps[0][1])
        for args in steps:
            assert traced_step(args, plan) == traced_step(args, None)


def test_decision_shares_no_memory_with_the_plan(recorded_steps):
    for steps in runs(recorded_steps):
        plan = step_plan(steps[0][1])
        buffers = arrays(plan)
        assert len(buffers) > 50
        for args in steps[:5]:
            decision = control_step(*args, plan)
            held = arrays(decision)
            assert len(held) == 2  # the two applied sequences' levels
            for a, b in itertools.product(held, buffers):
                assert not np.shares_memory(a, b)


def test_kept_decision_is_unchanged_after_the_next_step(recorded_steps):
    for steps in runs(recorded_steps):
        plan = step_plan(steps[0][1])
        kept = [control_step(*args, plan) for args in steps]
        for decision, args in zip(kept, steps):
            assert decision_bytes(decision) == decision_bytes(control_step(*args))


def test_plan_for_another_shape_is_refused(recorded_steps):
    args = next(args for _, args in recorded_steps if args[1].n_h == 2 and args[1].n_k == 4)
    cfg = args[1]
    with pytest.raises(ValueError, match="horizon"):
        control_step(*args, StepPlan(cfg.n_h + 1, cfg.n_k, cfg.n_l))
    with pytest.raises(ValueError, match="lists"):
        control_step(*args, StepPlan(cfg.n_h, cfg.n_k - 1, cfg.n_l))
