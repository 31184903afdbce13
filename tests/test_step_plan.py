"""The step plan: buffers reused across steps change nothing, and nothing a
step returns to the closed loop lives in them.

`run_scenario` builds one `StepPlan` per run and passes it to every control
step; a call without one builds a fresh plan.  On the recorded steps of
perfbench's `steady`, `sweep` and `startup` scenarios (`recorded_steps` in
conftest.py), a plan reused step after step must give what a fresh plan per
step gives, byte for byte: the decision and the rows its ranks choose, each
side's factor and target, the candidate lists and the node counts.  Neither
the decision nor the lists it ranks may share memory with the plan, so a
decision kept from one step, with its lists, is unchanged after the next.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from seqmpc import controller
from seqmpc.controller import ControllerConfig, control_step
from seqmpc.harness import ScenarioConfig, run_scenario
from seqmpc.prediction import (
    QpForm,
    StepPlan,
    build_multistep,
    build_step_models,
    imbalance_contributions,
    imbalance_path,
)
from seqmpc.solver import condense


def decision_bytes(d, cands_m, cands_n):
    """Every field of a decision and the two rows its ranks choose in the
    machine and grid lists, floats to the bit and levels by repr."""
    return repr((
        d.s_m, d.s_n, d.rank_m, d.rank_n,
        repr(cands_m.rows[d.rank_m]), repr(cands_n.rows[d.rank_n]),
        cands_m.horizon, cands_n.horizon, d.j_m, d.j_n, d.j_o, d.nodes_m, d.nodes_n,
    ))


def traced(args, plan):
    """(decision, [machine list, grid list], per side (factor, target, list
    levels, costs, nodes)) of one control step, the lists captured from
    `k_best` as it returns them."""
    lists, seen = [], []
    k_best = controller.k_best

    def capture(qp, k):
        cands = k_best(qp, k)
        lists.append(cands)
        seen.append((repr(qp.factor), repr(qp.target), repr(cands.rows),
                     repr(cands.costs), cands.nodes_visited))
        return cands

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "k_best", capture)
        decision = control_step(*args, plan)
    return decision, lists, seen


def traced_step(args, plan):
    """(decision and chosen rows by repr, per side (factor, target, list
    levels, costs, nodes)) of one control step."""
    decision, lists, seen = traced(args, plan)
    return decision_bytes(decision, *lists), seen


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
        cfg = steps[0][1]
        plan = StepPlan(cfg.n_h, cfg.n_k, cfg.n_l)
        for args in steps:
            assert traced_step(args, plan) == traced_step(args, None)


def test_decision_shares_no_memory_with_the_plan(recorded_steps):
    for steps in runs(recorded_steps):
        cfg = steps[0][1]
        plan = StepPlan(cfg.n_h, cfg.n_k, cfg.n_l)
        buffers = arrays(plan)
        assert len(buffers) > 50
        for args in steps[:5]:
            decision, lists, _ = traced(args, plan)
            assert arrays(decision) == []  # ranks and Python values
            assert arrays(lists) == []  # level tuples and Python values


def test_kept_decision_is_unchanged_after_the_next_step(recorded_steps):
    for steps in runs(recorded_steps):
        cfg = steps[0][1]
        plan = StepPlan(cfg.n_h, cfg.n_k, cfg.n_l)
        kept = [traced(args, plan)[:2] for args in steps]
        for (decision, lists), args in zip(kept, steps):
            assert decision_bytes(decision, *lists) == traced_step(args, None)[0]


def step_forms(args, plan):
    """The two forms `assemble_qp` returns in one control step."""
    forms = []
    assemble_qp = controller.assemble_qp

    def capture(lam, plan):
        forms.extend(assemble_qp(lam, plan))
        return forms

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "assemble_qp", capture)
        control_step(*args, plan)
    return forms


def test_forms_are_python_values_that_outlive_the_step(recorded_steps):
    # each form is the decoder's input alone, kept from its step while the
    # same plan runs the next ones
    assert [f.name for f in dataclasses.fields(QpForm)] == ["factor", "target", "horizon"]
    for steps in runs(recorded_steps):
        cfg = steps[0][1]
        plan = StepPlan(cfg.n_h, cfg.n_k, cfg.n_l)
        kept = []
        for args in steps[:5]:
            forms = step_forms(args, plan)
            assert len(forms) == 2 and arrays(forms) == []
            for qp in forms:
                assert type(qp.horizon) is int and qp.horizon == cfg.n_h
                assert type(qp.factor) is list and type(qp.target) is list
                assert {type(v) for v in qp.factor + qp.target} == {float}
            kept.append((forms, repr(forms)))
        for (forms, when_returned), args in zip(kept, steps):
            assert repr(forms) == when_returned == repr(step_forms(args, None))


def test_planned_stages_return_nothing(recorded_steps):
    # a step's arrays are reached only as the plan's attributes
    for _, args in recorded_steps[::25]:
        st, cfg, _, _, machine, grid, _, _, t_s, c_dc = args
        plan = StepPlan(cfg.n_h, cfg.n_k, cfg.n_l)
        control_step(*args, plan)
        assert build_step_models(st, machine, grid, t_s, c_dc, plan) is None
        assert build_multistep(plan) is None
        assert condense(cfg.lam, plan) is None
        assert imbalance_contributions(plan) is None
        assert imbalance_path(st.v_imb, plan) is None


def test_plan_for_another_shape_is_refused(recorded_steps):
    args = next(args for _, args in recorded_steps if args[1].n_h == 2 and args[1].n_k == 4)
    cfg = args[1]
    with pytest.raises(ValueError, match="horizon"):
        control_step(*args, StepPlan(cfg.n_h + 1, cfg.n_k, cfg.n_l))
    with pytest.raises(ValueError, match="lists"):
        control_step(*args, StepPlan(cfg.n_h, cfg.n_k - 1, cfg.n_l))


def test_list_lengths_are_capped_at_the_horizons_sequences():
    plan = StepPlan(1, 40, 30)
    assert (plan.k_m, plan.k_n) == (27, 27)
    assert plan.paths.shape == (27, 27, 1)
    wide = StepPlan(2, 40, 30)
    assert (wide.k_m, wide.k_n) == (40, 30)


def test_more_pairs_than_the_cap_are_rejected_before_allocating(monkeypatch):
    from seqmpc import prediction

    StepPlan(2, 256, 256)  # exactly MAX_PAIRS
    StepPlan(1, 20000, 20000)  # capped at 27 * 27 pairs
    monkeypatch.setattr(prediction, "np", None)  # any allocation now fails the test
    with pytest.raises(ValueError, match=r"n_k=257 and n_l=256 at N_h=2 give 65792"):
        StepPlan(2, 257, 256)
    with pytest.raises(ValueError, match=r"n_k=20000 and n_l=20000 at N_h=3"):
        StepPlan(3, 20000, 20000)


def test_run_asking_for_more_candidates_than_the_horizon_has():
    # 27 sequences at N_h = 1: each list holds all of them
    series = run_scenario(
        ScenarioConfig(duration=0.0005), ControllerConfig(n_h=1, n_k=40, n_l=30)
    )
    assert len(series) == 10
