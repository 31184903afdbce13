import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from seqmpc import harness

ROOT = Path(__file__).resolve().parent.parent

#: recorded control steps: the first STEADY_STEPS of perfbench's `steady`
#: unit, the first CELL_STEPS of each of the four cells of its `sweep` unit
#: and the first STARTUP_STEPS of its `startup` unit, inside the current
#: transient, where most decoder calls take the bounded walk
STEADY_STEPS = 100
CELL_STEPS = 25
STARTUP_STEPS = 25


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def _workloads():
    """perfbench/workloads.py, loaded from its file; nothing in it changes."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def recorded_steps():
    """(label, arguments) of 225 real `control_step` calls: seed-0 steps of
    perfbench's `steady`, `sweep` and `startup` scenarios, in closed loop,
    each call's positional arguments as the loop passed them, but for the
    run's step plan, which holds no input of the step."""
    workloads = _workloads()
    steps = []
    control_step = harness.control_step

    def record(label):
        def step(*args):
            steps.append((label, args[:-1]))
            return control_step(*args)
        return step

    runs = [("steady", workloads.scenario("steady", 0), STEADY_STEPS, None)]
    sweep = workloads.scenario("sweep", 0)
    runs += [(f"sweep {ctrl.mode} N_h={ctrl.n_h}", sweep, CELL_STEPS, ctrl)
             for ctrl in sweep.controller_grid()]
    runs.append(("startup", workloads.scenario("startup", 0), STARTUP_STEPS, None))
    with pytest.MonkeyPatch.context() as patch:
        for label, cfg, count, ctrl in runs:
            patch.setattr(harness, "control_step", record(label))
            harness.run_scenario(dataclasses.replace(cfg, duration=count * cfg.t_s), ctrl)
    return steps
