"""Multistep sequential finite-control-set MPC with a k-best sphere decoder.

Library layout:

- `plant`: ground-truth NPC back-to-back PMSG simulation
- `prediction`: the power-invariant Clarke matrices and the Park rotation, Euler one-step
  models built once per step, condensed multistep models, batched imbalance rollout
- `solver`: condensation, one-pass list sphere decoder (k best), enumeration oracle,
  pair selection
- `controller`: one receding-horizon control step
- `harness`: scenarios, closed-loop driver, metrics, sweeps, CSV/config I/O
- `_kernels`: scalar Clarke/Park transforms and grid EMF, hot loops (plant integration,
  Cholesky, decoder search) on Python floats and lists
"""

from .controller import ControllerConfig, ControlDecision, DcLinkPi, ReferenceState, control_step
from .harness import RunMetrics, ScenarioConfig, TimeSeries, run_scenario, sweep
from .plant import GridParams, MachineParams, PlantState, plant_step
from .prediction import SwitchSequence
from .solver import CandidateList, QpForm, brute_force_kbest, k_best, sphere_decode

__version__ = "0.1.0"

__all__ = [
    "ControllerConfig",
    "ControlDecision",
    "DcLinkPi",
    "ReferenceState",
    "control_step",
    "RunMetrics",
    "ScenarioConfig",
    "TimeSeries",
    "run_scenario",
    "sweep",
    "GridParams",
    "MachineParams",
    "PlantState",
    "plant_step",
    "SwitchSequence",
    "CandidateList",
    "QpForm",
    "brute_force_kbest",
    "k_best",
    "sphere_decode",
    "__version__",
]
