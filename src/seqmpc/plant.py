"""Ground-truth simulation of the three-level NPC back-to-back PMSG system.

The plant integrates the machine dq currents, grid alpha/beta currents,
DC-link voltages and the mechanical speed with fixed-step explicit Euler,
holding the applied switch states and the load torque constant over each
controller period (zero-order hold).  Both are inputs of `plant_step`, which
the closed loop passes on every step.  A side's switch state is a level
tuple, three Python ints (s_a, s_b, s_c) in `LEVELS`: the first block of a
candidate row, checked once where `solver.CandidateList` is built, and taken
unchecked here.  The state is one flat record, `PlantState`, of what the
integration advances, in `integrate_plant`'s order: the currents, the
DC-link voltage and imbalance, the speed, the angle and the time.
`PlantState.initial` checks the outside values a run starts from;
`plant_step` checks only that the integration stayed finite with a positive
DC-link voltage, and builds the next record unchecked.
The DC-link capacitance and the rotor inertia are parameters of the run,
like the machine and grid parameters; `ScenarioConfig` owns and checks
them once, and the loop passes them to `plant_step`.  The
integration itself runs in `_kernels.integrate_plant` on Python floats, one
straight-line substep per sub-interval (see the `_kernels` module docstring
for why it is bit-identical to composing the per-operation physics).  The
state is a frozen dataclass, built directly rather than through
`dataclasses.replace`, which costs several microseconds per call on every
control step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k

#: allowed per-phase switch levels of the three-level bridge
LEVELS = (-1, 0, 1)


class SimulationBlowUpError(RuntimeError):
    """The integrated state became non-finite."""


@dataclass(frozen=True)
class MachineParams:
    r_s: float
    l_s: float
    psi_pm: float
    pole_pairs: int

    def __post_init__(self):
        if not (self.r_s >= 0 and self.l_s > 0 and self.psi_pm > 0 and self.pole_pairs >= 1):
            raise ValueError("invalid machine parameters")


@dataclass(frozen=True)
class GridParams:
    r_n: float
    l_n: float
    e_peak: float
    omega_n: float

    def __post_init__(self):
        if not (self.r_n >= 0 and self.l_n > 0 and self.e_peak >= 0 and self.omega_n > 0):
            raise ValueError("invalid grid parameters")


@dataclass(frozen=True)
class PlantState:
    """Full simulated system state at one instant: the machine dq currents
    and the grid alpha/beta currents (pairs of Python floats), the total
    DC-link voltage and the capacitor imbalance, the rotor speed, the
    electrical angle and the time."""

    i_m_dq: tuple
    i_n_ab: tuple
    v_dc: float
    v_imb: float
    omega_m: float
    theta_e: float
    t: float

    @classmethod
    def initial(cls, v_dc: float, v_imb: float, omega_m: float, theta_e: float) -> "PlantState":
        """Zero currents at t = 0 with the given DC link, speed and angle;
        `ScenarioConfig.initial_state` passes the scenario's values."""
        if not v_dc > 0.0:
            raise ValueError("v_dc must be positive")
        if not (math.isfinite(v_dc) and math.isfinite(v_imb)):
            raise ValueError("non-finite DC-link state")
        if abs(v_imb) >= v_dc:
            raise ValueError("capacitor imbalance exceeds total voltage")
        return cls((0.0, 0.0), (0.0, 0.0), v_dc, v_imb, omega_m, theta_e % _k.TWO_PI, 0.0)


# ---------------------------------------------------------------------------
# individual physics operations
# ---------------------------------------------------------------------------


#: converter_matrix up to the factor (v_dc + v_imb) / 6
_CONVERTER_PATTERN = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
_CONVERTER_PATTERN.flags.writeable = False


def converter_matrix(v_dc: float, v_imb: float) -> np.ndarray:
    """3x3 map from a switch vector to the three-phase voltage."""
    return _CONVERTER_PATTERN * ((v_dc + v_imb) / 6.0)


def power_output(x_ab, e_ab):
    """Active and reactive power delivered at the grid connection."""
    e_a, e_b = float(e_ab[0]), float(e_ab[1])
    i_a, i_b = float(x_ab[0]), float(x_ab[1])
    p = e_a * i_a + e_b * i_b
    q = e_b * i_a - e_a * i_b
    return p, q


def electromagnetic_torque(i_q: float, p: MachineParams) -> float:
    return 1.5 * p.pole_pairs * p.psi_pm * float(i_q)


def plant_step(
    st: PlantState,
    s_m: tuple,
    s_n: tuple,
    machine: MachineParams,
    grid: GridParams,
    c_dc: float,
    inertia: float,
    t_m: float,
    dt: float,
    substeps: int,
) -> PlantState:
    """Advance the plant by one controller period under the constant level
    tuples `s_m` and `s_n` (unchecked) and the load torque `t_m`, with
    DC-link capacitance `c_dc` and rotor inertia `inertia` (both positive;
    `ScenarioConfig` checks them)."""
    if dt <= 0 or substeps < 1:
        raise ValueError("dt must be positive and substeps >= 1")
    out = _k.integrate_plant(
        *st.i_m_dq, *st.i_n_ab,
        st.v_dc, st.v_imb, st.omega_m, st.theta_e, st.t,
        *s_m, *s_n,
        machine.r_s, machine.l_s, machine.psi_pm, machine.pole_pairs,
        grid.r_n, grid.l_n, grid.e_peak, grid.omega_n,
        c_dc, inertia, t_m,
        dt, substeps,
    )
    i_md, i_mq, i_na, i_nb, v_dc, v_imb, omega_m, theta_e, t = out
    for v in out:
        if not math.isfinite(v):
            raise SimulationBlowUpError("plant state became non-finite")
    if v_dc <= 0.0:
        raise SimulationBlowUpError("DC-link voltage collapsed")
    return PlantState((i_md, i_mq), (i_na, i_nb), v_dc, v_imb, omega_m, theta_e, t)
