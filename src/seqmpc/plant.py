"""Ground-truth simulation of the three-level NPC back-to-back PMSG system.

The plant integrates the machine dq currents, grid alpha/beta currents,
DC-link voltages and the mechanical speed with fixed-step explicit Euler,
holding the applied switch states and the load torque constant over each
controller period (zero-order hold).  Both are inputs of `plant_step`, which
the closed loop passes on every step.  The state holds only what the
integration advances: currents, DC-link voltages, speed, angle and time.
The DC-link capacitance and the rotor inertia are parameters of the run,
like the machine and grid parameters; `ScenarioConfig` owns and checks
them once, and the loop passes them to `plant_step`.  The
integration itself runs in `_kernels.integrate_plant` on Python floats, one
straight-line substep per sub-interval (see the `_kernels` module docstring
for why it is bit-identical to composing the per-operation physics).  The
state types are frozen dataclasses, built directly rather than through
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
class SwitchState:
    """Per-phase levels of one converter side, each in {-1, 0, 1}."""

    s_a: int
    s_b: int
    s_c: int

    def __post_init__(self):
        for s in (self.s_a, self.s_b, self.s_c):
            if s not in LEVELS:
                raise ValueError(f"switch level {s} not in {{-1, 0, 1}}")

    def as_array(self) -> np.ndarray:
        return np.array([self.s_a, self.s_b, self.s_c], dtype=np.int64)

    @classmethod
    def zero(cls) -> "SwitchState":
        return cls(0, 0, 0)


@dataclass(frozen=True)
class DcLinkState:
    """Total DC-link voltage and capacitor imbalance."""

    v_dc: float
    v_imb: float

    def __post_init__(self):
        if not self.v_dc > 0.0:
            raise ValueError("v_dc must be positive")
        if not (math.isfinite(self.v_dc) and math.isfinite(self.v_imb)):
            raise ValueError("non-finite DC-link state")

    def validate_balanced(self):
        if abs(self.v_imb) >= self.v_dc:
            raise ValueError("capacitor imbalance exceeds total voltage")


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
class MechState:
    """Rotor speed and electrical angle."""

    omega_m: float
    theta_e: float


@dataclass(frozen=True)
class PlantState:
    """Full simulated system state at one instant.

    The currents are pairs of Python floats: the machine dq currents and the
    grid alpha/beta currents.
    """

    i_m_dq: tuple
    i_n_ab: tuple
    dc: DcLinkState
    mech: MechState
    t: float

    @classmethod
    def initial(cls, v_dc: float, v_imb: float, omega_m: float, theta_e: float) -> "PlantState":
        """Zero currents at t = 0 with the given DC link, speed and angle;
        `ScenarioConfig.initial_state` passes the scenario's values."""
        mech = MechState(omega_m=omega_m, theta_e=theta_e % _k.TWO_PI)
        dc = DcLinkState(v_dc=v_dc, v_imb=v_imb)
        dc.validate_balanced()
        return cls(
            i_m_dq=(0.0, 0.0),
            i_n_ab=(0.0, 0.0),
            dc=dc,
            mech=mech,
            t=0.0,
        )


# ---------------------------------------------------------------------------
# individual physics operations
# ---------------------------------------------------------------------------


#: converter_matrix up to the factor (v_dc + v_imb) / 6
_CONVERTER_PATTERN = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
_CONVERTER_PATTERN.flags.writeable = False


def converter_matrix(dc: DcLinkState) -> np.ndarray:
    """3x3 map from a switch vector to the three-phase voltage."""
    return _CONVERTER_PATTERN * ((dc.v_dc + dc.v_imb) / 6.0)


def grid_emf(t: float, p: GridParams) -> np.ndarray:
    """Grid EMF in alpha/beta at time `t` (balanced three-phase source)."""
    return np.array(_k.grid_emf2(t, p.e_peak, p.omega_n))


def power_output(x_ab, e_ab):
    """Active and reactive power delivered at the grid connection."""
    e_a, e_b = float(e_ab[0]), float(e_ab[1])
    i_a, i_b = float(x_ab[0]), float(x_ab[1])
    p = e_a * i_a + e_b * i_b
    q = e_b * i_a - e_a * i_b
    return p, q


def electromagnetic_torque(i_q: float, p: MachineParams) -> float:
    return _k.torque_of_iq(float(i_q), p.pole_pairs, p.psi_pm)


def plant_step(
    st: PlantState,
    s_m: SwitchState,
    s_n: SwitchState,
    machine: MachineParams,
    grid: GridParams,
    c_dc: float,
    inertia: float,
    t_m: float,
    dt: float,
    substeps: int = 10,
) -> PlantState:
    """Advance the plant by one controller period under constant switches
    and the load torque `t_m`, with DC-link capacitance `c_dc` and rotor
    inertia `inertia` (both positive; `ScenarioConfig` checks them)."""
    if dt <= 0 or substeps < 1:
        raise ValueError("dt must be positive and substeps >= 1")
    out = _k.integrate_plant(
        *st.i_m_dq, *st.i_n_ab,
        st.dc.v_dc, st.dc.v_imb,
        st.mech.omega_m, st.mech.theta_e, st.t,
        s_m.s_a, s_m.s_b, s_m.s_c, s_n.s_a, s_n.s_b, s_n.s_c,
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
    return PlantState(
        i_m_dq=(i_md, i_mq),
        i_n_ab=(i_na, i_nb),
        dc=DcLinkState(v_dc=v_dc, v_imb=v_imb),
        mech=MechState(omega_m, theta_e),
        t=t,
    )
