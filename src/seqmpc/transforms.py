"""Clarke and Park coordinate transforms.

Power-invariant scaling (sqrt(2/3)) throughout; all downstream power and
torque expressions assume this normalization.  The Clarke pseudo-inverse is
the closed-form transpose, valid because the scaled Clarke matrix satisfies
T @ T.T = I.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels as _k

#: 2x3 power-invariant Clarke matrix (abc -> alpha/beta)
CLARKE_MAT = _k.SQRT23 * np.array([[1.0, -0.5, -0.5], [0.0, _k.SQRT3_2, -_k.SQRT3_2]])

#: 3x2 Moore-Penrose pseudo-inverse of CLARKE_MAT (equals its transpose here)
CLARKE_PINV_MAT = CLARKE_MAT.T.copy()


def clarke(v_abc) -> np.ndarray:
    """Map a three-phase quantity to the stationary alpha/beta frame."""
    a, b, c = v_abc
    return np.array(_k.clarke3(float(a), float(b), float(c)))


def clarke_pinv(v_ab) -> np.ndarray:
    """Reconstruct the zero-sum three-phase quantity from alpha/beta."""
    alpha, beta = v_ab
    return np.array(_k.clarke_pinv2(float(alpha), float(beta)))


def park(v_ab, theta: float) -> np.ndarray:
    """Rotate alpha/beta into the dq frame at electrical angle `theta`."""
    alpha, beta = v_ab
    return np.array(_k.park2(float(alpha), float(beta), float(theta)))


def park_inv(v_dq, theta: float) -> np.ndarray:
    """Rotate dq back to alpha/beta (transpose of the Park rotation)."""
    d, q = v_dq
    return np.array(_k.park_inv2(float(d), float(q), float(theta)))


def park_matrix(theta: float) -> np.ndarray:
    ct, st = math.cos(theta), math.sin(theta)
    return np.array([[ct, st], [-st, ct]])
