import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from seqmpc import _kernels
from seqmpc.prediction import CLARKE_MAT, park_matrix

finite = st.floats(-1e6, 1e6, allow_nan=False)
angle = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)


class TestClarke:
    def test_zero_sequence_maps_to_origin(self):
        assert_allclose(_kernels.clarke3(1.0, 1.0, 1.0), [0.0, 0.0], atol=1e-15)

    def test_alpha_axis(self):
        expected = math.sqrt(2.0 / 3.0) * 1.5
        assert_allclose(_kernels.clarke3(1.0, -0.5, -0.5), [expected, 0.0], atol=1e-12)
        assert expected == pytest.approx(1.224745, abs=1e-6)

    def test_beta_axis(self):
        s32 = math.sqrt(3.0) / 2.0
        assert_allclose(_kernels.clarke3(0.0, s32, -s32), [0.0, 1.224745], atol=1e-6)

    def test_matches_matrix_form(self, rng):
        for _ in range(100):
            v = rng.normal(size=3)
            assert_allclose(_kernels.clarke3(*v), CLARKE_MAT @ v, rtol=1e-12, atol=1e-12)

    @given(finite, finite, finite, finite, finite, finite, st.floats(-10, 10))
    def test_linearity(self, a, b, c, x, y, z, lam):
        left = _kernels.clarke3(lam * a + x, lam * b + y, lam * c + z)
        right = lam * np.array(_kernels.clarke3(a, b, c)) + np.array(_kernels.clarke3(x, y, z))
        assert_allclose(left, right, rtol=1e-9, atol=1e-6)

    @given(st.floats(-1e8, 1e8, allow_nan=False))
    def test_common_mode_rejection(self, c):
        assert_allclose(_kernels.clarke3(c, c, c), [0.0, 0.0], atol=1e-7 * max(1.0, abs(c)))


class TestClarkePinv:
    def test_origin(self):
        assert_allclose(_kernels.clarke_pinv2(0.0, 0.0), [0.0, 0.0, 0.0])

    def test_alpha_unit(self):
        root23 = math.sqrt(2.0 / 3.0)
        root16 = math.sqrt(1.0 / 6.0)
        assert_allclose(_kernels.clarke_pinv2(1.0, 0.0), [root23, -root16, -root16], atol=1e-12)

    def test_zero_sum_round_trip(self):
        w = np.array([1.0, -1.0, 0.0])
        assert_allclose(_kernels.clarke_pinv2(*_kernels.clarke3(*w)), w, atol=1e-12)

    @given(finite, finite)
    def test_right_inverse(self, alpha, beta):
        back = _kernels.clarke3(*_kernels.clarke_pinv2(alpha, beta))
        assert_allclose(back, [alpha, beta], rtol=1e-12, atol=1e-9)

    def test_output_sums_to_zero(self, rng):
        for _ in range(100):
            v = rng.normal(size=2) * 100
            assert np.array(_kernels.clarke_pinv2(*v)).sum() == pytest.approx(0.0, abs=1e-9)


class TestPark:
    def test_identity_at_zero_angle(self):
        assert_allclose(_kernels.park2(3.0, -2.0, 0.0), [3.0, -2.0])
        assert_allclose(_kernels.park_inv2(3.0, -2.0, 0.0), [3.0, -2.0])

    def test_quarter_turn(self):
        assert_allclose(_kernels.park2(1.0, 0.0, math.pi / 2), [0.0, -1.0], atol=1e-12)
        assert_allclose(_kernels.park_inv2(0.0, -1.0, math.pi / 2), [1.0, 0.0], atol=1e-12)

    @given(finite, finite, angle)
    def test_round_trip(self, x, y, theta):
        v = np.array([x, y])
        back = _kernels.park_inv2(*_kernels.park2(*v, theta), theta)
        assert_allclose(back, v, rtol=1e-9, atol=1e-6)

    @given(finite, finite, angle)
    def test_isometry(self, x, y, theta):
        norm_in = math.hypot(x, y)
        assert np.linalg.norm(_kernels.park2(x, y, theta)) == pytest.approx(
            norm_in, rel=1e-9, abs=1e-6
        )
        assert np.linalg.norm(_kernels.park_inv2(x, y, theta)) == pytest.approx(
            norm_in, rel=1e-9, abs=1e-6
        )

    def test_matrix_orthogonality(self, rng):
        for theta in rng.uniform(0, 2 * math.pi, size=50):
            p = park_matrix(theta)
            assert_allclose(p @ p.T, np.eye(2), atol=1e-14)
