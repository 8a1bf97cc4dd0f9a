"""Special-function and quadrature tests.

The Laguerre recurrence is checked against an explicit series sum, the
derivative identity that ``Eigenstate.deriv`` applies,
d/dy L_n^a = -L_{n-1}^{a+1}, against finite differences of that sum, and
the quadrature against closed-form integrals. The series and
finite-difference oracles live here, independent of the package; the
sweep oracles run in extended precision because the float64 series loses
up to eight digits to cancellation near n = 10, y = 30.
"""

import math

import mpmath
import numpy as np
import pytest

from susycdr._kernels import laguerre_values
from susycdr.mathfn import (QuadratureError, QuadratureSpec,
                            gaussian_tail_cutoff, integrate, laguerre)

mpmath.mp.dps = 40


def laguerre_series(n, a, y):
    """Oracle: L_n^a(y) = sum_k binom(n+a, n-k) (-y)^k / k! (float64)."""
    total = 0.0
    for k in range(n + 1):
        binom = math.exp(
            math.lgamma(n + a + 1.0)
            - math.lgamma(k + a + 1.0)
            - math.lgamma(n - k + 1.0)
        )
        total += binom * (-y) ** k / math.factorial(k)
    return total


def laguerre_series_mp(n, a, y):
    """Same series in 40-digit arithmetic (for the ill-conditioned sweeps)."""
    y = mpmath.mpf(y)
    a = mpmath.mpf(a)
    total = mpmath.mpf(0)
    for k in range(n + 1):
        binom = mpmath.gamma(n + a + 1) / (
            mpmath.gamma(k + a + 1) * mpmath.factorial(n - k)
        )
        total += binom * (-y) ** k / mpmath.factorial(k)
    return total


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 0.5, 3.7) == 1.0

    def test_degree_one_closed_form(self):
        assert laguerre(1, 0.5, 2.0) == pytest.approx(-0.5, abs=1e-15)

    def test_degree_two_against_series(self):
        expected = laguerre_series(2, 1.5, 1.0)
        assert expected == pytest.approx(1.375, abs=1e-12)
        assert laguerre(2, 1.5, 1.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("n", range(11))
    def test_recurrence_matches_series(self, n, a):
        for y in np.linspace(0.0, 30.0, 16):
            ref = float(laguerre_series_mp(n, a, float(y)))
            got = laguerre(n, a, float(y))
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_array_input(self):
        y = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            laguerre(1, 0.5, y), 1.5 - y, rtol=0, atol=1e-15
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            laguerre(2, -1.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(-1, 0.5, 1.0)


def laguerre_slope(n, a, y):
    """-L_{n-1}^{a+1}(y) on the array ``y``, as ``Eigenstate.deriv`` forms
    d/dy L_n^a (zero for n = 0)."""
    if n == 0:
        return np.zeros_like(y)
    return -laguerre_values(n - 1, a + 1.0, y)


class TestLaguerreDeriv:
    def test_degree_two_against_fd_oracle(self):
        # central finite difference of the series sum at step 1e-6
        h = 1e-6
        fd = (laguerre_series(2, 1.5, 1.0 + h)
              - laguerre_series(2, 1.5, 1.0 - h)) / (2 * h)
        assert fd == pytest.approx(-2.5, abs=1e-8)
        slope = laguerre_slope(2, 1.5, np.array([1.0]))[0]
        assert slope == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("n", range(11))
    def test_identity_matches_fd(self, n, a):
        h = mpmath.mpf("1e-8")
        ys = np.linspace(0.5, 29.5, 8)
        for y, slope in zip(ys.tolist(), laguerre_slope(n, a, ys).tolist()):
            fd = float(
                (laguerre_series_mp(n, a, mpmath.mpf(y) + h)
                 - laguerre_series_mp(n, a, mpmath.mpf(y) - h)) / (2 * h)
            )
            assert abs(slope - fd) <= 1e-6


class TestIntegrate:
    def test_exponential(self):
        spec = QuadratureSpec(truncation_x_max=50.0)
        val = integrate(lambda x: np.exp(-x), 0.0, spec)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_x_gaussian(self):
        spec = QuadratureSpec(truncation_x_max=10.0)
        val = integrate(lambda x: x * np.exp(-x * x), 0.0, spec)
        assert val == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
    def test_polynomial_times_gaussian(self, k):
        # integral of x^k exp(-x^2) over (0, inf) = Gamma((k+1)/2) / 2
        spec = QuadratureSpec(truncation_x_max=12.0)
        val = integrate(lambda x: x ** k * np.exp(-x * x), 0.0, spec)
        ref = math.exp(math.lgamma((k + 1) / 2.0)) / 2.0
        assert abs(val - ref) <= spec.abs_tol * 100 + 1e-12 * abs(ref)

    def test_tail_check_rejects_fat_truncation(self):
        spec = QuadratureSpec(truncation_x_max=3.0)
        with pytest.raises(ValueError, match="truncation"):
            integrate(lambda x: np.exp(-x), 0.0, spec)

    def test_nonconvergence_reported(self):
        # resolving this oscillation needs ~2e5 panels, far beyond the
        # subdivision budget; the failure must be reported, not silent
        spec = QuadratureSpec(truncation_x_max=2.0)

        def wild(x):
            x = np.asarray(x)
            return np.cos(1e6 * x) * (2.0 - x)

        with pytest.raises(QuadratureError):
            integrate(wild, 0.0, spec)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_x_max=0.0)

    def test_gaussian_tail_cutoff(self):
        for omega in (0.5, 1.0, 2.0):
            x = gaussian_tail_cutoff(omega)
            assert math.exp(-omega * x * x / 4.0) < 1e-15

