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
from susycdr.mathfn import (_GAUSS_WEIGHTS, _KRONROD_NODES,
                            _KRONROD_WEIGHTS, QuadratureError,
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

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_scalar_argument_gives_float64(self, n):
        # degree 0 is the one degree not taken from the recurrence
        assert type(laguerre(n, 0.5, 3.7)) is np.float64

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


class TestKronrodRule:
    """The panel rule's constants, checked apart from how they were made."""

    def test_embedded_gauss_rule_is_gauss_legendre_30(self):
        nodes, weights = np.polynomial.legendre.leggauss(30)
        assert np.max(np.abs(_KRONROD_NODES[1::2] - nodes)) <= 1e-14
        assert np.max(np.abs(_GAUSS_WEIGHTS - weights)) <= 1e-14

    def test_exact_for_monomials_up_to_degree_91(self):
        k = np.arange(92)
        exact = np.where(k % 2 == 1, 0.0, 2.0 / (k + 1))
        values = (_KRONROD_NODES[None, :] ** k[:, None]) @ _KRONROD_WEIGHTS
        assert np.max(np.abs(values - exact)) <= 1e-15

    def test_symmetric_with_centre_node_zero(self):
        assert len(_KRONROD_NODES) == len(_KRONROD_WEIGHTS) == 61
        assert np.all(np.diff(_KRONROD_NODES) > 0)
        assert np.array_equal(_KRONROD_NODES, -_KRONROD_NODES[::-1])
        assert np.array_equal(_KRONROD_WEIGHTS, _KRONROD_WEIGHTS[::-1])
        assert np.array_equal(_GAUSS_WEIGHTS, _GAUSS_WEIGHTS[::-1])
        assert _KRONROD_NODES[30] == 0.0


class TestIntegrate:
    TOL = 1e-12

    def test_exponential(self):
        val = integrate(lambda x: np.exp(-x), 0.0, 50.0, self.TOL)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_x_gaussian(self):
        val = integrate(lambda x: x * np.exp(-x * x), 0.0, 10.0, self.TOL)
        assert val == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
    def test_polynomial_times_gaussian(self, k):
        # integral of x^k exp(-x^2) over (0, inf) = Gamma((k+1)/2) / 2
        val = integrate(lambda x: x ** k * np.exp(-x * x), 0.0, 12.0, self.TOL)
        ref = math.exp(math.lgamma((k + 1) / 2.0)) / 2.0
        assert abs(val - ref) <= self.TOL * 100 + 1e-12 * abs(ref)

    @pytest.mark.parametrize("lower", [math.nan, -math.inf])
    def test_rejects_non_finite_lower(self, lower):
        # both compare False against the truncation point and used to
        # return nan
        with pytest.raises(ValueError, match="lower"):
            integrate(lambda x: np.exp(-x), lower, 50.0, self.TOL)

    def test_tail_check_rejects_fat_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            integrate(lambda x: np.exp(-x), 0.0, 3.0, self.TOL)

    def test_tail_check_sees_past_a_zero_at_the_cut(self):
        # f vanishes at the cut x = 12, but about 8 sqrt(pi) = 14.2 of its
        # mass lies beyond; a check at the cut alone would return -6.1e-31
        def f(x):
            return (x - 12.0) * np.exp(-(x - 20.0) ** 2)

        with pytest.raises(ValueError, match="truncation"):
            integrate(f, 0.0, 12.0, self.TOL)

    def test_nonconvergence_reported(self):
        # resolving this oscillation needs ~2e5 panels, far beyond the
        # subdivision budget; the failure must be reported, not silent.
        # The factor vanishes from the cut x = 2 on, so the tail check passes.
        def wild(x):
            x = np.asarray(x)
            return np.cos(1e6 * x) * np.maximum(2.0 - x, 0.0)

        with pytest.raises(QuadratureError):
            integrate(wild, 0.0, 2.0, self.TOL)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_inside_rejected(self, bad):
        # the estimate turns NaN or inf, ends the bisection, and used to be
        # returned as the integral
        def f(x):
            return np.where((x > 10.0) & (x < 14.0), bad, np.exp(-x))

        with pytest.raises(ValueError, match=r"not finite on \[0, 50\]"):
            integrate(f, 0.0, 50.0, self.TOL)

    # field -> (argument, scale of the integrand): tol is the absolute
    # tolerance while |integral| <= 1 and the relative one above it, upper
    # is the truncation point of the half line
    ROLES = {"abs_tol": ("tol", 1.0), "rel_tol": ("tol", 1e3),
             "truncation_x_max": ("upper", 1.0)}

    @pytest.mark.parametrize("field", list(ROLES))
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf,
                                       math.nan])
    def test_invalid_spec(self, field, value):
        # an inf tolerance would accept one coarse panel, an inf truncation
        # point would put inf among the nodes
        name, scale = self.ROLES[field]
        args = {"upper": 50.0, "tol": self.TOL, name: value}
        with pytest.raises(ValueError, match=name):
            integrate(lambda x: scale * np.exp(-x), 0.0, args["upper"],
                      args["tol"])

    def test_gaussian_tail_cutoff(self):
        for omega in (0.5, 1.0, 2.0):
            x = gaussian_tail_cutoff(omega)
            assert math.exp(-omega * x * x / 4.0) < 1e-15

