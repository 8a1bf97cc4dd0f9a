"""Radial-oscillator chain tests.

The quadrature-derived normalization is the oracle for eigenfunction
values, the Schroedinger residual for the potential's centrifugal
coefficient, and closed-form logarithmic derivatives for the Darboux
identities.
"""

import math

import numpy as np
import pytest

from susycdr._kernels import laguerre_values
from susycdr.mathfn import _K15_NODES, QuadratureSpec, integrate
from susycdr.quantum import (DEFAULT_X_MIN, Eigenstate, OscillatorParams,
                             RadialOscillatorFamily, base_potential,
                             darboux_partner, darboux_state)
from susycdr.verify import GridSpec, node_count, schrodinger_residual

from test_fd_stencil import fd_derivative


@pytest.fixture(scope="module")
def family():
    return RadialOscillatorFamily(OscillatorParams(1.0, 1.0))


class TestOscillatorParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OscillatorParams(0.0, 1.0)
        with pytest.raises(ValueError):
            OscillatorParams(1.0, -0.5)


class TestBasePotential:
    def test_value_at_one(self):
        assert base_potential(OscillatorParams(1.0, 1.0), 1.0) == pytest.approx(
            -0.25, abs=1e-15
        )

    def test_value_at_two(self):
        assert base_potential(OscillatorParams(1.0, 1.0), 2.0) == pytest.approx(
            -1.0, abs=1e-15
        )

    def test_ground_state_sits_at_zero_energy(self, family):
        # -u0'' + V u0 must vanish identically (E_0 = 0)
        x = np.linspace(0.3, 6.0, 200)
        u0 = family.eigenstate(0, 0)
        resid = -u0.deriv2(x) + base_potential(family.params, x) * u0(x)
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(u0(x)))

    def test_domain_error(self, family):
        with pytest.raises(ValueError):
            base_potential(family.params, 0.0)
        with pytest.raises(ValueError):
            base_potential(family.params, -1.0)


class TestChainPotential:
    def test_s_zero_equals_base(self, family):
        x = np.linspace(0.2, 8.0, 50)
        np.testing.assert_array_equal(
            family.potential(0, x), base_potential(family.params, x)
        )

    def test_first_member_value(self, family):
        assert family.potential(1, 1.0) == pytest.approx(4.75, abs=1e-12)

    def test_third_member_rule(self, family):
        x = np.linspace(0.2, 8.0, 50)
        expected = base_potential(OscillatorParams(1.0, 4.0), x) + 6.0
        np.testing.assert_allclose(
            family.potential(3, x), expected, rtol=0, atol=1e-12
        )


class TestChainEnergy:
    def test_ground(self, family):
        assert family.energy(0, 0) == 0.0

    def test_composition(self, family):
        assert family.energy(1, 3) == pytest.approx(8.0)

    def test_degeneracy(self, family):
        assert family.energy(3, 1) == family.energy(1, 3)
        for s in range(5):
            for n in range(5):
                for s2 in range(5):
                    n2 = n + s - s2
                    if n2 < 0:
                        continue
                    assert family.energy(s, n) == family.energy(
                        s2, n2
                    )


class TestEigenfunction:
    def test_vanishes_at_origin(self, family):
        u = family.eigenstate(0, 2)
        assert u(0.0) == 0.0
        assert abs(u(1e-8)) < 1e-12

    def test_decays_at_infinity(self, family):
        u = family.eigenstate(1, 2)
        assert abs(u(25.0)) < 1e-60

    def test_value_against_quadrature_normalization(self, family):
        # oracle: normalize the bare shape q^p e^{-q/2} L_n^a(q) by
        # quadrature, then compare the closed-form state against it
        u = family.eigenstate(0, 0)

        def shape(x):
            q = 0.5 * x * x
            return q * np.exp(-0.5 * q)

        norm_sq = integrate(lambda x: shape(x) ** 2, 0.0, QuadratureSpec())
        oracle_val = shape(1.0) / math.sqrt(norm_sq)
        assert oracle_val == pytest.approx(0.40163891288830006, abs=1e-12)
        assert u(1.0) == pytest.approx(oracle_val, abs=1e-10)

    def test_unit_norm(self, family):
        for s, n in [(0, 0), (0, 3), (2, 1)]:
            u = family.eigenstate(s, n)
            val = integrate(lambda x: u(x) ** 2, 0.0,
                            QuadratureSpec(truncation_x_max=16.0))
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_interior_zero_count(self, family):
        assert node_count(family.eigenstate(0, 0), (DEFAULT_X_MIN, 10.0)) == 0
        assert node_count(family.eigenstate(0, 3), (DEFAULT_X_MIN, 10.0)) == 3
        assert node_count(family.eigenstate(3, 1), (DEFAULT_X_MIN, 10.0)) == 1

    @pytest.mark.parametrize("s,n", [(0, 0), (0, 5), (1, 2), (3, 4)])
    def test_schrodinger_residual(self, family, s, n):
        rep = schrodinger_residual(family.eigenstate(s, n), GridSpec())
        assert rep.max_rel <= 1e-8

    def test_derivatives_match_finite_differences(self, family):
        u = family.eigenstate(0, 2)
        for x in (0.5, 1.0, 2.5, 4.0):
            fd1 = fd_derivative(u, x, order=1)
            fd2 = fd_derivative(u, x, order=2)
            assert u.deriv(x) == pytest.approx(fd1, abs=1e-8)
            assert u.deriv2(x) == pytest.approx(fd2, abs=1e-6)

    def test_second_derivative_value(self, family):
        u = family.eigenstate(0, 0)
        fd = fd_derivative(u, 1.0, order=2)
        assert abs(u.deriv2(1.0) - fd) <= 1e-6

    def test_orthogonality_pair(self, family):
        u2 = family.eigenstate(0, 2)
        u4 = family.eigenstate(0, 4)
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10,
                              truncation_x_max=16.0)
        val = integrate(lambda x: u2(x) * u4(x), 0.0, spec)
        assert abs(val) <= 1e-8

    def test_rejects_negative_x(self, family):
        u = family.eigenstate(0, 1)
        with pytest.raises(ValueError):
            u(-1.0)
        with pytest.raises(ValueError):
            u.deriv(0.0)


def _panel_nodes(lo, hi):
    """The 15 Gauss-Kronrod nodes of one quadrature panel on (lo, hi)."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * _K15_NODES


def _similarity_block(alpha):
    """z = x / t^alpha over 16 time levels and 400 points, as pde_residual
    evaluates it."""
    x = np.linspace(0.2, 8.0, 400)
    t = np.linspace(0.5, 2.5, 16)
    return x[None, :] / (t ** alpha)[:, None]


_MEMBER_CASES = [(1.0, 1.0, 0), (0.3, 4.0, 1), (3.0, 0.5, 3), (1.37, 2.2, 2)]


class TestEigenstateValues:
    @pytest.mark.parametrize("omega, ell, s", _MEMBER_CASES)
    @pytest.mark.parametrize("n_max", [0, 1, 8, 20])
    def test_equal_to_per_state_values(self, omega, ell, s, n_max):
        fam = RadialOscillatorFamily(OscillatorParams(omega, ell))
        for x in (_panel_nodes(0.0, 2.7), _panel_nodes(3.1, 9.4),
                  _similarity_block(0.8)):
            values = fam.eigenstate_values(s, n_max, x)
            assert len(values) == n_max + 1
            for n, val in enumerate(values):
                assert np.array_equal(val, fam.eigenstate(s, n)(x)), n

    def test_rejects_bad_arguments(self, family):
        with pytest.raises(ValueError, match="n_max"):
            family.eigenstate_values(0, -1, np.ones(3))
        with pytest.raises(ValueError, match="x >= 0"):
            family.eigenstate_values(0, 2, np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="chain index"):
            family.eigenstate_values(-1, 2, np.ones(3))


def _reference_derivatives(u, x):
    """u' and u'' by the expressions that evaluate every power of q at each
    use, as the derivatives were written before they shared the powers."""
    omega = u.family.omega
    big_l = u.family.ell + u.s
    p = 0.5 * (big_l + 1.0)
    a = big_l + 0.5
    q = 0.5 * omega * x * x

    def lag(shift):
        if u.n < shift:
            return np.zeros_like(q)
        return laguerre_values(u.n - shift, a + shift, q)

    ln, lp, lpp = lag(0), -lag(1), lag(2)
    expq = np.exp(-0.5 * q)
    wp = expq * (p * q ** (p - 1.0) * ln - 0.5 * q ** p * ln + q ** p * lp)
    wpp = expq * (
        (p * (p - 1.0) * q ** (p - 2.0) - p * q ** (p - 1.0) + 0.25 * q ** p) * ln
        + (2.0 * p * q ** (p - 1.0) - q ** p) * lp
        + q ** p * lpp
    )
    wx = omega * x
    return (u.norm_constant * wp * omega * x,
            u.norm_constant * (wpp * wx * wx + wp * omega))


class TestDerivativeBits:
    @pytest.mark.parametrize("omega, ell, s", _MEMBER_CASES)
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
    def test_bitwise_equal_to_reference_expressions(self, omega, ell, s, n):
        u = RadialOscillatorFamily(OscillatorParams(omega, ell)).eigenstate(s, n)
        x = _similarity_block(1.2)
        d1, d2 = _reference_derivatives(u, x)
        assert np.array_equal(u.deriv(x), d1)
        assert np.array_equal(u.deriv2(x), d2)
        # a scalar is evaluated as a one-point array (numpy's array power
        # and Python's float power may differ in the last bit)
        d1, d2 = _reference_derivatives(u, np.array([1.7]))
        assert u.deriv(1.7) == d1[0] and u.deriv2(1.7) == d2[0]


class TestDarbouxPartner:
    def test_matches_next_chain_member_at_point(self, family):
        v0 = lambda x: family.potential(0, x)
        val = darboux_partner(v0, family.eigenstate(0, 0), 1.0)
        assert val == pytest.approx(4.75, abs=1e-10)
        assert val == pytest.approx(family.potential(1, 1.0), abs=1e-10)

    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_shape_invariance_identity(self, family, s):
        x = np.linspace(0.2, 8.0, 300)
        vs = lambda xx: family.potential(s, xx)
        partner = darboux_partner(vs, family.eigenstate(s, 0), x)
        target = family.potential(s + 1, x)
        assert np.max(np.abs(partner - target)) <= 1e-6

    def test_free_particle_sanity(self):
        class Decay:
            """exp(-x) with its derivatives: the free-particle seed."""

            def __call__(self, x):
                return np.exp(-x)

            def deriv(self, x):
                return -np.exp(-x)

            def deriv2(self, x):
                return np.exp(-x)

        partner = darboux_partner(lambda x: 0.0, Decay(), 1.3)
        assert abs(partner) <= 1e-6

    def test_rejects_nonpositive_seed(self, family):
        u1 = family.eigenstate(0, 1)  # has a node, goes negative
        v0 = lambda x: family.potential(0, x)
        with pytest.raises(ValueError):
            darboux_partner(v0, u1, 5.0)


class TestDarbouxState:
    def test_annihilates_seed(self, family):
        u0 = family.eigenstate(0, 0)
        x = np.linspace(0.3, 6.0, 100)
        out = darboux_state(u0, u0, x)
        assert np.max(np.abs(out)) <= 1e-12

    def test_lands_on_next_member_ground_state(self, family):
        # transforming u_1 by the u_0 seed must be proportional to the
        # ground state of the next chain member
        u0 = family.eigenstate(0, 0)
        u1 = family.eigenstate(0, 1)
        target = family.eigenstate(1, 0)
        x = np.linspace(0.5, 4.0, 60)
        ratio = darboux_state(u0, u1, x) / target(x)
        assert np.std(ratio) <= 1e-10 * abs(np.mean(ratio))

    def test_transformed_state_solves_partner_problem(self, family):
        # -phi1'' + (V_1 - E) phi1 = 0 with E the source level's energy
        u0 = family.eigenstate(0, 0)
        u1 = family.eigenstate(0, 1)
        phi1 = lambda xx: darboux_state(u0, u1, xx)
        xs = np.linspace(0.5, 5.0, 30)
        scale = np.max(np.abs([phi1(float(x)) for x in xs]))
        for x in xs:
            x = float(x)
            resid = (
                -fd_derivative(phi1, x, order=2, h=1e-3)
                + (family.potential(1, x) - u1.energy) * phi1(x)
            )
            assert abs(resid) <= 1e-5 * scale

    def test_rejects_seed_zero(self, family):
        u0 = family.eigenstate(0, 0)
        seed = lambda x: x - 1.0  # exact zero at x = 1
        with pytest.raises(ValueError):
            darboux_state(seed, u0, 1.0)
