"""Radial-oscillator chain tests.

The quadrature-derived normalization is the oracle for eigenfunction
values, the Schroedinger residual for the potential's centrifugal
coefficient, closed-form logarithmic derivatives for the Darboux
identities, and scipy's Laguerre roots and sampled sign changes for the
nodes.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from susycdr.cdr import build_case_b, build_fpe, eval_fields
from susycdr.mathfn import _KRONROD_NODES, gaussian_tail_cutoff, integrate
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

    @pytest.mark.parametrize("field", ["omega", "ell"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, bad):
        # nan <= 0 is False: a NaN or infinite parameter would make every
        # state NaN without an error
        kwargs = {"omega": 1.0, "ell": 1.0, field: bad}
        with pytest.raises(ValueError, match=field):
            OscillatorParams(**kwargs)


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

        norm_sq = integrate(lambda x: shape(x) ** 2, 0.0,
                            gaussian_tail_cutoff(1.0), 1e-12)
        oracle_val = shape(1.0) / math.sqrt(norm_sq)
        assert oracle_val == pytest.approx(0.40163891288830006, abs=1e-12)
        assert u(1.0) == pytest.approx(oracle_val, abs=1e-10)

    def test_unit_norm(self, family):
        for s, n in [(0, 0), (0, 3), (2, 1)]:
            u = family.eigenstate(s, n)
            val = integrate(lambda x: u(x) ** 2, 0.0, 16.0, 1e-12)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_interior_zero_count(self, family):
        # (0, 10) holds every node of these states, so the sampled count
        # and the closed-form nodes agree
        for s, n in [(0, 0), (0, 3), (3, 1), (0, 6), (3, 4)]:
            u = family.eigenstate(s, n)
            assert node_count(u, (DEFAULT_X_MIN, 10.0)) == u.nodes().size == n
            assert n == 0 or u.nodes()[-1] < 10.0

    @pytest.mark.parametrize("ell", [0.5, 1.0, 30.0, 300.0])
    @pytest.mark.parametrize("s", [0, 3])
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
    def test_nodes_match_laguerre_roots(self, ell, s, n):
        omega = 2.0
        u = RadialOscillatorFamily(OscillatorParams(omega, ell)).eigenstate(s, n)
        q = roots_genlaguerre(n, ell + s + 0.5)[0]
        np.testing.assert_allclose(u.nodes(), np.sqrt(2.0 * q / omega),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("ell", [0.5, 1.0, 30.0])
    @pytest.mark.parametrize("s,n", [(0, 1), (0, 6), (3, 4), (1, 12)])
    def test_state_changes_sign_across_each_node(self, ell, s, n):
        u = RadialOscillatorFamily(OscillatorParams(1.0, ell)).eigenstate(s, n)
        nodes = u.nodes()
        assert nodes.size == n and np.all(np.diff(nodes) > 0.0)
        assert np.all(u(nodes * (1.0 - 1e-9)) * u(nodes * (1.0 + 1e-9)) < 0.0)

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
        val = integrate(lambda x: u2(x) * u4(x), 0.0, 16.0, 1e-10)
        assert abs(val) <= 1e-8

    def test_rejects_negative_x(self, family):
        u = family.eigenstate(0, 1)
        with pytest.raises(ValueError):
            u(-1.0)
        with pytest.raises(ValueError):
            u.deriv(0.0)


def _panel_nodes(lo, hi):
    """The 61 Gauss-Kronrod nodes of one quadrature panel on (lo, hi)."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * _KRONROD_NODES


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


_ARBITER_CASES = ([(omega, ell, s, n) for omega, ell, s in _MEMBER_CASES
                   for n in (0, 1, 2, 5, 12)]
                  + [(1.0, 1.0, 1, 20), (4.0, 285.0, 0, 2), (1.0, 300.0, 0, 2)])


def _mp_jet(u, x):
    """(u, u', u'') at the points ``x`` in 40-digit arithmetic: mpmath's
    Laguerre function and Gamma for the closed form, its numerical
    differentiation for the derivatives."""
    with mpmath.workdps(40):
        big_l = mpmath.mpf(u.family.ell) + u.s
        omega = mpmath.mpf(u.family.omega)
        norm = mpmath.root(2 * omega, 4) * mpmath.sqrt(
            mpmath.factorial(u.n) / mpmath.gamma(u.n + big_l + mpmath.mpf(1.5)))

        def value(xx):
            q = omega * xx * xx / 2
            return (norm * q ** ((big_l + 1) / 2) * mpmath.exp(-q / 2)
                    * mpmath.laguerre(u.n, big_l + mpmath.mpf(0.5), q))

        rows = [[float(d) for d in mpmath.diffs(value, mpmath.mpf(xx), 2)]
                for xx in x.tolist()]
    return np.array(rows).T


class TestJetArbiter:
    @pytest.mark.parametrize("omega, ell, s, n", _ARBITER_CASES)
    def test_matches_mpmath(self, omega, ell, s, n):
        # 32 points over the state's support, up to q = 2 L + 4 n + 80; the
        # log-space prefactor loses about eps * p ln q, so large ell + s
        # gets the looser bound
        u = RadialOscillatorFamily(OscillatorParams(omega, ell)).eigenstate(s, n)
        q_hi = 2.0 * (ell + s) + 4.0 * n + 80.0
        x = np.sqrt(2.0 * np.linspace(q_hi / 32, q_hi, 32) / omega)
        bound = 1e-14 if ell + s <= 10 else 1e-12
        for k, (got, ref) in enumerate(zip(u.jet(x), _mp_jet(u, x))):
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= bound * scale, k


def _assert_same_bits(got, ref):
    """Equal bits and equal shape; a 0-d reference wants a float."""
    assert np.shape(got) == np.shape(ref)
    assert np.array_equal(got, ref)
    if np.shape(ref) == ():
        assert isinstance(got, float)


class TestDerivativeBits:
    @pytest.mark.parametrize("omega, ell, s", _MEMBER_CASES)
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
    def test_bitwise_equal_to_reference_expressions(self, omega, ell, s, n):
        # The references are the value call and the second-order jet on a
        # 1-d array: u of the jet is the call's value, the first-order jet
        # and deriv/deriv2 are projections of it, and a 2-d block or a
        # scalar gives the bits of the same points in 1-d, shaped like
        # itself (a scalar gives a float of shape ()).
        fam = RadialOscillatorFamily(OscillatorParams(omega, ell))
        u = fam.eigenstate(s, n)
        block = _similarity_block(1.2)
        flat = block.ravel()
        val, d1, d2 = u.jet(flat)
        assert np.array_equal(val, u(flat))
        first = u.jet(flat, 1)
        assert len(first) == 2
        assert np.array_equal(first[0], val) and np.array_equal(first[1], d1)
        assert np.array_equal(u.deriv(flat), d1)
        assert np.array_equal(u.deriv2(flat), d2)
        member = fam.eigenstate_values(s, n, flat)
        # fpe: zero reaction; case_b: the potential difference in R
        systems = [build_fpe(fam, s, n, 1.2),
                   build_case_b(fam, 1.2, n, s + 1, n + 1, s, 1.5, 2.5)]
        fields = [eval_fields(system, flat, 1.3) for system in systems]
        k = 1234
        for x, pick in ((block, lambda a: a.reshape(block.shape)),
                        (float(flat[k]), lambda a: a[k])):
            _assert_same_bits(u(x), pick(val))
            for got, ref in zip(u.jet(x), (val, d1, d2), strict=True):
                _assert_same_bits(got, pick(ref))
            for got, ref in zip(u.jet(x, 1), (val, d1), strict=True):
                _assert_same_bits(got, pick(ref))
            _assert_same_bits(u.deriv(x), pick(d1))
            _assert_same_bits(u.deriv2(x), pick(d2))
            for got, ref in zip(fam.eigenstate_values(s, n, x), member,
                                strict=True):
                _assert_same_bits(got, pick(ref))
            for system, ref_fields in zip(systems, fields):
                for got, ref in zip(eval_fields(system, x, 1.3), ref_fields,
                                    strict=True):
                    _assert_same_bits(got, pick(ref))

    @pytest.mark.parametrize("order", [0, 3])
    def test_rejects_other_orders(self, family, order):
        with pytest.raises(ValueError, match="order"):
            family.eigenstate(0, 2).jet(1.0, order)


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

            def jet(self, x, order=2):
                e = np.exp(-x)
                return (e, -e, e)[:order + 1]

        partner = darboux_partner(lambda x: 0.0, Decay(), 1.3)
        assert abs(partner) <= 1e-6

    def test_rejects_nonpositive_seed(self, family):
        u1 = family.eigenstate(0, 1)  # has a node, goes negative
        v0 = lambda x: family.potential(0, x)
        with pytest.raises(ValueError):
            darboux_partner(v0, u1, 5.0)

    def test_reads_one_jet_of_the_seed(self, family, laguerre_calls):
        # u_2 is positive below its first node (x = 1.8); its jet runs one
        # recurrence per Laguerre factor and no value call
        x = np.linspace(0.2, 1.0, 20)
        darboux_partner(lambda xx: family.potential(0, xx),
                        family.eigenstate(0, 2), x)
        assert laguerre_calls == {"laguerre_table": 3, "laguerre_values": 0}


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
        class Line:
            """x - 1 with its slope: an exact zero at x = 1."""

            def jet(self, x, order=2):
                return (x - 1.0, 1.0, 0.0)[:order + 1]

        with pytest.raises(ValueError):
            darboux_state(Line(), family.eigenstate(0, 0), 1.0)

    def test_reads_one_first_order_jet_per_state(self, family, laguerre_calls):
        # u_1 (first node at x = 2.24) seeds, u_3 is transformed; each
        # first-order jet runs two recurrences and no value call
        darboux_state(family.eigenstate(0, 1), family.eigenstate(0, 3),
                      np.linspace(0.3, 0.9, 20))
        assert laguerre_calls == {"laguerre_table": 4, "laguerre_values": 0}
