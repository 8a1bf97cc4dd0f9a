"""Exponent linkage and similarity-lift tests."""

import numpy as np
import pytest

from susycdr.similarity import (ScalingExponents, exponents_for_class,
                                lift_field, to_similarity)


class TestExponents:
    def test_alpha_one(self):
        e = exponents_for_class(1.0)
        assert (e.gamma, e.delta, e.mu, e.rho_exp) == (0.0, 1.0, -1.0, -2.0)

    def test_alpha_zero(self):
        e = exponents_for_class(0.0)
        assert (e.gamma, e.delta, e.mu, e.rho_exp) == (-1.0, -1.0, 0.0, -1.0)

    def test_alpha_half(self):
        e = exponents_for_class(0.5)
        assert (e.gamma, e.delta, e.mu, e.rho_exp) == (-0.5, 0.0, -0.5, -1.5)

    def test_linkage_holds_for_any_mu(self):
        e = ScalingExponents(alpha=0.7, mu=0.3)
        assert e.gamma == pytest.approx(-0.3)
        assert e.delta == pytest.approx(0.4)
        assert e.rho_exp == pytest.approx(-0.7)


class TestToSimilarity:
    def test_values(self):
        assert to_similarity(2.0, 4.0, 0.5) == pytest.approx(1.0)
        assert to_similarity(3.0, 1.0, 0.77) == pytest.approx(3.0)
        assert to_similarity(3.0, 8.0, 1.0 / 3.0) == pytest.approx(1.5)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            to_similarity(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            to_similarity(1.0, -2.0, 1.0)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            z = rng.uniform(0.1, 10.0)
            t = rng.uniform(0.1, 10.0)
            alpha = rng.uniform(-2.0, 2.0)
            back = to_similarity(z * t ** alpha, t, alpha)
            assert abs(back - z) <= 1e-14 * abs(z)


class TestLiftField:
    def test_zero_exponent_returns_profile_of_z(self):
        f = lift_field(0.0, lambda z: z, alpha=0.8)
        assert f(2.0, 3.0) == pytest.approx(2.0 / 3.0 ** 0.8)

    def test_diffusion_style_lift(self):
        sigma = lambda z: np.exp(-z * z)
        d = lift_field(1.0, sigma, alpha=1.0)
        assert d(2.0, 2.0) == pytest.approx(2.0 * np.exp(-1.0))

    def test_solution_style_lift(self):
        p = lift_field(-1.0, lambda z: z, alpha=1.0)
        assert p(2.0, 2.0) == pytest.approx(0.5)

    def test_propagates_domain_error(self):
        f = lift_field(1.0, lambda z: z, alpha=1.0)
        with pytest.raises(ValueError):
            f(1.0, -1.0)

    def test_scale_covariance(self):
        # f(eps^alpha x, eps t) = eps^e f(x, t) for every class exponent
        rng = np.random.default_rng(7)
        profile = lambda z: np.exp(-0.25 * z * z) * (1.0 + z)
        for alpha in (0.5, 1.0, 1.5):
            exps = exponents_for_class(alpha)
            for e in (exps.mu, exps.gamma, exps.delta, exps.rho_exp):
                f = lift_field(e, profile, alpha)
                for _ in range(20):
                    x = rng.uniform(0.1, 5.0)
                    t = rng.uniform(0.2, 4.0)
                    eps = rng.uniform(0.3, 3.0)
                    lhs = f(eps ** alpha * x, eps * t)
                    rhs = eps ** e * f(x, t)
                    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
