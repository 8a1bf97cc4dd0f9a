"""Exponent linkage and similarity-variable tests."""

import numpy as np
import pytest

from susycdr.similarity import (ScalingExponents, exponents_for_class,
                                to_similarity)


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

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            exponents_for_class(alpha)

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

