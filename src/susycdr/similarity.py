"""Similarity scaling: exponent linkage and lifting profiles to (x, t).

A field with scaling exponent ``e`` and profile ``g`` takes the form
``f(x, t) = t^e * g(x / t^alpha)``; scale symmetry ties the exponents of
the solution, convection, diffusion, and reaction fields together, so
only ``alpha`` and the solution exponent ``mu`` are free. The solvable
class built in :mod:`susycdr.cdr` additionally fixes ``mu = -alpha``.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScalingExponents",
    "exponents_for_class",
    "to_similarity",
    "lift_field",
]


@dataclass(frozen=True)
class ScalingExponents:
    """Exponents of t on each similarity-form field.

    ``mu`` multiplies the solution profile, ``gamma`` the convection,
    ``delta`` the diffusion, and ``rho_exp`` the reaction; the linkage
    gamma = alpha - 1, delta = 2 alpha - 1, rho_exp = mu - 1 is what
    scale invariance of the equation demands.
    """

    alpha: float
    mu: float

    @property
    def gamma(self) -> float:
        return self.alpha - 1.0

    @property
    def delta(self) -> float:
        return 2.0 * self.alpha - 1.0

    @property
    def rho_exp(self) -> float:
        return self.mu - 1.0


def exponents_for_class(alpha: float) -> ScalingExponents:
    """Exponent set of the solvable class, where mu = -alpha."""
    return ScalingExponents(alpha=float(alpha), mu=-float(alpha))


def to_similarity(x, t, alpha: float):
    """Similarity variable z = x / t^alpha; requires t > 0."""
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr <= 0.0):
        raise ValueError(f"similarity variable requires t > 0, got t={t}")
    return x / t_arr ** alpha


def lift_field(exponent: float, profile, alpha: float):
    """Turn a z-profile into the (x, t) field t^exponent * profile(x/t^alpha)."""

    def field(x, t):
        z = to_similarity(x, t, alpha)
        return np.asarray(t, dtype=np.float64) ** exponent * profile(z)

    return field
