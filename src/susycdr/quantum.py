"""Shape-invariant potential chains on the half line.

The shipped family is the radial oscillator

    V_0(x; omega, ell) = omega^2 x^2 / 4 + ell(ell+1)/x^2 - omega(ell + 3/2),

whose partner chain shifts ell by one per step and adds the constant
remainder 2*omega. Eigenvalues are 2*n*omega and the eigenfunctions are
Gaussian-weighted generalized Laguerre polynomials in q = omega x^2 / 2.

Member s of the chain reuses the base closed forms with shifted
parameters: V_s(x) = V_0(x; omega, ell+s) + 2*omega*s, the level-n
energy is 2*(n+s)*omega, and the level-n eigenfunction of member s is
the base eigenfunction evaluated at (omega, ell+s).

Conventions worth stating once:

* the centrifugal coefficient is ell(ell+1), the unique choice under
  which the closed-form eigenfunctions satisfy the Schroedinger equation
  with eigenvalue 2*n*omega (the residual check in :mod:`susycdr.verify`
  certifies this);
* the normalization constant carries the exponent -1/2 on the
  binomial-times-Gamma bracket, the unique choice giving unit L2 norm
  on (0, inf) (certified by quadrature);
* ``q`` names the substitution variable omega x^2 / 2 throughout, to keep
  it apart from the solution profile y(z) used in :mod:`susycdr.cdr`.

Eigenstates carry closed-form first and second derivatives (chain rule
plus the Laguerre derivative identity); finite differences appear only
as an independent check in the tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import laguerre_values

__all__ = [
    "OscillatorParams",
    "RadialOscillatorFamily",
    "Eigenstate",
    "base_potential",
    "darboux_partner",
    "darboux_state",
    "DEFAULT_X_MIN",
]

# Default floor for evaluation grids; keeps the centrifugal term finite.
DEFAULT_X_MIN = 1e-3


@dataclass(frozen=True)
class OscillatorParams:
    """Radial-oscillator parameters (omega, ell), both positive."""

    omega: float
    ell: float

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.ell <= 0:
            raise ValueError(f"ell must be positive, got {self.ell}")


def _check_positive_x(x):
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise ValueError("potential evaluation requires x > 0")
    return arr


class RadialOscillatorFamily:
    """The half-line oscillator chain: a_s = (omega, ell + s), remainder 2*omega."""

    def __init__(self, params: OscillatorParams):
        self.params = params

    @property
    def omega(self) -> float:
        return self.params.omega

    @property
    def ell(self) -> float:
        return self.params.ell

    def shifted_params(self, s: int) -> OscillatorParams:
        if s < 0:
            raise ValueError(f"chain index s must be >= 0, got {s}")
        return OscillatorParams(self.params.omega, self.params.ell + s)

    def potential(self, s: int, x):
        # V_s(x) = V_0(x; a_s) + sum of the s remainders (2*omega each)
        return base_potential(self.shifted_params(s), x) + 2.0 * self.omega * s

    def energy(self, s: int, n: int) -> float:
        if s < 0 or n < 0:
            raise ValueError(f"indices must be >= 0, got s={s}, n={n}")
        return 2.0 * (n + s) * self.omega

    def eigenstate(self, s: int, n: int) -> "Eigenstate":
        return Eigenstate(self, s, n)

    def __repr__(self):
        return f"RadialOscillatorFamily(omega={self.omega}, ell={self.ell})"


def base_potential(params: OscillatorParams, x):
    """V_0(x) = omega^2 x^2/4 + ell(ell+1)/x^2 - omega(ell + 3/2), x > 0."""
    arr = _check_positive_x(x)
    w, l = params.omega, params.ell
    out = 0.25 * w * w * arr * arr + l * (l + 1.0) / (arr * arr) - w * (l + 1.5)
    return float(out) if np.ndim(x) == 0 else out


class Eigenstate:
    """Normalized bound state u_n of chain member s, with analytic derivatives.

    u(x) = N * q^p * exp(-q/2) * L_n^a(q) with q = omega x^2/2, where the
    effective angular parameter is L = ell + s, p = (L+1)/2, a = L + 1/2,
    and N = (2 omega)^{1/4} sqrt(n! / Gamma(n + L + 3/2)).

    The instance is immutable after construction and safe to share.
    Calling it evaluates u; ``deriv``/``deriv2`` evaluate u' and u''
    (closed form, valid for x > 0; the value itself extends to x = 0
    where it vanishes).
    """

    def __init__(self, family: RadialOscillatorFamily, s: int, n: int):
        if s < 0 or n < 0:
            raise ValueError(f"indices must be >= 0, got s={s}, n={n}")
        self.family = family
        self.s = s
        self.n = n
        member = family.shifted_params(s)
        self._omega = member.omega
        big_l = member.ell
        self._lag_a = big_l + 0.5
        self._power = 0.5 * (big_l + 1.0)
        self._norm = (2.0 * self._omega) ** 0.25 * math.exp(
            0.5 * (math.lgamma(n + 1.0) - math.lgamma(n + big_l + 1.5))
        )
        self.energy = family.energy(s, n)

    @property
    def norm_constant(self) -> float:
        return self._norm

    def _q(self, x):
        return 0.5 * self._omega * x * x

    def _lag(self, q, shift: int):
        """L_{n-shift}^{a+shift}(q); zero when the degree goes negative."""
        deg = self.n - shift
        if deg < 0:
            return np.zeros_like(q)
        return laguerre_values(deg, self._lag_a + shift, q)

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if np.any(arr < 0.0):
            raise ValueError("eigenstate evaluation requires x >= 0")
        q = self._q(arr.ravel())
        val = self._norm * q ** self._power * np.exp(-0.5 * q) * self._lag(q, 0)
        val = val.reshape(arr.shape)
        return float(val[0]) if np.ndim(x) == 0 else val

    def deriv(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if np.any(arr <= 0.0):
            raise ValueError("eigenstate derivative requires x > 0")
        flat = arr.ravel()
        q = self._q(flat)
        p = self._power
        ln = self._lag(q, 0)
        lp = -self._lag(q, 1)
        wp = np.exp(-0.5 * q) * (
            p * q ** (p - 1.0) * ln - 0.5 * q ** p * ln + q ** p * lp
        )
        out = (self._norm * wp * self._omega * flat).reshape(arr.shape)
        return float(out[0]) if np.ndim(x) == 0 else out

    def deriv2(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if np.any(arr <= 0.0):
            raise ValueError("eigenstate derivative requires x > 0")
        flat = arr.ravel()
        q = self._q(flat)
        p = self._power
        ln = self._lag(q, 0)
        lp = -self._lag(q, 1)
        lpp = self._lag(q, 2)
        expq = np.exp(-0.5 * q)
        wp = expq * (p * q ** (p - 1.0) * ln - 0.5 * q ** p * ln + q ** p * lp)
        wpp = expq * (
            (p * (p - 1.0) * q ** (p - 2.0) - p * q ** (p - 1.0) + 0.25 * q ** p) * ln
            + (2.0 * p * q ** (p - 1.0) - q ** p) * lp
            + q ** p * lpp
        )
        wx = self._omega * flat
        out = (self._norm * (wpp * wx * wx + wp * self._omega)).reshape(arr.shape)
        return float(out[0]) if np.ndim(x) == 0 else out

    def __repr__(self):
        return (
            f"Eigenstate(s={self.s}, n={self.n}, "
            f"omega={self.family.omega}, ell={self.family.ell})"
        )


def darboux_partner(potential, ground_state, x):
    """Partner potential V(x) - 2 (ln phi(x))'' built on a nodeless state.

    ``potential`` is a callable V(x); ``ground_state`` must be positive at
    every evaluation point (it seeds the transformation) and supply
    analytic ``deriv``/``deriv2`` like :class:`Eigenstate`.
    """
    phi_val = np.asarray(ground_state(x), dtype=np.float64)
    if np.any(phi_val <= 0.0):
        raise ValueError("darboux_partner requires the seed state to be positive")
    ratio1 = ground_state.deriv(x) / phi_val
    log_d2 = ground_state.deriv2(x) / phi_val - ratio1 * ratio1
    out = potential(x) - 2.0 * log_d2
    return float(out) if np.ndim(x) == 0 else out


def darboux_state(seed_state, source_state, x):
    """Transformed state phi'(x) - (ln phi_k(x))' * phi(x).

    Annihilates its seed; applied to another state of the same potential
    it lands in the partner problem at unchanged energy. Both states
    supply an analytic ``deriv``.
    """
    seed_val = np.asarray(seed_state(x), dtype=np.float64)
    if np.any(seed_val == 0.0):
        raise ValueError("darboux_state is undefined at zeros of the seed state")
    out = (source_state.deriv(x)
           - (seed_state.deriv(x) / seed_val) * np.asarray(source_state(x)))
    return float(out) if np.ndim(x) == 0 else out
