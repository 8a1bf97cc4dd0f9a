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
plus the Laguerre derivative identity), taken with the value as one jet
of a chosen order; finite differences appear only as an independent
check in the tests. Values and jets share one log-space prefactor,
exp(ln N + (p ln q - q/2)): the Gaussian decay and the power of q are
combined before exponentiating, so neither overflows nor underflows on
its own at large ell + s. Every value returned here is shaped like the
input x, a scalar included (it gives an ``np.float64``); the Darboux
maps read each state's values and derivatives from one jet.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import laguerre_table, laguerre_values

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
        for name, value in (("omega", self.omega), ("ell", self.ell)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a finite number above 0, got {value}")


def _laguerre_form(member: OscillatorParams, n: int):
    """(a, p, ln N) of u_n = N q^p exp(-q/2) L_n^a(q) for member parameters
    (omega, L): a = L + 1/2, p = (L + 1)/2 and
    N = (2 omega)^{1/4} sqrt(n! / Gamma(n + L + 3/2)), whose logarithm is
    taken from lgamma (N itself underflows at large L)."""
    big_l = member.ell
    log_norm = 0.25 * math.log(2.0 * member.omega) + 0.5 * (
        math.lgamma(n + 1.0) - math.lgamma(n + big_l + 1.5))
    return big_l + 0.5, 0.5 * (big_l + 1.0), log_norm


def _half_line_q(omega, x, derivative=False):
    """(x, q): ``x`` as a float array and q = omega x^2 / 2 there, both
    shaped like the input. Values need x >= 0, derivatives x > 0."""
    x = np.asarray(x, dtype=np.float64)
    if derivative:
        if (x <= 0.0).any():
            raise ValueError("eigenstate derivative requires x > 0")
    elif (x < 0.0).any():
        raise ValueError("eigenstate evaluation requires x >= 0")
    return x, 0.5 * omega * x * x


def _log_envelope(q, power):
    """p ln q - q/2, the logarithm of q^p exp(-q/2) (-inf at q = 0)."""
    with np.errstate(divide="ignore"):
        return power * np.log(q) - 0.5 * q


def _values(q, power, log_norms, lags):
    """u_n = exp(ln N_n + (p ln q - q/2)) L_n^a(q) for each pair of
    ``log_norms`` and ``lags`` (the L_n^a(q)), from one logarithm of q."""
    envelope = _log_envelope(q, power)
    return [np.exp(log_norm + envelope) * lag
            for log_norm, lag in zip(log_norms, lags)]


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

    def eigenstate_values(self, s: int, n_max: int, x) -> list:
        """[u_0(x), ..., u_{n_max}(x)] of chain member s, each shaped like
        ``x``; requires x >= 0.

        Equal, bit for bit, to ``[self.eigenstate(s, n)(x) for n in
        range(n_max + 1)]``, but takes q and p ln q - q/2 once and every
        Laguerre degree from one recurrence.
        """
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        member = self.shifted_params(s)
        forms = [_laguerre_form(member, n) for n in range(n_max + 1)]
        lag_a, power, _ = forms[0]
        _, q = _half_line_q(member.omega, x)
        return _values(q, power, [log_norm for _, _, log_norm in forms],
                       laguerre_table(n_max, lag_a, q))

    def __repr__(self):
        return f"RadialOscillatorFamily(omega={self.omega}, ell={self.ell})"


def base_potential(params: OscillatorParams, x):
    """V_0(x) = omega^2 x^2/4 + ell(ell+1)/x^2 - omega(ell + 3/2), x > 0."""
    x = np.asarray(x, dtype=np.float64)
    if (x <= 0.0).any():
        raise ValueError("potential evaluation requires x > 0")
    w, l = params.omega, params.ell
    return 0.25 * w * w * x * x + l * (l + 1.0) / (x * x) - w * (l + 1.5)


class Eigenstate:
    """Normalized bound state u_n of chain member s, with analytic derivatives.

    u(x) = N * q^p * exp(-q/2) * L_n^a(q) with q = omega x^2/2, where the
    effective angular parameter is L = ell + s, p = (L+1)/2, a = L + 1/2,
    and N = (2 omega)^{1/4} sqrt(n! / Gamma(n + L + 3/2)). The prefactor
    is formed in log space, exp(ln N + (p ln q - q/2)), so it stays
    finite wherever u does, at large L included; u overflows only where
    the Laguerre factor does.

    The instance is immutable after construction and safe to share.
    Calling it evaluates u for x >= 0 (it vanishes at x = 0), as the
    one-state case of the expression that
    :meth:`RadialOscillatorFamily.eigenstate_values` applies to a whole
    member. :meth:`jet` gives (u, u') or (u, u', u'') in closed form for
    x > 0 from one evaluation, with u equal to the call's value bit for
    bit; ``deriv``/``deriv2`` are its u' and u''.
    :meth:`nodes` gives the n zeros of u from the roots of L_n^a, and
    :meth:`turning_points` the ends of the interval where V_s <= E.
    """

    def __init__(self, family: RadialOscillatorFamily, s: int, n: int):
        if s < 0 or n < 0:
            raise ValueError(f"indices must be >= 0, got s={s}, n={n}")
        self.family = family
        self.s = s
        self.n = n
        member = family.shifted_params(s)
        self._omega = member.omega
        self._lag_a, self._power, self._log_norm = _laguerre_form(member, n)
        self.energy = family.energy(s, n)

    def __call__(self, x):
        _, q = _half_line_q(self._omega, x)
        lag = laguerre_values(self.n, self._lag_a, q)
        return _values(q, self._power, [self._log_norm], [lag])[0]

    def jet(self, x, order: int = 2):
        """(u, u') for ``order=1`` or (u, u', u'') for ``order=2`` at x > 0,
        each shaped like ``x``.

        One prefactor base = exp(ln N + (p ln q - q/2)) serves every
        entry, and the q-derivatives need only 1/q:
        du/dq = base ((p/q - 1/2) L + L') and
        d2u/dq2 = base (((p(p-1)/q - p)/q + 1/4) L + (2p/q - 1) L' + L'').
        L = L_n^a, L' = -L_{n-1}^{a+1} and L'' = L_{n-2}^{a+2} (zero past
        degree n) come from one recurrence each; ``order=1`` skips L''.
        """
        if order not in (1, 2):
            raise ValueError(f"jet order must be 1 or 2, got {order}")
        x, q = _half_line_q(self._omega, x, derivative=True)
        p = self._power
        lags = [laguerre_table(self.n - k, self._lag_a + k, q)[-1]
                if k <= self.n else 0.0 for k in range(order + 1)]
        lag, lag_d = lags[0], -lags[1]
        base = np.exp(self._log_norm + _log_envelope(q, p))
        inv_q = 1.0 / q
        du_dq = base * ((p * inv_q - 0.5) * lag + lag_d)
        dq_dx = self._omega * x
        jet = [base * lag, du_dq * dq_dx]
        if order == 2:
            d2u_dq2 = base * ((((p * (p - 1.0)) * inv_q - p) * inv_q + 0.25) * lag
                              + (2.0 * p * inv_q - 1.0) * lag_d + lags[2])
            jet.append(d2u_dq2 * dq_dx * dq_dx + du_dq * self._omega)
        return tuple(jet)

    def nodes(self) -> np.ndarray:
        """The n zeros of u on x > 0, ascending: x = sqrt(2 q / omega) at
        the zeros q of L_n^a, the eigenvalues of its n x n Jacobi matrix
        (diagonal 2k + a + 1, off-diagonal sqrt(k (k + a)); Golub and
        Welsch 1969). Empty for n = 0."""
        k = np.arange(self.n)
        off = np.sqrt(k[1:] * (k[1:] + self._lag_a))
        jacobi = (np.diag(2.0 * k + self._lag_a + 1.0)
                  + np.diag(off, 1) + np.diag(off, -1))
        return np.sqrt(2.0 * np.linalg.eigvalsh(jacobi) / self._omega)

    def turning_points(self) -> tuple:
        """(x_lo, x_hi), the ends of the allowed interval V_s(x) <= E:
        q = b -+ sqrt(b^2 - L(L+1)) in q = omega x^2 / 2, b = L + 3/2 + 2n.
        b^2 - L(L+1) is formed as (2 + 4n) L + (3/2 + 2n)^2 and q- as
        L(L+1) / q+, so L, maybe near the float limit, is never squared."""
        big_l, n = self.family.ell + self.s, self.n
        q_hi = big_l + 1.5 + 2 * n + math.sqrt((2 + 4 * n) * big_l
                                               + (1.5 + 2 * n) ** 2)
        q_lo = big_l / q_hi * (big_l + 1.0)
        return (math.sqrt(2.0 * q_lo / self._omega),
                math.sqrt(2.0 * q_hi / self._omega))

    def deriv(self, x):
        return self.jet(x, 1)[1]

    def deriv2(self, x):
        return self.jet(x)[2]

    def __repr__(self):
        return (
            f"Eigenstate(s={self.s}, n={self.n}, "
            f"omega={self.family.omega}, ell={self.family.ell})"
        )


def darboux_partner(potential, ground_state, x):
    """Partner potential V(x) - 2 (ln phi(x))'' built on a nodeless state.

    ``potential`` is a callable V(x); ``ground_state`` must be positive at
    every evaluation point (it seeds the transformation) and supply a
    ``jet(x, order)`` like :class:`Eigenstate`, read once.
    """
    phi, phi_d, phi_dd = ground_state.jet(x)
    if np.any(phi <= 0.0):
        raise ValueError("darboux_partner requires the seed state to be positive")
    ratio1 = phi_d / phi
    return potential(x) - 2.0 * (phi_dd / phi - ratio1 * ratio1)


def darboux_state(seed_state, source_state, x):
    """Transformed state phi'(x) - (ln phi_k(x))' * phi(x).

    Annihilates its seed; applied to another state of the same potential
    it lands in the partner problem at unchanged energy. Each state
    supplies a ``jet(x, order)``, read once at order 1.
    """
    seed, seed_d = seed_state.jet(x, 1)
    if np.any(seed == 0.0):
        raise ValueError("darboux_state is undefined at zeros of the seed state")
    source, source_d = source_state.jet(x, 1)
    return source_d - (seed_d / seed) * source
