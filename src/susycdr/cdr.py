"""Exactly solvable convection-diffusion-reaction systems.

A built system packages similarity profiles for the solution P, the
diffusion coefficient D, the convection coefficient C, and the reaction
term R of

    dP/dt = -d/dx (C P) + d^2/dx^2 (D P) + R.

All systems share the similarity class mu = -alpha with convection
profile 2*sigma'(z) + alpha*z, under which the reduced equation in
z = x/t^alpha collapses to a Schroedinger pair: the solution profile
y(z) and the diffusion profile sigma(z) are bound states of partner
potentials at related energies. Three constructions are provided:

* :func:`build_fpe`     -- zero reaction, y = sigma (a Fokker-Planck system);
* :func:`build_case_a`  -- one potential, two levels n and m; the reaction
  couples them with strength E_m - E_n;
* :func:`build_case_b`  -- two chain members s and s' with one shared
  energy (index constraint n + s = n' + s'); the reaction carries the
  potential difference.

Physical fields, with z = x / t^alpha:

    P = t^(-alpha) * y(z)
    D = t^(2 alpha - 1) * sigma(z)
    C = t^(alpha - 1) * (2 sigma'(z) + alpha z)
    R = t^(-alpha - 1) * rho(z)

Scale invariance of the equation ties these exponents of t to alpha;
:class:`CdrSystem` holds alpha and gives them as ``mu``, ``delta``,
``gamma`` and ``rho_exp``.

Every profile comes from y = A u_y and sigma = B u_sigma, read once per
call (:meth:`CdrSystem.jets` gives both with two derivatives); convection
and reaction are assembled from the profile values the caller holds.
"""

import enum
from dataclasses import dataclass, replace

import numpy as np

from .quantum import Eigenstate, RadialOscillatorFamily

__all__ = [
    "CaseTag",
    "CdrSystem",
    "build_fpe",
    "build_case_a",
    "build_case_b",
    "eval_fields",
    "swap",
]


class CaseTag(enum.Enum):
    FPE = "fpe"
    CASE_A = "case_a"
    CASE_B = "case_b"


@dataclass(frozen=True)
class CdrSystem:
    """An exactly solvable system: profiles, constants, and provenance.

    ``alpha`` (finite) fixes the similarity variable z = x / t^alpha and,
    through the class mu = -alpha and scale invariance, every exponent of
    t: ``mu`` on the solution, ``gamma`` on the convection, ``delta`` on
    the diffusion and ``rho_exp`` on the reaction.
    ``y_state``/``sigma_state`` are the unscaled eigenstates behind the
    solution and diffusion profiles; ``coeff_a``/``coeff_b`` scale them.
    ``delta_e`` is the energy offset of the diffusion state relative to
    the solution state (nonzero only for CASE_A). Instances are immutable;
    evaluation is pure.
    """

    case_tag: CaseTag
    alpha: float
    family: RadialOscillatorFamily
    y_state: Eigenstate
    sigma_state: Eigenstate
    coeff_a: float = 1.0
    coeff_b: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be a finite number, got {self.alpha}")

    @property
    def mu(self) -> float:
        return -self.alpha

    @property
    def gamma(self) -> float:
        return self.alpha - 1.0

    @property
    def delta(self) -> float:
        return 2.0 * self.alpha - 1.0

    @property
    def rho_exp(self) -> float:
        return self.mu - 1.0

    @property
    def delta_e(self) -> float:
        return self.sigma_state.energy - self.y_state.energy

    @property
    def indices(self) -> tuple:
        """((n, s) of the solution state, (n', s') of the diffusion state)."""
        return ((self.y_state.n, self.y_state.s),
                (self.sigma_state.n, self.sigma_state.s))

    # -- z-profiles (closed form, with derivatives) ---------------------

    def jets(self, z):
        """Scaled ((y, y', y''), (sigma, sigma', sigma'')) at z > 0, one jet
        per distinct state (fpe systems share theirs)."""
        y_jet = self.y_state.jet(z)
        sig_jet = y_jet if self.sigma_state is self.y_state else self.sigma_state.jet(z)
        return (tuple(self.coeff_a * d for d in y_jet),
                tuple(self.coeff_b * d for d in sig_jet))

    def convection(self, z, sigma_jet, order: int = 0):
        """Convection profile tau = 2 sigma' + alpha z (``order=0``) or its
        slope tau' = 2 sigma'' + alpha (``order=1``), from the diffusion jet
        (sigma, sigma', ...)."""
        g = sigma_jet[order + 1]
        return 2.0 * g + (self.alpha * np.asarray(z) if order == 0 else self.alpha)

    def reaction(self, z, y, sigma):
        """Reaction profile rho from the solution and diffusion values at z."""
        if self.case_tag is CaseTag.FPE:
            return np.zeros(np.shape(z))
        if self.case_tag is CaseTag.CASE_A:
            return -self.delta_e * sigma * y
        dv = (self.family.potential(self.sigma_state.s, z)
              - self.family.potential(self.y_state.s, z))
        return dv * sigma * y

    def __repr__(self):
        (n, s), (np_, sp) = self.indices
        return (
            f"CdrSystem({self.case_tag.value}, alpha={self.alpha}, "
            f"omega={self.family.omega}, ell={self.family.ell}, "
            f"y=(n={n}, s={s}), sigma=(n'={np_}, s'={sp}), "
            f"A={self.coeff_a}, B={self.coeff_b})"
        )


def build_fpe(family: RadialOscillatorFamily, s: int, n: int,
              alpha: float) -> CdrSystem:
    """Zero-reaction system: solution and diffusion share one eigenstate."""
    state = family.eigenstate(s, n)
    return CdrSystem(
        case_tag=CaseTag.FPE,
        alpha=float(alpha),
        family=family,
        y_state=state,
        sigma_state=state,
    )


def build_case_a(family: RadialOscillatorFamily, alpha: float, n: int,
                 m: int) -> CdrSystem:
    """Two levels of one potential: y = u_n, sigma = u_m, both at s = 0.

    The reaction profile is -(E_m - E_n) * u_m(z) * u_n(z); for m = n it
    vanishes and the system reduces to the zero-reaction case.
    """
    return CdrSystem(
        case_tag=CaseTag.CASE_A,
        alpha=float(alpha),
        family=family,
        y_state=family.eigenstate(0, n),
        sigma_state=family.eigenstate(0, m),
    )


def build_case_b(family: RadialOscillatorFamily, alpha: float, n: int, s: int,
                 n_prime: int, s_prime: int, coeff_a: float = 1.0,
                 coeff_b: float = 1.0) -> CdrSystem:
    """Two chain members at one shared energy: y = A u_n of member s,
    sigma = B u_n' of member s'.

    Equal energies force n + s = n' + s'; the reaction profile is
    A*B*(V_s'(z) - V_s(z)) * u_n'(z) * u_n(z).
    """
    if n + s != n_prime + s_prime:
        raise ValueError(
            f"index constraint violated: n + s must equal n' + s' "
            f"(got {n}+{s} = {n + s} vs {n_prime}+{s_prime} = {n_prime + s_prime})"
        )
    if coeff_a == 0.0 or coeff_b == 0.0:
        raise ValueError("coefficients A and B must be nonzero")
    return CdrSystem(
        case_tag=CaseTag.CASE_B,
        alpha=float(alpha),
        family=family,
        y_state=family.eigenstate(s, n),
        sigma_state=family.eigenstate(s_prime, n_prime),
        coeff_a=float(coeff_a),
        coeff_b=float(coeff_b),
    )


def eval_fields(system: CdrSystem, x, t, fields: str = "PDCR"):
    """Physical fields at (x, t); t > 0, x in the half-line domain.

    ``fields`` picks which of P, D, C and R to return, in that order, as
    an ordered selection such as ``"DC"`` or ``"R"``; only the profiles
    those fields need are evaluated, and each field keeps the bits of the
    full ``"PDCR"`` call.
    """
    if not fields or "".join(f for f in "PDCR" if f in fields) != fields:
        raise ValueError(
            f"fields must be an ordered selection from 'PDCR', got {fields!r}")
    t_arr = np.asarray(t, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    if (x_arr <= 0.0).any():
        raise ValueError("fields of the half-line family require x > 0")
    if (t_arr <= 0.0).any():
        raise ValueError(f"similarity variable requires t > 0, got t={t}")
    z = x_arr / t_arr ** system.alpha
    # R reads y and sigma, except on fpe systems, whose reaction is zero
    r_profiles = "R" in fields and system.case_tag is not CaseTag.FPE
    u_sig = sig = y = None
    if "C" in fields:  # sigma and sigma' from one first-order jet
        u_sig, u_sig_d = system.sigma_state.jet(z, 1)
    elif "D" in fields or r_profiles:
        u_sig = system.sigma_state(z)
    if u_sig is not None:
        sig = system.coeff_b * u_sig
    if "P" in fields or r_profiles:
        # fpe systems share one state: y reuses sigma's unscaled values
        shared = system.y_state is system.sigma_state and u_sig is not None
        y = system.coeff_a * (u_sig if shared else system.y_state(z))
    out = []
    if "P" in fields:
        out.append(t_arr ** system.mu * y)
    if "D" in fields:
        out.append(t_arr ** system.delta * sig)
    if "C" in fields:
        out.append(t_arr ** system.gamma
                   * system.convection(z, (sig, system.coeff_b * u_sig_d)))
    if "R" in fields:
        out.append(t_arr ** system.rho_exp * system.reaction(z, y, sig))
    return tuple(out)


def swap(system: CdrSystem) -> CdrSystem:
    """Exchange the solution and diffusion assignments, (n,s,A) <-> (n',s',B).

    Yields another solvable system of the same class; its reaction field
    is the pointwise negation of the original's.
    """
    if system.case_tag is CaseTag.FPE:
        raise ValueError("swap is defined for CASE_A and CASE_B systems only")
    return replace(
        system,
        y_state=system.sigma_state,
        sigma_state=system.y_state,
        coeff_a=system.coeff_b,
        coeff_b=system.coeff_a,
    )
