"""Independent numerical oracles for the closed-form constructions.

Nothing in this module trusts the algebra that built a system: residuals
re-evaluate the defining identities (Schroedinger equation, reduced
z-equation, the full PDE), orthonormality re-derives the normalization by
quadrature, and the Crank-Nicolson stepper reproduces the dynamics from
initial data alone. A closed-form construction is accepted only when all
of these agree.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cdr import CdrSystem, eval_fields
from .mathfn import QuadratureSpec, gaussian_tail_cutoff, integrate
from .quantum import Eigenstate, RadialOscillatorFamily

__all__ = [
    "GridSpec",
    "ResidualReport",
    "EvolveReport",
    "schrodinger_residual",
    "ode_residual",
    "pde_residual",
    "orthonormality_matrix",
    "node_count",
    "positive_diffusion_x_max",
    "evolve_oracle",
]

# Floor added to local scales before dividing, so relative residuals stay
# finite where every field vanishes (large x).
_SCALE_FLOOR = 1e-30


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid; excludes x = 0 (centrifugal singularity) and t <= 0."""

    x_min: float = 0.2
    x_max: float = 8.0
    nx: int = 400
    t_min: float = 0.5
    t_max: float = 2.5
    nt: int = 200

    def __post_init__(self):
        if not 0.0 < self.x_min < self.x_max:
            raise ValueError(
                f"need 0 < x_min < x_max, got x_min={self.x_min}, x_max={self.x_max}"
            )
        if not 0.0 < self.t_min <= self.t_max:
            raise ValueError(
                f"need 0 < t_min <= t_max, got t_min={self.t_min}, t_max={self.t_max}"
            )
        if self.nx < 8:
            raise ValueError(f"nx must be >= 8, got {self.nx}")
        if self.nt < 2:
            raise ValueError(f"nt must be >= 2, got {self.nt}")
        if self.nx * self.nt > 10 ** 6:
            raise ValueError(f"nx * nt must be <= 10**6, got {self.nx} * {self.nt}")

    def x_points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def t_points(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.nt)


@dataclass(frozen=True)
class ResidualReport:
    """Residual diagnostics over a grid.

    ``max_rel`` normalizes by the scale each operation defines (documented
    there); ``worst_point`` is where that normalized residual peaks --
    an x or z value for one-dimensional sweeps, an (x, t) pair for the PDE.
    """

    max_abs: float
    l2: float
    max_rel: float
    worst_point: object
    mode: str

    def as_dict(self) -> dict:
        """Plain-types view for JSON/CSV export (see the cli module)."""
        worst = self.worst_point
        if isinstance(worst, tuple):
            worst = [float(v) for v in worst]
        else:
            worst = float(worst)
        return {
            "max_abs": self.max_abs,
            "l2": self.l2,
            "max_rel": self.max_rel,
            "worst_point": worst,
            "mode": self.mode,
        }


def _report(residual, scale, x, mode, t=None):
    """Report over the points ``x``, or over the (t.size, x.size) grid of
    (x, t) pairs when ``t`` is given."""
    residual = residual.ravel()
    rel = np.abs(residual) / np.maximum(scale.ravel(), _SCALE_FLOOR)
    idx = int(np.argmax(rel))
    if t is None:
        worst = x[idx]
    else:
        j, i = divmod(idx, x.size)
        worst = (float(x[i]), float(t[j]))
    return ResidualReport(
        max_abs=float(np.max(np.abs(residual))),
        l2=float(np.sqrt(np.mean(residual ** 2))),
        max_rel=float(rel[idx]),
        worst_point=worst,
        mode=mode,
    )


def schrodinger_residual(state: Eigenstate, grid: GridSpec) -> ResidualReport:
    """Residual of -u'' + (V_s - E) u = 0 on the x grid, analytic derivatives.

    ``max_rel`` is normalized by the maximum of |u| over the grid, so a
    unit max_rel means the residual is as large as the state itself.
    """
    x = grid.x_points()
    u = state(x)
    v = state.family.potential(state.s, x)
    r = -state.deriv2(x) + (v - state.energy) * u
    scale = np.full_like(r, max(float(np.max(np.abs(u))), _SCALE_FLOOR))
    return _report(r, scale, x, "analytic")


def ode_residual(system: CdrSystem, z_grid) -> ResidualReport:
    """Residual of the reduced z-equation,

        sigma y'' + (2 sigma' + alpha z - tau) y' - (tau' + mu - sigma'') y + rho,

    with tau the system's convection profile. The full expression is
    evaluated as written; for the shipped class the y' coefficient cancels
    identically. ``max_rel`` normalizes by the local magnitude of the
    participating terms.
    """
    z = np.asarray(z_grid, dtype=np.float64)
    alpha = system.alpha
    mu = system.exponents.mu
    (y, y_d, y_dd), sig_jet = system.jets(z)
    sig, sig_d, sig_dd = sig_jet
    tau = system.convection(z, sig_jet)
    tau_d = system.convection(z, sig_jet, order=1)
    rho = system.reaction(z, y, sig)
    r = (
        sig * y_dd
        + (2.0 * sig_d + alpha * z - tau) * y_d
        - (tau_d + mu - sig_dd) * y
        + rho
    )
    scale = np.maximum.reduce([
        np.abs(sig * y_dd), np.abs(sig_dd * y), np.abs(mu * y), np.abs(rho),
    ])
    return _report(r, scale, z, "analytic")


def _time_column(ts, exponent):
    """Column of t ** exponent per level, each taken with Python's float power.

    numpy's vectorized power can differ from it in the last bit, so the
    blocked terms keep the bits of a per-level evaluation.
    """
    return np.array([t ** exponent for t in ts.tolist()])[:, None]


def _analytic_terms(system, x, ts):
    """Time derivative, flux divergences, and reaction at the levels ``ts``,
    as (len(ts), len(x)) arrays."""
    e = system.exponents
    z = x[None, :] / _time_column(ts, e.alpha)
    (y, y_d, y_dd), sig_jet = system.jets(z)
    sig, sig_d, sig_dd = sig_jet
    c = system.convection(z, sig_jet)
    c_d = system.convection(z, sig_jet, order=1)
    t_mu1 = _time_column(ts, e.mu - 1.0)
    dt_p = t_mu1 * (e.mu * y - e.alpha * z * y_d)
    dx_cp = t_mu1 * (c_d * y + c * y_d)
    dxx_dp = t_mu1 * (sig_dd * y + 2.0 * sig_d * y_d + sig * y_dd)
    reac = _time_column(ts, e.rho_exp) * system.reaction(z, y, sig)
    p = _time_column(ts, e.mu) * y
    return p, dt_p, dx_cp, dxx_dp, reac


def _fd_terms(system, x, ts, fd_step):
    """Stencil terms at the levels ``ts``, as (len(ts), len(x)) arrays."""
    t = ts[:, None]
    x = x[None, :]
    h_t = fd_step if fd_step is not None else 1e-4 * np.maximum(1.0, np.abs(t))
    h_x = fd_step if fd_step is not None else 1e-4 * np.maximum(1.0, np.abs(x))

    # One field evaluation per stencil offset: k*h_t in t, k*h_x in x; only
    # the centre needs R.
    p_t = {k: eval_fields(system, x, t + k * h_t, "P")[0] for k in (-2, -1, 1, 2)}
    at_x = {k: eval_fields(system, x + k * h_x, t, "PDCR" if k == 0 else "PDC")
            for k in (-2, -1, 0, 1, 2)}
    cp = {k: f[2] * f[0] for k, f in at_x.items()}
    dp = {k: f[1] * f[0] for k, f in at_x.items()}
    dt_p = (-p_t[2] + 8 * p_t[1] - 8 * p_t[-1] + p_t[-2]) / (12 * h_t)
    dx_cp = (-cp[2] + 8 * cp[1] - 8 * cp[-1] + cp[-2]) / (12 * h_x)
    dxx_dp = (
        -dp[2] + 16 * dp[1] - 30 * dp[0] + 16 * dp[-1] - dp[-2]
    ) / (12 * h_x * h_x)
    p, _, _, reac = at_x[0]
    return p, dt_p, dx_cp, dxx_dp, reac


def pde_residual(system: CdrSystem, grid: GridSpec, mode: str = "analytic",
                 fd_step: float | None = None) -> ResidualReport:
    """Residual of dP/dt + d/dx(CP) - d2/dx2(DP) - R over the (x, t) grid.

    ``mode="analytic"`` assembles every term from the closed-form profile
    derivatives; ``mode="finite-difference"`` differentiates the physical
    fields numerically (4th-order stencils, step ``fd_step`` or the
    per-point default; a given step must be a finite number above 0).
    ``max_rel`` normalizes pointwise by
    max(|P|, |d/dx(CP)|, |d2/dx2(DP)|, |R|) plus a tiny floor.

    The terms are evaluated over blocks of ``_kernels.LEVEL_BLOCK`` time
    levels, with the analytic time factors taken level by level, so every
    value equals that of a per-level evaluation.
    """
    if mode not in ("analytic", "finite-difference"):
        raise ValueError(f"unknown mode {mode!r}")
    if fd_step is not None and not (math.isfinite(fd_step) and fd_step > 0.0):
        raise ValueError(f"fd_step must be a finite number above 0, got {fd_step}")
    x = grid.x_points()
    ts = grid.t_points()
    residuals = np.empty((grid.nt, grid.nx))
    scales = np.empty((grid.nt, grid.nx))
    # Blocked: one broadcast over all levels holds about 20 (nt, nx) temporaries.
    for start in range(0, grid.nt, _kernels.LEVEL_BLOCK):
        block = slice(start, start + _kernels.LEVEL_BLOCK)
        if mode == "analytic":
            p, dt_p, dx_cp, dxx_dp, reac = _analytic_terms(system, x, ts[block])
        else:
            p, dt_p, dx_cp, dxx_dp, reac = _fd_terms(system, x, ts[block], fd_step)
        residuals[block] = dt_p + dx_cp - dxx_dp - reac
        scales[block] = np.maximum.reduce(
            [np.abs(p), np.abs(dx_cp), np.abs(dxx_dp), np.abs(reac)]
        )
    return _report(residuals, scales, x, mode, t=ts)


def orthonormality_matrix(family: RadialOscillatorFamily, s: int,
                          n_max: int) -> np.ndarray:
    """Gram matrix G[m, n] = integral of u_m u_n over (0, inf), m, n <= n_max.

    ``n_max`` runs from 0 to 8. Every entry runs its own adaptive
    quadrature (no symmetry shortcut); the quadrature is the arbiter of
    the normalization convention. The panels of all entries bisect one
    interval, so the states are evaluated once per distinct node array,
    all n_max + 1 of them in one ``family.eigenstate_values`` call, and
    their values shared for the rest of the call; each entry integrates
    the same floats as if it had evaluated its two states itself.
    """
    if not 0 <= n_max <= 8:
        raise ValueError(f"n_max must be in 0..8, got {n_max}")
    # Widened cut: the polynomial factor in front of the Gaussian
    # pushes the negligible-tail point outward for higher levels.
    spec = QuadratureSpec(
        abs_tol=1e-10,
        rel_tol=1e-10,
        truncation_x_max=gaussian_tail_cutoff(family.omega, safety=1.35),
    )
    memo = {}

    def values(xx):
        key = xx.tobytes()
        if key not in memo:
            memo[key] = family.eigenstate_values(s, n_max, xx)
        return memo[key]

    gram = np.empty((n_max + 1, n_max + 1))
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            def integrand(xx):
                vals = values(xx)
                return vals[m] * vals[n]
            gram[m, n] = integrate(integrand, 0.0, spec)
    return gram


def node_count(state, interval, samples: int = 4096) -> int:
    """Number of interior zeros of ``state`` on ``interval`` = (lo, hi).

    Counts the sign changes between consecutive non-zero samples of a
    dense grid: a sample that underflows to zero is no node, and one on a
    true root still counts once, as the signs on either side differ.
    Positive rescaling of the state cannot change the answer.
    """
    lo, hi = interval
    if not 0.0 < lo < hi:
        raise ValueError(f"interval must satisfy 0 < lo < hi, got {interval}")
    vals = np.asarray(state(np.linspace(lo, hi, samples)), dtype=np.float64)
    vals = vals[vals != 0.0]
    return int(np.count_nonzero(vals[:-1] * vals[1:] < 0.0))


def positive_diffusion_x_max(system: CdrSystem, t_min: float,
                             x_max: float) -> float:
    """Largest x below ``x_max`` with D(x, t) > 0 for every t >= t_min.

    Time stepping is only well posed where the diffusion coefficient is
    positive; a diffusion profile with nodes turns the equation
    backward-parabolic beyond its first zero, and no initial-value scheme
    converges there. The first zero z* of the diffusion profile bounds
    the usable region by x < z* * t_min^alpha (for alpha > 0); the bound
    returned keeps a 5 % gap from the degenerate boundary. z* is bracketed
    on 4096 samples, then bisected. ``t_min`` and ``x_max`` must be finite
    numbers above 0. Raises ValueError naming B when D is not positive
    next to x = 0 (at its first non-zero sample), where no such x exists.
    """
    alpha = system.alpha
    if alpha <= 0:
        raise ValueError("positive_diffusion_x_max requires alpha > 0")
    for name, value in (("t_min", t_min), ("x_max", x_max)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be a finite number above 0, got {value}")
    z_hi = x_max / t_min ** alpha
    zs = np.linspace(z_hi / 4096, z_hi, 4096)
    sig = np.asarray(system.diffusion(zs))
    nonzero = sig[sig != 0.0]
    if nonzero.size and not nonzero[0] > 0.0:
        raise ValueError(f"diffusion D is not positive next to x = 0 "
                         f"(B = {system.coeff_b:g}): time stepping needs B > 0")
    sign_change = np.nonzero(sig[:-1] * sig[1:] < 0.0)[0]
    if sign_change.size == 0:
        return x_max
    i = int(sign_change[0])
    z_lo, z_up = zs[i], zs[i + 1]
    f_lo = sig[i]
    for _ in range(60):
        mid = 0.5 * (z_lo + z_up)
        f_mid = float(system.diffusion(mid))
        if f_mid == 0.0:
            z_lo = mid
            break
        if f_lo * f_mid < 0.0:
            z_up = mid
        else:
            z_lo, f_lo = mid, f_mid
    return min(x_max, 0.95 * z_lo * t_min ** alpha)


@dataclass(frozen=True)
class EvolveReport:
    """Crank-Nicolson cross-check results.

    ``entries`` holds (nx, nt, l2_error) per resolution, coarsest first;
    ``ratios[k]`` is entries[k]'s error over entries[k + 1]'s, about 4
    when the stepper converges at second order. ``field`` is the numeric
    solution at ``grid.t_max`` on the coarsest grid.
    """

    field: np.ndarray
    entries: tuple
    ratios: tuple


def _evolve_single(system, x, t0, t1, nt):
    nx = x.shape[0]
    h = x[1] - x[0]
    dt = (t1 - t0) / nt
    levels = t0 + dt * np.arange(nt + 1)
    halves = t0 + dt * (np.arange(nt) + 0.5)

    # Only what the stepper reads: D and C at the levels, R at the half
    # steps, P on the t0 row and the two boundary columns.
    p0 = eval_fields(system, x[None, :], levels[:1, None], "P")[0][0]
    bc = eval_fields(system, x[None, [0, -1]], levels[:, None], "P")[0]
    d_levels = np.empty((nt + 1, nx))
    c_levels = np.empty((nt + 1, nx))
    r_half = np.empty((nt, nx))
    # Blocked: one broadcast over all levels raised certify's peak RSS by a quarter.
    for start in range(0, nt + 1, _kernels.LEVEL_BLOCK):
        block = slice(start, start + _kernels.LEVEL_BLOCK)
        d_levels[block], c_levels[block] = eval_fields(
            system, x[None, :], levels[block, None], "DC")
        if start < nt:  # the last block may hold level nt alone
            r_half[block] = eval_fields(
                system, x[None, :], halves[block, None], "R")[0]

    p_num = _kernels.cn_evolve(
        p0, d_levels, c_levels, r_half, bc[:, 0], bc[:, 1], dt, h
    )
    p_exact = eval_fields(system, x, t1, "P")[0]
    blowup = 1e6 * max(float(np.max(np.abs(p0))), float(np.max(np.abs(p_exact))))
    if not np.all(np.isfinite(p_num)) or float(np.max(np.abs(p_num))) > blowup:
        raise RuntimeError(
            f"time stepper diverged (nx={nx}, nt={nt}); the problem is "
            "ill posed wherever the diffusion coefficient is negative -- "
            "restrict the domain (see positive_diffusion_x_max)"
        )
    err = float(np.sqrt(h * np.sum((p_num - p_exact) ** 2)))
    return p_num, err


def evolve_oracle(system: CdrSystem, grid: GridSpec,
                  refinements: int = 2) -> EvolveReport:
    """Integrate the PDE numerically from analytic data at ``grid.t_min``
    and compare with the closed form at ``grid.t_max``.

    Crank-Nicolson in conservative form with the closed-form reaction as a
    known source at the half step and analytic Dirichlet values at both
    ends. Runs ``refinements`` resolutions from ``grid.nx`` by ``grid.nt``,
    doubling both each time, and reports the discrete L2 errors and their
    ratios. A grid with t_min == t_max has nothing to integrate and raises
    ValueError.
    """
    if grid.t_min == grid.t_max:
        raise ValueError(f"need t_min < t_max, got both {grid.t_min}")
    fields, entries = [], []
    for level in range(max(1, refinements)):
        nx = grid.nx * 2 ** level
        nt = grid.nt * 2 ** level
        x = np.linspace(grid.x_min, grid.x_max, nx)
        p_num, err = _evolve_single(system, x, grid.t_min, grid.t_max, nt)
        fields.append(p_num)
        entries.append((nx, nt, err))
    ratios = tuple(entries[k][2] / entries[k + 1][2]
                   for k in range(len(entries) - 1))
    return EvolveReport(field=fields[0], entries=tuple(entries), ratios=ratios)
