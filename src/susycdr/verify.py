"""Independent numerical oracles for the closed-form constructions.

Nothing in this module trusts the algebra that built a system: residuals
re-evaluate the defining identities (Schroedinger equation, reduced
z-equation, the full PDE), orthonormality re-derives the normalization by
quadrature, and the Crank-Nicolson stepper reproduces the dynamics from
initial data alone. A closed-form construction is accepted only when all
of these agree.

``run_suite`` is what ``susycdr verify`` runs: its preconditions, then
the row table ``_VERIFY_ROWS``, which declares each row's oracle, the
record field it bounds and its tolerance keys, whose defaults are
``DEFAULT_TOLERANCES``. ``grid_fields`` is the one pass over a config's
grid that ``eval`` writes its CSV from, and the only finiteness check of
the fields.

Memory: every check and oracle evaluates the fields one block of
``LEVEL_BLOCK`` time levels at a time, so all of this module runs in
O(nx * LEVEL_BLOCK) memory whatever nt is. Bits: the analytic and
finite-difference PDE terms and the residual sum accumulate each term in
place, in an array of the call's own (z, a jet entry, a field) once it is
read for the last time, in the written order, so every term keeps the
bits of its written formula.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels
from .cdr import CaseTag, CdrSystem, eval_fields
from .mathfn import gaussian_tail_cutoff, integrate
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
    "evolve_window",
    "grid_fields",
    "run_suite",
    "tolerance_floor",
    "DEFAULT_TOLERANCES",
    "GRAM_MAX_DEGREE",
]

# Highest n_max of orthonormality_matrix.
GRAM_MAX_DEGREE = 8

# The config field that sets the diffusion state's degree, by case (an fpe
# system's one state has the solution's degree n).
_DIFFUSION_DEGREE_FIELD = {CaseTag.FPE: "n", CaseTag.CASE_A: "m",
                           CaseTag.CASE_B: "n_prime"}

# Time levels per blocked numpy pass of the PDE residual and of the CN
# oracle. Blocks bound the temporaries (and peak RSS).
LEVEL_BLOCK = 16

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
    nt: int = 4

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
        """Plain-types view for JSON/CSV export (see the cli module); an
        (x, t) worst point becomes a list."""
        view = asdict(self)
        if isinstance(self.worst_point, tuple):
            view["worst_point"] = list(self.worst_point)
        return view


def _residual_report(blocks, mode):
    """The report of one residual row, the one reduction of every row.

    ``blocks`` yields (residual, scale terms, point map) per block of
    points, in order. Scale: at each point the largest magnitude of the
    terms (arrays shaped like the residual, or one global value), floored
    at ``_SCALE_FLOOR``; max_rel is the largest |residual| / scale. l2:
    the root mean square over all points, its squares summed once per
    block. Worst point: the point map of the flat index, within its
    block, of the first NaN of |residual| / scale in block order, else of
    the first maximum; a tie keeps the earlier point. A NaN residual or
    scale, or an infinite residual over an infinite scale, makes max_rel
    NaN at its first point, with no numpy warning; a NaN residual also
    makes max_abs and l2 NaN.
    """
    max_abs = sum_sq = 0.0
    size = 0
    max_rel, worst = -math.inf, None
    for residual, terms, point_map in blocks:
        rel = np.abs(residual)
        # np.maximum keeps a NaN; taken before rel is normalized in place
        max_abs = np.maximum(max_abs, np.max(rel))
        sum_sq += float(np.sum(residual * residual))
        size += residual.size
        scale = np.abs(terms[0])
        for term in terms[1:]:
            np.maximum(scale, np.abs(term), out=scale)
        with np.errstate(invalid="ignore"):  # inf / inf is NaN
            rel /= np.maximum(scale, _SCALE_FLOOR)
        idx = int(np.argmax(rel))
        block_rel = float(rel.flat[idx])
        # a later block takes the worst point only with a larger value, or
        # with the first NaN, as np.argmax over all points would
        if block_rel > max_rel or (math.isnan(block_rel)
                                   and not math.isnan(max_rel)):
            max_rel, worst = block_rel, point_map(idx)
    return ResidualReport(max_abs=float(max_abs), l2=math.sqrt(sum_sq / size),
                          max_rel=max_rel, worst_point=worst, mode=mode)


def schrodinger_residual(state: Eigenstate, grid: GridSpec) -> ResidualReport:
    """Residual of -u'' + (V_s - E) u = 0 on the x grid, analytic derivatives.

    ``max_rel`` is normalized by the maximum of |u| over the grid (a NaN
    in u left out), so a unit max_rel means the residual is as large as
    the state itself.
    """
    x = grid.x_points()
    u, _, u_dd = state.jet(x)
    v = state.family.potential(state.s, x)
    r = -u_dd + (v - state.energy) * u
    scale = np.max(np.abs(u), initial=0.0, where=~np.isnan(u))
    return _residual_report([(r, (scale,), lambda i: float(x[i]))], "analytic")


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
    mu = system.mu
    (y, y_d, y_dd), sig_jet = system.jets(z)
    sig, sig_d, sig_dd = sig_jet
    tau = system.convection(z, sig_jet)
    tau_d = system.convection(z, sig_jet, order=1)
    # an inf in y meets inf - inf (or 0 * inf) here: NaN there, which the
    # report gives as max_rel at its first point
    with np.errstate(invalid="ignore"):
        rho = system.reaction(z, y, sig)
        r = (
            sig * y_dd
            + (2.0 * sig_d + alpha * z - tau) * y_d
            - (tau_d + mu - sig_dd) * y
            + rho
        )
        terms = (sig * y_dd, sig_dd * y, mu * y, rho)
    return _residual_report([(r, terms, lambda i: float(z[i]))], "analytic")


def _time_column(ts, exponent):
    """Column of t ** exponent per level, each taken with Python's float power.

    numpy's vectorized power can differ from it in the last bit, so the
    blocked terms keep the bits of a per-level evaluation.
    """
    return np.array([t ** exponent for t in ts.tolist()])[:, None]


def _analytic_terms(system, x, ts):
    """Time derivative, flux divergences, and reaction at the levels ``ts``,
    as (len(ts), len(x)) arrays."""
    z = x[None, :] / _time_column(ts, system.alpha)
    (y, y_d, y_dd), sig_jet = system.jets(z)
    sig, sig_d, sig_dd = sig_jet
    c = system.convection(z, sig_jet)
    c_d = system.convection(z, sig_jet, order=1)
    reac = system.reaction(z, y, sig)
    reac *= _time_column(ts, system.rho_exp)
    t_mu1 = _time_column(ts, system.mu - 1.0)
    # z, the jets, c and c_d are this call's own: each term accumulates in
    # place in arrays read for the last time, in the written order
    dt_p = system.mu * y
    z *= system.alpha
    z *= y_d
    dt_p -= z
    dt_p *= t_mu1
    dx_cp = c_d
    dx_cp *= y
    c *= y_d
    dx_cp += c
    dx_cp *= t_mu1
    dxx_dp = sig_dd
    dxx_dp *= y
    sig_d *= 2.0
    sig_d *= y_d
    dxx_dp += sig_d
    sig *= y_dd
    dxx_dp += sig
    dxx_dp *= t_mu1
    y *= _time_column(ts, system.mu)
    return y, dt_p, dx_cp, dxx_dp, reac


def _fd_terms(system, x, ts, fd_step):
    """Stencil terms at the levels ``ts``, as (len(ts), len(x)) arrays.

    One field evaluation per stencil offset, k*h_t in t and k*h_x in x;
    only the centre needs R. Each stencil is summed as its offsets are
    evaluated, in its written left-to-right order, so one offset's fields
    are alive at a time and every sum keeps the bits of the whole formula.
    """
    t = ts[:, None]
    x = x[None, :]
    h_t = fd_step if fd_step is not None else 1e-4 * np.maximum(1.0, np.abs(t))
    h_x = fd_step if fd_step is not None else 1e-4 * np.maximum(1.0, np.abs(x))

    def p_at(k):
        return eval_fields(system, x, t + k * h_t, "P")[0]

    def fluxes_at(k):
        p, d, c = eval_fields(system, x + k * h_x, t, "PDC")
        c *= p
        d *= p
        return c, d

    # dt_p = (-P(2) + 8 P(1) - 8 P(-1) + P(-2)) / (12 h_t)
    dt_p = -p_at(2)
    dt_p += 8 * p_at(1)
    dt_p -= 8 * p_at(-1)
    dt_p += p_at(-2)
    dt_p /= 12 * h_t
    # dx_cp = (-CP(2) + 8 CP(1) - 8 CP(-1) + CP(-2)) / (12 h_x)
    # dxx_dp = (-DP(2) + 16 DP(1) - 30 DP(0) + 16 DP(-1) - DP(-2)) / (12 h_x^2)
    cp, dp = fluxes_at(2)
    dx_cp, dxx_dp = -cp, -dp
    cp, dp = fluxes_at(1)
    dx_cp += 8 * cp
    dxx_dp += 16 * dp
    p, d, _, reac = eval_fields(system, x, t, "PDCR")
    d *= p
    d *= 30
    dxx_dp -= d
    cp, dp = fluxes_at(-1)
    dx_cp -= 8 * cp
    dxx_dp += 16 * dp
    cp, dp = fluxes_at(-2)
    dx_cp += cp
    dxx_dp -= dp
    dx_cp /= 12 * h_x
    dxx_dp /= 12 * h_x * h_x
    return p, dt_p, dx_cp, dxx_dp, reac


def pde_residual(system: CdrSystem, grid: GridSpec, mode: str = "analytic",
                 fd_step: float | None = None) -> ResidualReport:
    """Residual of dP/dt + d/dx(CP) - d2/dx2(DP) - R over the (x, t) grid.

    ``mode="analytic"`` assembles every term from the closed-form profile
    derivatives; ``mode="finite-difference"`` differentiates the physical
    fields numerically (4th-order stencils, step ``fd_step`` or the
    per-point default; a given step must be a finite number above 0).
    ``max_rel`` normalizes pointwise by
    max(|P|, |d/dx(CP)|, |d2/dx2(DP)|, |R|), floored at a tiny value.

    The terms are evaluated over blocks of ``LEVEL_BLOCK`` time levels,
    with the analytic time factors taken level by level, so every value
    equals that of a per-level evaluation. Each block is reduced as
    soon as its terms are in, and dropped when the next block's arrive,
    so memory is O(nx * LEVEL_BLOCK) whatever nt is. ``max_abs``,
    ``max_rel`` and ``worst_point`` equal those of one reduction over the
    whole grid, in (t, x) order (see :func:`_residual_report` for the
    NaN and tie rules). ``l2`` is summed per block, so on more than one
    block it may differ from a whole-grid sum in the last bit.
    """
    if mode not in ("analytic", "finite-difference"):
        raise ValueError(f"unknown mode {mode!r}")
    if fd_step is not None and not (math.isfinite(fd_step) and fd_step > 0.0):
        raise ValueError(f"fd_step must be a finite number above 0, got {fd_step}")
    x = grid.x_points()
    ts = grid.t_points()

    def blocks():
        for start in range(0, grid.nt, LEVEL_BLOCK):
            levels = ts[start:start + LEVEL_BLOCK]
            # ``terms`` stays bound until the next block's terms replace it.
            # Dropped before, the block's arrays leave the top of the heap
            # free, glibc gives it back to the OS, and the next block faults
            # it in again: at nx = 400, nt = 200 about 770 minor page faults
            # per analytic call where holding them takes about 220.
            if mode == "analytic":
                terms = _analytic_terms(system, x, levels)
            else:
                terms = _fd_terms(system, x, levels, fd_step)
            p, residual, dx_cp, dxx_dp, reac = terms
            residual += dx_cp  # dt_p, read nowhere else
            residual -= dxx_dp
            residual -= reac
            yield residual, (p, dx_cp, dxx_dp, reac), (
                lambda idx, levels=levels: (float(x[idx % x.size]),
                                            float(levels[idx // x.size])))

    return _residual_report(blocks(), mode)


def orthonormality_matrix(family: RadialOscillatorFamily, s: int,
                          n_max: int) -> np.ndarray:
    """Gram matrix G[m, n] = integral of u_m u_n over (0, inf), m, n <= n_max.

    ``n_max`` runs from 0 to ``GRAM_MAX_DEGREE`` (8). Every entry runs its
    own adaptive Gauss-Kronrod 30/61 quadrature; the quadrature is the
    arbiter of the normalization convention. Entries (m, n) and (n, m)
    integrate the same floats, as IEEE products commute, so the matrix is
    bitwise symmetric, yet the lower triangle is integrated again. The
    panels of all entries bisect one interval, so the states are
    evaluated once per distinct node array, all n_max + 1 of them in one
    ``family.eigenstate_values`` call, and their values shared for the
    rest of the call; each entry integrates the same floats as if it had
    evaluated its two states itself. On 61-point panels an n_max = 8
    Gram needs only a handful of node arrays. The half line is cut where
    every state is below 1e-8, past their peak at any ell + s and no lower
    than the outer turning point of u_{n_max}.
    """
    if not 0 <= n_max <= GRAM_MAX_DEGREE:
        raise ValueError(f"n_max must be in 0..{GRAM_MAX_DEGREE}, got {n_max}")
    memo = {}

    def values(xx):
        key = xx.tobytes()
        if key not in memo:
            memo[key] = family.eigenstate_values(s, n_max, xx)
        return memo[key]

    # Widened cut: the polynomial factor in front of the Gaussian
    # pushes the negligible-tail point outward for higher levels. At large
    # ell + s the states sit beyond that cut, so it starts no lower than
    # the outer turning point of u_{n_max}, and steps out until every
    # state is below 1e-8 there (every product below 1e-16). The
    # integrand's tail check reads one more node array, past the cut.
    cut = max(gaussian_tail_cutoff(family.omega, safety=1.35),
              family.eigenstate(s, n_max).turning_points()[1])
    while max(abs(float(v[0])) for v in values(np.array([cut]))) >= 1e-8:
        cut *= 1.05

    gram = np.empty((n_max + 1, n_max + 1))
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            def integrand(xx):
                vals = values(xx)
                return vals[m] * vals[n]
            gram[m, n] = integrate(integrand, 0.0, cut, 1e-10)
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


def positive_diffusion_x_max(system: CdrSystem, x_max: float) -> float:
    """Largest x below ``x_max`` with D(x, t) > 0 for every t >= 1, where
    the time-stepper window (:func:`evolve_window`) starts.

    Time stepping is only well posed where the diffusion coefficient is
    positive; beyond the first zero z* of the diffusion profile the
    equation is backward-parabolic and no initial-value scheme converges.
    For t >= 1 and alpha > 0 that zero lies at x = z* t^alpha >= z*; the
    bound returned keeps a 5 % gap from it. z* is the smallest root of
    the diffusion state's Laguerre polynomial (:meth:`Eigenstate.nodes`).
    ``x_max`` must be a finite number above 0. D = B u_sigma and
    u_sigma > 0 next to x = 0, so a B that is not above 0 leaves no such
    x and raises ValueError naming B.
    """
    if system.alpha <= 0:
        raise ValueError("positive_diffusion_x_max requires alpha > 0")
    if not (math.isfinite(x_max) and x_max > 0.0):
        raise ValueError(f"x_max must be a finite number above 0, got {x_max}")
    if not system.coeff_b > 0.0:
        raise ValueError(f"diffusion D is not positive next to x = 0 "
                         f"(B = {system.coeff_b:g}): time stepping needs B > 0")
    nodes = system.sigma_state.nodes()
    if nodes.size == 0 or nodes[0] >= x_max:
        return x_max
    return 0.95 * float(nodes[0])


@dataclass(frozen=True)
class EvolveReport:
    """Crank-Nicolson cross-check record, the time-stepper row's.

    ``entries`` holds (nx, nt, l2_error) per resolution, coarsest first;
    ``error_ratio`` is the first error over the second, about 4 when the
    stepper converges at second order.
    """

    entries: tuple
    error_ratio: float


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
    # One block of LEVEL_BLOCK steps at a time (see evolve_oracle). A block's
    # arrays are dropped before the next block is evaluated, which then
    # reuses their heap; held across it, glibc trims the top of the heap and
    # the next block faults it back in (about 5000 minor page faults per
    # certify round, against a handful).
    p_num, rhs = p0, None
    for start in range(0, nt, LEVEL_BLOCK):
        stop = min(start + LEVEL_BLOCK, nt)
        # level ``start`` forms A_0 p0 in the first block only; later
        # blocks start from the handed-on right-hand side
        first = start if rhs is None else start + 1
        d_blk, c_blk = eval_fields(
            system, x[None, :], levels[first:stop + 1, None], "DC")
        r_blk = eval_fields(system, x[None, :], halves[start:stop, None], "R")[0]
        p_num, rhs = _kernels.cn_evolve(
            p_num, d_blk, c_blk, r_blk, bc[start:stop + 1, 0],
            bc[start:stop + 1, 1], dt, h, rhs)
        del d_blk, c_blk, r_blk
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


def evolve_oracle(system: CdrSystem, grid: GridSpec) -> EvolveReport:
    """Integrate the PDE numerically from analytic data at ``grid.t_min``
    and compare with the closed form at ``grid.t_max``.

    Crank-Nicolson in conservative form with the closed-form reaction as a
    known source at the half step and analytic Dirichlet values at both
    ends. Runs ``grid.nx`` by ``grid.nt`` and twice both, and reports the
    discrete L2 errors and their ratio. A grid with t_min == t_max has
    nothing to integrate and raises ValueError, as does an error of
    exactly 0 (P vanishes on the window, or is so small that the squared
    errors underflow).

    Each resolution streams: D and C are evaluated at the levels whose
    implicit operators one block of ``LEVEL_BLOCK`` steps builds (t0 too
    in the first block, for A_0 p0; a later block starts from the
    handed-on right-hand side) and R at its half steps,
    ``_kernels.cn_evolve`` steps P over exactly that block, and the block
    is dropped, so memory is O(nx * LEVEL_BLOCK) whatever nt is. Every
    field value equals that of a per-level evaluation, so P and the
    right-hand side carry the bits of one ``cn_evolve`` call over the
    whole window.
    """
    if grid.t_min == grid.t_max:
        raise ValueError(f"need t_min < t_max, got both {grid.t_min}")
    entries = []
    for nx, nt in ((grid.nx, grid.nt), (2 * grid.nx, 2 * grid.nt)):
        x = np.linspace(grid.x_min, grid.x_max, nx)
        _, err = _evolve_single(system, x, grid.t_min, grid.t_max, nt)
        if err == 0.0:
            raise ValueError(
                f"the time-stepper error is 0 at nx={nx}, nt={nt}: field P is "
                f"zero or tiny on the whole window x in [{grid.x_min:g}, "
                f"{grid.x_max:g}] (the squared errors underflow), so the "
                "errors have no ratio")
        entries.append((nx, nt, err))
    return EvolveReport(entries=tuple(entries),
                        error_ratio=entries[0][2] / entries[1][2])


def _check_x_min_jets(system: CdrSystem, grid: GridSpec, t_alpha: float,
                      roles, order: int):
    """The only check that names grid.x_min for a jet: ValueError when the
    ``order`` jet of a state in ``roles`` ("solution", "diffusion") is not
    finite at z = x_min / ``t_alpha``, the smallest z a command evaluates
    (``t_alpha`` is the largest t^alpha it divides x by), where
    q = omega z^2 / 2 is smallest: u' divides by q and u'' by q^2. At
    z = 0 no jet is defined, so every state fails there, unevaluated.
    When ``t_alpha`` is above 1 and the jet is not finite at x_max /
    ``t_alpha`` either, no x_min below x_max mends it, and the error names
    grid.t_max and alpha instead."""
    jet, divides = (("first", "u' divides by q") if order == 1
                    else ("second", "u'' divides by q^2"))

    def finite(state, z):
        with np.errstate(all="ignore"):
            return z > 0.0 and all(np.isfinite(state.jet(z, order)))

    z, z_top = grid.x_min / t_alpha, grid.x_max / t_alpha
    for role in roles:
        state = system.y_state if role == "solution" else system.sigma_state
        if finite(state, z):
            continue
        where = (f"the {jet}-order jet of the {role} state (n={state.n}, "
                 f"s={state.s}) is not finite at z = ")
        if t_alpha > 1.0 and not finite(state, z_top):
            raise ValueError(
                f"config field 'grid.t_max' = {grid.t_max:g} is too large for "
                f"alpha = {system.alpha:g}: {where}{z_top:g} = x_max / "
                f"t_max^alpha, where q = omega z^2 / 2 is "
                f"{0.5 * system.family.omega * z_top * z_top:g} and {divides}, "
                "so no grid.x_min makes it finite")
        raise ValueError(
            f"config field 'grid.x_min' = {grid.x_min:g} is too small: "
            f"{where}{z:g}, the smallest z evaluated, where q = omega z^2 / 2 "
            f"is {0.5 * system.family.omega * z * z:g} and {divides}")


def grid_fields(system: CdrSystem, grid: GridSpec):
    """(levels, (P, D, C, R)) of each block of ``LEVEL_BLOCK`` grid time
    levels, in time order, each field a (len(levels), nx) array from one
    field evaluation. Raises ValueError naming alpha before the first
    block when t^alpha is 0 or inf at an end of the grid's t range (z =
    x / t^alpha would be inf or 0), and naming grid.x_min when the grid's
    smallest z (x_min at the larger end of t^alpha) is 0. Raises
    ValueError after the last block when a field is not finite at some
    grid point, naming the first such field and its count over the whole
    grid; when that field is C, which takes the diffusion state's slope,
    that state's first-order jet is checked at the smallest z first
    (:func:`_check_x_min_jets`). The fields are evaluated with
    numpy's overflow, divide and invalid warnings off, as that count
    reports them."""
    x, ts = grid.x_points(), grid.t_points()
    with np.errstate(over="ignore"):
        powers = ts[[0, -1]] ** system.alpha
    for t, power in zip((grid.t_min, grid.t_max), powers.tolist()):
        if not 0.0 < power < math.inf:
            raise ValueError(
                f"config field 'alpha' = {system.alpha:g} is too large for t "
                f"in [{grid.t_min:g}, {grid.t_max:g}]: t^alpha is {power:g} at "
                f"t = {t:g}, where z = x / t^alpha must be finite and above 0")
    t_alpha = max(powers.tolist())
    if grid.x_min / t_alpha == 0.0:
        _check_x_min_jets(system, grid, t_alpha, ("diffusion",), 1)
    bad = np.zeros(4, dtype=np.int64)
    for start in range(0, grid.nt, LEVEL_BLOCK):
        levels = ts[start:start + LEVEL_BLOCK]
        # not around the yield: numpy's errstate would reach the consumer
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            fields = eval_fields(system, x[None, :], levels[:, None])
        bad += [np.count_nonzero(~np.isfinite(values)) for values in fields]
        yield levels, fields
    for name, count in zip("PDCR", bad.tolist()):
        if not count:
            continue
        if name == "C":
            _check_x_min_jets(system, grid, t_alpha, ("diffusion",), 1)
        raise ValueError(
            f"field {name} is not finite at {count} of {grid.nx * grid.nt} "
            f"grid points for omega={system.family.omega:g}, "
            f"ell={system.family.ell:g}, alpha={system.alpha:g}, "
            f"A={system.coeff_a:g}, B={system.coeff_b:g}, "
            f"grid.x_min={grid.x_min:g}, grid.x_max={grid.x_max:g}, "
            f"grid.t_min={grid.t_min:g}, grid.t_max={grid.t_max:g}: the closed "
            "form overflows there")


def _check_allowed_intervals(system: CdrSystem, grid: GridSpec):
    """ValueError when [grid.x_min, grid.x_max] misses the classically
    allowed interval of the solution or the diffusion state: a grid that
    holds only a state's tail passes every residual row on it."""
    family = system.family
    for role, state in (("solution", system.y_state),
                        ("diffusion", system.sigma_state)):
        x_lo, x_hi = state.turning_points()
        if grid.x_max < x_lo:
            miss = f"'grid.x_max' = {grid.x_max:g} lies below x = {x_lo:.6g}"
        elif grid.x_min > x_hi:
            miss = f"'grid.x_min' = {grid.x_min:g} lies above x = {x_hi:.6g}"
        else:
            continue
        raise ValueError(
            f"config field {miss}: the grid misses the classically allowed "
            f"interval [{x_lo:.6g}, {x_hi:.6g}] of the {role} state (n={state.n}, "
            f"s={state.s}) for omega={family.omega:g}, ell={family.ell:g} and "
            "holds only its tail")


def evolve_window(system: CdrSystem, grid: GridSpec) -> GridSpec:
    """The time-stepper row's grid: t in [1, 2], 200 x 100 points, x from
    grid.x_min to :func:`positive_diffusion_x_max`; ValueError if empty."""
    x_hi = positive_diffusion_x_max(system, x_max=grid.x_max)
    if not grid.x_min < x_hi:
        raise ValueError(
            f"config field 'grid.x_min' = {grid.x_min:g} must lie below "
            f"x = {x_hi:.6g}, 5 % inside the first node of the diffusion "
            "coefficient D at t = 1: time stepping needs D > 0")
    return GridSpec(x_min=grid.x_min, x_max=x_hi, nx=200, t_min=1.0,
                    t_max=2.0, nt=100)


def _gram_deviation(system: CdrSystem) -> float:
    """Largest |G - I| over the Gram matrices of both profiles' chain
    members, each taken up to the highest degree configured on that member
    (at least 4)."""
    n_max = {}
    for state in (system.y_state, system.sigma_state):
        n_max[state.s] = max(n_max.get(state.s, 4), state.n)
    worst = 0.0
    for s_idx, top in n_max.items():
        gram = orthonormality_matrix(system.family, s_idx, n_max=top)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(top + 1)))))
    return worst


# One row per oracle: (report key, label, run(system, grid, window) ->
# record, the record's field the row bounds (None: the record itself),
# tolerance key or (low, high) band of keys). Each run looks its oracle up
# as a module global when called, so a rebound name (as in
# perfbench/spans.py) takes effect.
_VERIFY_ROWS = (
    ("schrodinger_solution", "schrodinger residual (solution)",
     lambda system, grid, window: schrodinger_residual(system.y_state, grid),
     "max_rel", "schrodinger_rel"),
    ("schrodinger_diffusion", "schrodinger residual (diffusion)",
     lambda system, grid, window: schrodinger_residual(system.sigma_state, grid),
     "max_rel", "schrodinger_rel"),
    ("reduced_equation", "reduced-equation residual",
     lambda system, grid, window: ode_residual(system, grid.x_points()),
     "max_abs", "ode_abs"),
    ("pde_analytic", "pde residual (analytic)",
     lambda system, grid, window: pde_residual(system, grid, mode="analytic"),
     "max_rel", "pde_rel"),
    ("orthonormality_deviation", "orthonormality deviation",
     lambda system, grid, window: _gram_deviation(system),
     None, "orthonormality"),
    ("evolve", "time-stepper error ratio (2x refinement)",
     lambda system, grid, window: evolve_oracle(system, window),
     "error_ratio", ("evolve_ratio_lo", "evolve_ratio_hi")),
)

# The default of every tolerance key a row names. Each tolerance must be
# above 0, and a band's high bound above its low one.
DEFAULT_TOLERANCES = {"schrodinger_rel": 1e-8, "ode_abs": 1e-8, "pde_rel": 1e-8,
                      "orthonormality": 1e-8, "evolve_ratio_lo": 3.5,
                      "evolve_ratio_hi": 4.5}
# The low bound's key of each band's high bound.
_BAND_LOW = {band[1]: band[0] for *_, band in _VERIFY_ROWS
             if isinstance(band, tuple)}


def tolerance_floor(tolerances: dict, key: str) -> float:
    """The value ``tolerances[key]`` must lie above: its band's low bound
    for a band's high one, else 0."""
    return tolerances[_BAND_LOW[key]] if key in _BAND_LOW else 0.0


def run_suite(system: CdrSystem, grid: GridSpec, tolerances: dict,
              tol_override: float | None = None) -> list:
    """(report key, label, record, value, threshold, ok) of every row, in
    table order; ``tol_override`` replaces every bound that is not a
    (low, high) pair. Before any oracle it checks in turn: both states'
    degrees are at most ``GRAM_MAX_DEGREE``; then, from one
    :func:`grid_fields` pass, every field is finite on the grid, the grid
    meets both states' allowed intervals, P is not 0 on a whole time level,
    :func:`evolve_window` is not empty, and both states' second-order jets
    are finite at the smallest z a residual row evaluates
    (:func:`_check_x_min_jets`); else ValueError naming the field."""
    for key, state in (("n", system.y_state),
                       (_DIFFUSION_DEGREE_FIELD[system.case_tag],
                        system.sigma_state)):
        if state.n > GRAM_MAX_DEGREE:
            raise ValueError(
                f"config field '{key}' must be at most {GRAM_MAX_DEGREE} for "
                f"verify, got {state.n}: its Gram integrates states up to "
                f"degree {GRAM_MAX_DEGREE}")
    zero_p = np.concatenate([levels[~p.any(axis=1)]
                             for levels, (p, *_) in grid_fields(system, grid)])
    _check_allowed_intervals(system, grid)
    if zero_p.size:
        raise ValueError(
            f"config field 'grid': P is 0 at every x in [{grid.x_min:g}, "
            f"{grid.x_max:g}] at time level t = {zero_p[0]:.6g} (it "
            "underflows): the residual rows would compare zeros there")
    window = evolve_window(system, grid)
    # the Schroedinger and reduced-equation rows take the jets at the x
    # grid, the PDE row at z = x / t^alpha
    t_alpha = max(1.0, *(t ** system.alpha for t in (grid.t_min, grid.t_max)))
    _check_x_min_jets(system, grid, t_alpha, ("solution", "diffusion"), 2)
    rows = []
    for key, label, run_oracle, field, tol_key in _VERIFY_ROWS:
        record = run_oracle(system, grid, window)
        value = record if field is None else getattr(record, field)
        if isinstance(tol_key, tuple):
            threshold = (tolerances[tol_key[0]], tolerances[tol_key[1]])
            ok = threshold[0] <= value <= threshold[1]
        else:
            threshold = tolerances[tol_key] if tol_override is None else tol_override
            ok = value <= threshold
        rows.append((key, label, record, value, threshold, ok))
    return rows
