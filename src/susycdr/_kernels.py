"""Hot numeric kernels: plain numpy, one implementation each."""

import numpy as np


# ---------------------------------------------------------------------------
# Generalized Laguerre polynomials, upward three-term recurrence.
# Measured: Schroedinger residual (max_rel) 2.0e-12 at n = 40 (omega = ell
# = 1, s = 1, x in [0.05, 14], nx = 2000).
# ---------------------------------------------------------------------------

def laguerre_table(n, a, y):
    """[L_0^a(y), ..., L_n^a(y)] from one upward recurrence on the float
    array ``y``.

    L_0 is the scalar 1.0 (it broadcasts against ``y`` with the bits of an
    array of ones); every other entry is an array shaped like ``y``.
    A negative ``n`` raises ValueError.
    """
    if n < 0:
        raise ValueError(f"Laguerre degree n must be >= 0, got {n}")
    y = np.asarray(y, dtype=np.float64)
    table = [1.0]
    if n >= 1:
        table.append(1.0 + a - y)
    for k in range(2, n + 1):
        table.append(((2.0 * k - 1.0 + a - y) * table[k - 1]
                      - (k - 1.0 + a) * table[k - 2]) / k)
    return table


def laguerre_values(n, a, y):
    """L_n^a(y) on the float array ``y``: the last entry of
    :func:`laguerre_table`, shaped like ``y`` also for n = 0 (a 0-d ``y``
    gives an ``np.float64`` at every degree)."""
    if n == 0:
        return np.ones_like(np.asarray(y, dtype=np.float64))[()]
    return laguerre_table(n, a, y)[n]


# ---------------------------------------------------------------------------
# Tridiagonal (Thomas) solve. Rows: diag[i]*x[i] + upper[i]*x[i+1]
# + lower[i]*x[i-1] = rhs[i], with lower[0] and upper[-1] ignored. No
# pivoting; an exactly zero pivot raises ZeroDivisionError.
# ---------------------------------------------------------------------------

def thomas_solve(lower, diag, upper, rhs):
    # Python floats: numpy-scalar indexing costs about 4x, same IEEE arithmetic.
    rows = zip(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist())
    _, di, up, r = next(rows)
    c = up / di
    d = r / di
    cp = [c]
    dp = [d]
    c_append = cp.append
    d_append = dp.append
    for lo, di, up, r in rows:
        den = di - lo * c
        c = up / den
        d = (r - lo * d) / den
        c_append(c)
        d_append(d)
    # back substitution, overwriting dp with the solution
    x = d
    for i in range(len(dp) - 2, -1, -1):
        x = dp[i] = dp[i] - cp[i] * x
    return np.array(dp, dtype=np.float64)


# ---------------------------------------------------------------------------
# Odd-even (cyclic) reduction of a block of tridiagonal systems, rows as in
# thomas_solve, one system per row of the (m, n) bands. Each level pads the
# systems to odd length with identity rows, then eliminates the odd rows:
# even row i gains the factors alpha = -lower[i]/diag[i-1] and
# gamma = -upper[i]/diag[i+1]. Levels repeat until at most THOMAS_ROWS rows
# remain for the sweep, which is then the only per-element Python loop.
# ---------------------------------------------------------------------------

THOMAS_ROWS = 64


def _pad_odd(band, fill):
    """``band`` with one more column of ``fill`` if its width is even
    (np.pad takes about 6x as long at these sizes)."""
    if band.shape[1] % 2:
        return band
    return np.concatenate((band, np.full((band.shape[0], 1), fill)), axis=1)


def _reduce_bands(lower, diag, upper):
    """Levels of odd-even elimination of the (m, n) bands, and the reduced
    bands. Each level is (n, alpha, gamma, 1/b, a/b, c/b): its row count
    before padding, the factors of the even rows and those of the odd
    (eliminated) rows. An exactly zero pivot raises ZeroDivisionError."""
    levels = []
    while lower.shape[1] > THOMAS_ROWS:
        n = lower.shape[1]
        lower, diag, upper = (_pad_odd(lower, 0.0), _pad_odd(diag, 1.0),
                              _pad_odd(upper, 0.0))
        b_odd = diag[:, 1::2]
        if not b_odd.all():
            raise ZeroDivisionError("zero pivot in an eliminated row")
        inv_b = 1.0 / b_odd
        a_odd = lower[:, 1::2]
        c_odd = upper[:, 1::2]
        alpha = -lower[:, 2::2] * inv_b
        gamma = -upper[:, :-1:2] * inv_b
        diag = diag[:, ::2].copy()
        diag[:, 1:] += alpha * c_odd
        diag[:, :-1] += gamma * a_odd
        lower = np.zeros_like(diag)
        lower[:, 1:] = alpha * a_odd
        upper = np.zeros_like(diag)
        upper[:, :-1] = gamma * c_odd
        levels.append((n, alpha, gamma, inv_b, a_odd * inv_b, c_odd * inv_b))
    return levels, lower, diag, upper


def _reduced_solve(levels, j, lower, diag, upper, rhs):
    """Solve system j of a reduced block: reduce ``rhs`` level by level,
    sweep the reduced system, then fill in the eliminated rows."""
    kept = []
    for n, alpha, gamma, _, _, _ in levels:
        if n % 2 == 0:
            rhs = np.append(rhs, 0.0)
        odd = rhs[1::2]
        rhs = rhs[::2].copy()
        rhs[1:] += alpha[j] * odd
        rhs[:-1] += gamma[j] * odd
        kept.append(odd)
    x = thomas_solve(lower[j], diag[j], upper[j], rhs)
    for (n, _, _, inv_b, a_b, c_b), odd in zip(reversed(levels), reversed(kept)):
        full = np.empty(2 * x.shape[0] - 1)
        full[::2] = x
        full[1::2] = odd * inv_b[j] - a_b[j] * x[:-1] - c_b[j] * x[1:]
        x = full[:n]
    return x


# ---------------------------------------------------------------------------
# Crank-Nicolson stepping for d_t P = -d_x(C P) + d_xx(D P) + R on a
# uniform grid, central differences, Dirichlet values supplied per step.
# d_levels/c_levels hold D and C at every time level (nt+1, nx);
# r_half holds R at the half steps (nt, nx). Second order in h and dt.
# The band coefficients of all nt steps are built, and reduced to at most
# THOMAS_ROWS rows, in one numpy pass; the caller bounds nt (verify hands
# over one block of time levels per call).
# ---------------------------------------------------------------------------

def cn_evolve(p0, d_levels, c_levels, r_half, bc_left, bc_right, dt, h):
    nt = r_half.shape[0]
    nx = p0.shape[0]
    p = p0.copy()
    inv_h2 = 1.0 / (h * h)
    inv_2h = 0.5 / h
    rhs = np.empty(nx)
    # levels 0..nt: the old level of each step, then the new one
    lo = d_levels[:, :-2] * inv_h2 + c_levels[:, :-2] * inv_2h
    hi = d_levels[:, 2:] * inv_h2 - c_levels[:, 2:] * inv_2h

    # spatial operator L at the old level (interior), for the explicit half
    mid_old = -2.0 * d_levels[:-1, 1:-1] * inv_h2
    dt_r = dt * r_half[:, 1:-1]

    # implicit half at the new level
    lower = np.zeros((nt, nx))
    diag = np.ones((nt, nx))
    upper = np.zeros((nt, nx))
    lower[:, 1:-1] = -0.5 * dt * lo[1:]
    diag[:, 1:-1] = 1.0 + dt * d_levels[1:, 1:-1] * inv_h2
    upper[:, 1:-1] = -0.5 * dt * hi[1:]
    levels, red_lower, red_diag, red_upper = _reduce_bands(lower, diag, upper)

    for j in range(nt):
        rhs[1:-1] = p[1:-1] + 0.5 * dt * (
            lo[j] * p[:-2] + mid_old[j] * p[1:-1] + hi[j] * p[2:]
        ) + dt_r[j]
        rhs[0] = bc_left[j + 1]
        rhs[-1] = bc_right[j + 1]
        p = _reduced_solve(levels, j, red_lower, red_diag, red_upper, rhs)
    return p
