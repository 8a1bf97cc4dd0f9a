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
# thomas_solve, one system per row of the (m, n) bands. The caller pads the
# systems once with identity rows to a width 2^L q + 1 with
# q + 1 <= THOMAS_ROWS (_padded_width), which stays odd at every level. Each
# level eliminates the odd rows: even row i gains the factors
# alpha = -lower[i]/diag[i-1] and gamma = -upper[i]/diag[i+1]. Levels repeat
# until at most THOMAS_ROWS rows remain for the sweep, which is then the only
# per-element Python loop.
# ---------------------------------------------------------------------------

THOMAS_ROWS = 64


def _padded_width(nx):
    """The smallest width 2^L q + 1 >= ``nx`` with q + 1 <= THOMAS_ROWS:
    ``nx`` itself up to THOMAS_ROWS (no level runs), and above that a width
    that stays odd at each of its L levels and leaves q + 1 rows."""
    if nx <= THOMAS_ROWS:
        return nx
    step = 2
    while nx - 1 > step * (THOMAS_ROWS - 1):
        step *= 2
    return step * -(-(nx - 1) // step) + 1


def _reduce_bands(lower, diag, upper):
    """Levels of odd-even elimination of the (m, n) bands, n from
    :func:`_padded_width`, and the reduced bands. Each level is
    (alpha, gamma, 1/b, a/b, c/b): the factors of the even rows and those of
    the odd (eliminated) rows. An exactly zero pivot raises
    ZeroDivisionError."""
    levels = []
    while lower.shape[1] > THOMAS_ROWS:
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
        levels.append((alpha, gamma, inv_b, a_odd * inv_b, c_odd * inv_b))
    return levels, lower, diag, upper


def _reduced_solve(levels, j, lower, diag, upper, rhs):
    """Solve system j of a reduced block: reduce ``rhs`` level by level,
    sweep the reduced system, then fill in the eliminated rows."""
    kept = []
    for alpha, gamma, _, _, _ in levels:
        odd = rhs[1::2]
        rhs = rhs[::2].copy()
        rhs[1:] += alpha[j] * odd
        rhs[:-1] += gamma[j] * odd
        kept.append(odd)
    x = thomas_solve(lower[j], diag[j], upper[j], rhs)
    for (_, _, inv_b, a_b, c_b), odd in zip(reversed(levels), reversed(kept)):
        full = np.empty(2 * x.shape[0] - 1)
        full[::2] = x
        full[1::2] = odd * inv_b[j] - a_b[j] * x[:-1] - c_b[j] * x[1:]
        x = full
    return x


# ---------------------------------------------------------------------------
# Crank-Nicolson stepping for d_t P = -d_x(C P) + d_xx(D P) + R on a
# uniform grid, central differences, Dirichlet values supplied per step.
# d_levels/c_levels hold D and C at every time level (nt+1, nx);
# r_half holds R at the half steps (nt, nx). Second order in h and dt.
# Step j solves A_{j+1} p_{j+1} = (2 I - A_j) p_j + dt R, A_j = I - dt/2 L_j:
# its right-hand side is 2 p - rhs_prev + dt R, and A_0 p_0 is formed only
# when no rhs is handed in. The bands of all nt steps are built once, padded
# to _padded_width, and reduced in one numpy pass; the caller bounds nt and
# hands P and rhs on from call to call (verify, one block of time levels per
# call).
# ---------------------------------------------------------------------------

def cn_evolve(p0, d_levels, c_levels, r_half, bc_left, bc_right, dt, h,
              rhs=None):
    nx = p0.shape[0]
    width = _padded_width(nx)
    inner = slice(1, nx - 1)
    inv_h2, inv_2h = 1.0 / (h * h), 0.5 / h
    # A_j at levels 1..nt, and at level 0 when A_0 p0 is to be formed
    d, c = (f[0 if rhs is None else 1:] for f in (d_levels, c_levels))
    shape = (d.shape[0], width)
    lower, diag, upper = np.zeros(shape), np.ones(shape), np.zeros(shape)
    lower[:, inner] = -0.5 * dt * (d[:, :-2] * inv_h2 + c[:, :-2] * inv_2h)
    diag[:, inner] = 1.0 + dt * d[:, 1:-1] * inv_h2
    upper[:, inner] = -0.5 * dt * (d[:, 2:] * inv_h2 - c[:, 2:] * inv_2h)
    buf = np.zeros(width)
    if rhs is None:
        buf[inner] = (lower[0, inner] * p0[:-2] + diag[0, inner] * p0[1:-1]
                      + upper[0, inner] * p0[2:])
        lower, diag, upper = lower[1:], diag[1:], upper[1:]
    else:
        buf[:nx] = rhs
    levels, red_lower, red_diag, red_upper = _reduce_bands(lower, diag, upper)

    p = p0
    for j, source in enumerate(dt * r_half[:, 1:-1]):
        buf[inner] = 2.0 * p[inner] - buf[inner] + source
        buf[0] = bc_left[j + 1]
        buf[nx - 1] = bc_right[j + 1]
        p = _reduced_solve(levels, j, red_lower, red_diag, red_upper, buf)
    return p[:nx], buf[:nx]
