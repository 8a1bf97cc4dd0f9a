"""Hot numeric kernels: plain numpy, one implementation each."""

from collections import deque

import numpy as np


# ---------------------------------------------------------------------------
# Generalized Laguerre polynomials, upward three-term recurrence.
# Measured: Schroedinger residual (max_rel) 2.0e-12 at n = 40 (omega = ell
# = 1, s = 1, x in [0.05, 14], nx = 2000).
# ---------------------------------------------------------------------------

def laguerre_table(n, a, y):
    """Iterator over L_0^a(y), ..., L_n^a(y) from one upward recurrence on
    the float array ``y``, holding two degrees at a time.

    L_0 is the scalar 1.0 (it broadcasts against ``y`` with the bits of an
    array of ones); every other entry is an array shaped like ``y``.
    A negative ``n`` raises ValueError at the call.
    """
    if n < 0:
        raise ValueError(f"Laguerre degree n must be >= 0, got {n}")
    return _laguerre_degrees(n, a, np.asarray(y, dtype=np.float64))


def _laguerre_degrees(n, a, y):
    prev = 1.0
    yield prev
    if n >= 1:
        cur = 1.0 + a - y
        yield cur
        for k in range(2, n + 1):
            # in place on the new degree only, never on one yielded
            nxt = 2.0 * k - 1.0 + a - y
            nxt *= cur
            nxt -= (k - 1.0 + a) * prev
            nxt /= k
            prev, cur = cur, nxt
            yield cur


def last(values):
    """The last item of the iterable ``values``, holding one at a time."""
    return deque(values, maxlen=1)[0]


def laguerre_values(n, a, y):
    """L_n^a(y) on the float array ``y``: the last entry of
    :func:`laguerre_table`, shaped like ``y`` also for n = 0 (a 0-d ``y``
    gives an ``np.float64`` at every degree)."""
    if n == 0:
        return np.ones_like(np.asarray(y, dtype=np.float64))[()]
    return last(laguerre_table(n, a, y))


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


def _reduce_bands(bands):
    """Levels of odd-even elimination of the (3, m, n) bands (lower, diag,
    upper), n from :func:`_padded_width`, and the reduced bands. Each level
    is (alpha, gamma, 1/b, a/b, c/b): the factors of the even rows and those
    of the odd (eliminated) rows. A level copies the odd and the even
    columns of all three bands first, so every operation after reads
    contiguous rows. An exactly zero pivot raises ZeroDivisionError."""
    levels = []
    while bands.shape[2] > THOMAS_ROWS:
        a_odd, b_odd, c_odd = bands[:, :, 1::2].copy()
        bands = bands[:, :, ::2].copy()  # the even rows, reduced in place
        lower, diag, upper = bands
        if not b_odd.all():
            raise ZeroDivisionError("zero pivot in an eliminated row")
        inv_b = 1.0 / b_odd
        alpha = -lower[:, 1:] * inv_b
        gamma = -upper[:, :-1] * inv_b
        np.add(diag[:, 1:], alpha * c_odd, out=diag[:, 1:])
        np.add(diag[:, :-1], gamma * a_odd, out=diag[:, :-1])
        lower[:, 0] = upper[:, -1] = 0.0
        np.multiply(alpha, a_odd, out=lower[:, 1:])
        np.multiply(gamma, c_odd, out=upper[:, :-1])
        levels.append((alpha, gamma, inv_b, a_odd * inv_b, c_odd * inv_b))
    return levels, bands


# ---------------------------------------------------------------------------
# Crank-Nicolson stepping for d_t P = -d_x(C P) + d_xx(D P) + R on a
# uniform grid, central differences, Dirichlet values supplied per step.
# d_levels/c_levels hold D and C at the levels whose implicit operators
# A_j = I - dt/2 L_j the call builds: 0..nt, or 1..nt when the previous
# call's last right-hand side ``rhs`` is handed in. r_half holds R at the
# half steps (nt, nx). Second order in h and dt. Step j solves
# A_{j+1} p_{j+1} = (2 I - A_j) p_j + dt R: its right-hand side is
# 2 p - rhs_prev + dt R, and A_0 p_0 is formed only when no rhs is handed
# in. The bands of all nt steps are built once, padded to _padded_width,
# and reduced in one numpy pass; the caller bounds nt and hands P and rhs
# on from call to call (verify, one block of time levels per call).
# Each step copies its right-hand side into one work buffer w and solves
# there in place: level k is every 2^k-th entry of w, the forward sweep
# adds the odd rows' terms into the even rows, the core rows are solved
# by thomas_solve and the back sweep overwrites the odd rows, so w[:nx]
# ends the step holding P. Every float operation is that of the
# row-by-row formulas, in their order.
# ---------------------------------------------------------------------------

def cn_evolve(p0, d_levels, c_levels, r_half, bc_left, bc_right, dt, h,
              rhs=None):
    nx, nt = p0.shape[0], r_half.shape[0]
    first = int(rhs is None)  # D and C at level 0 only form A_0 p0
    if d_levels.shape[0] != nt + first:
        raise ValueError(f"D and C at levels {1 - first}..{nt} of {nt} steps "
                         f"are {nt + first} rows, got {d_levels.shape[0]}")
    width = _padded_width(nx)
    inner = slice(1, nx - 1)
    inv_h2, inv_2h = 1.0 / (h * h), 0.5 / h
    d, c = d_levels, c_levels
    bands = np.zeros((3, d.shape[0], width))
    lower, diag, upper = bands
    lower[:, inner] = -0.5 * dt * (d[:, :-2] * inv_h2 + c[:, :-2] * inv_2h)
    diag[:] = 1.0
    diag[:, inner] = 1.0 + dt * d[:, 1:-1] * inv_h2
    upper[:, inner] = -0.5 * dt * (d[:, 2:] * inv_h2 - c[:, 2:] * inv_2h)
    levels, core = _reduce_bands(bands[:, first:])

    b_full, w = np.zeros(width), np.zeros(width)  # padded rows stay 0 in b
    b = b_full[:nx]
    if rhs is None:
        b[inner] = (lower[0, inner] * p0[:-2] + diag[0, inner] * p0[1:-1]
                    + upper[0, inner] * p0[2:])
    else:
        b[:] = rhs
    w[:nx] = p0
    b_in, p_in = b[inner], w[inner]
    # per level: its factors, the odd rows of w at that level, the even
    # rows left and right of them, and one scratch row
    plan = [(*level, w[2 ** k::2 ** (k + 1)], w[:-1:2 ** (k + 1)],
             w[2 ** (k + 1)::2 ** (k + 1)], np.empty(level[0].shape[1]))
            for k, level in enumerate(levels)]
    w_core = w[::2 ** len(levels)]
    steps = zip(*core, dt * r_half[:, 1:-1], bc_left[1:].tolist(),
                bc_right[1:].tolist())
    # local names and out by position: numpy call overhead is a step's cost
    add, mul, sub, copy = np.add, np.multiply, np.subtract, np.copyto

    for j, (lo, di, up, source, bc_l, bc_r) in enumerate(steps):
        sub(2.0 * p_in, b_in, b_in)
        add(b_in, source, b_in)
        b[0], b[-1] = bc_l, bc_r
        copy(w, b_full)
        for alpha, gamma, _, _, _, odd, left, right, tmp in plan:
            add(right, mul(alpha[j], odd, tmp), right)
            add(left, mul(gamma[j], odd, tmp), left)
        w_core[:] = thomas_solve(lo, di, up, w_core)
        for _, _, inv_b, a_b, c_b, odd, left, right, tmp in reversed(plan):
            mul(odd, inv_b[j], odd)
            sub(odd, mul(a_b[j], left, tmp), odd)
            sub(odd, mul(c_b[j], right, tmp), odd)
    return w[:nx], b
