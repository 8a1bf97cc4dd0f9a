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
    """
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
    :func:`laguerre_table`, an array shaped like ``y`` also for n = 0."""
    if n == 0:
        return np.ones_like(np.asarray(y, dtype=np.float64))
    return laguerre_table(n, a, y)[n]


# ---------------------------------------------------------------------------
# Tridiagonal (Thomas) solve. Rows: diag[i]*x[i] + upper[i]*x[i+1]
# + lower[i]*x[i-1] = rhs[i], with lower[0] and upper[-1] ignored. No
# pivoting; an exactly zero pivot raises ZeroDivisionError.
# ---------------------------------------------------------------------------

def thomas_solve(lower, diag, upper, rhs):
    # Python floats: numpy-scalar indexing costs about 4x, same IEEE arithmetic.
    lower = lower.tolist()
    diag = diag.tolist()
    upper = upper.tolist()
    rhs = rhs.tolist()
    n = len(diag)
    c_prev = upper[0] / diag[0]
    d_prev = rhs[0] / diag[0]
    cp = [c_prev]
    dp = [d_prev]
    for i in range(1, n):
        lo = lower[i]
        denom = diag[i] - lo * c_prev
        c_prev = upper[i] / denom
        d_prev = (rhs[i] - lo * d_prev) / denom
        cp.append(c_prev)
        dp.append(d_prev)
    x = [0.0] * n
    x_next = x[n - 1] = d_prev
    for i in range(n - 2, -1, -1):
        x_next = x[i] = dp[i] - cp[i] * x_next
    return np.array(x)


# ---------------------------------------------------------------------------
# Crank-Nicolson stepping for d_t P = -d_x(C P) + d_xx(D P) + R on a
# uniform grid, central differences, Dirichlet values supplied per step.
# d_levels/c_levels hold D and C at every time level (nt+1, nx);
# r_half holds R at the half steps (nt, nx). Second order in h and dt.
# ---------------------------------------------------------------------------

def cn_evolve(p0, d_levels, c_levels, r_half, bc_left, bc_right, dt, h):
    nt = r_half.shape[0]
    nx = p0.shape[0]
    p = p0.copy()
    inv_h2 = 1.0 / (h * h)
    inv_2h = 0.5 / h
    for step in range(nt):
        d_old = d_levels[step]
        c_old = c_levels[step]
        d_new = d_levels[step + 1]
        c_new = c_levels[step + 1]

        # spatial operator L applied to the current solution (interior)
        lo_old = d_old[:-2] * inv_h2 + c_old[:-2] * inv_2h
        mid_old = -2.0 * d_old[1:-1] * inv_h2
        hi_old = d_old[2:] * inv_h2 - c_old[2:] * inv_2h
        rhs = np.empty(nx)
        rhs[1:-1] = p[1:-1] + 0.5 * dt * (
            lo_old * p[:-2] + mid_old * p[1:-1] + hi_old * p[2:]
        ) + dt * r_half[step, 1:-1]
        rhs[0] = bc_left[step + 1]
        rhs[-1] = bc_right[step + 1]

        lower = np.zeros(nx)
        diag = np.ones(nx)
        upper = np.zeros(nx)
        lower[1:-1] = -0.5 * dt * (d_new[:-2] * inv_h2 + c_new[:-2] * inv_2h)
        diag[1:-1] = 1.0 + dt * d_new[1:-1] * inv_h2
        upper[1:-1] = -0.5 * dt * (d_new[2:] * inv_h2 - c_new[2:] * inv_2h)

        p = thomas_solve(lower, diag, upper, rhs)
    return p
