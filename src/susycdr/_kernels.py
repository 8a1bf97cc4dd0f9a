"""Hot numeric kernels: plain numpy, one implementation each."""

import numpy as np


# ---------------------------------------------------------------------------
# Generalized Laguerre polynomials, upward three-term recurrence.
# Stable for the moderate degrees (n <= ~10) used throughout.
# ---------------------------------------------------------------------------

def laguerre_values(n, a, y):
    """L_n^a evaluated on the 1-d float array ``y`` (vectorized recurrence)."""
    y = np.asarray(y, dtype=np.float64)
    prev = np.ones_like(y)
    if n == 0:
        return prev
    cur = 1.0 + a - y
    for k in range(2, n + 1):
        cur, prev = ((2.0 * k - 1.0 + a - y) * cur - (k - 1.0 + a) * prev) / k, cur
    return cur


# ---------------------------------------------------------------------------
# Tridiagonal (Thomas) solve. Rows: diag[i]*x[i] + upper[i]*x[i+1]
# + lower[i]*x[i-1] = rhs[i], with lower[0] and upper[-1] ignored.
# ---------------------------------------------------------------------------

def thomas_solve(lower, diag, upper, rhs):
    n = diag.shape[0]
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    x = np.empty(n)
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


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
