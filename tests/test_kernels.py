"""The numpy kernels against dense linear-algebra references."""

import numpy as np
import pytest

from susycdr import _kernels


class TestThomasKernel:
    @pytest.mark.parametrize("n", [2, 3, 64, 401])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(99)
        lower = rng.standard_normal(n)
        upper = rng.standard_normal(n)
        diag = 4.0 + rng.random(n)  # diagonally dominant
        rhs = rng.standard_normal(n)
        mat = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        expected = np.linalg.solve(mat, rhs)
        result = _kernels.thomas_solve(lower, diag, upper, rhs)
        assert isinstance(result, np.ndarray)
        assert result.dtype == np.float64 and result.shape == (n,)
        np.testing.assert_allclose(result, expected, rtol=1e-11)


def _dense_operator(d, c, h):
    """Central-difference d_xx(D .) - d_x(C .) with zero boundary rows."""
    nx = d.shape[0]
    d2 = np.zeros((nx, nx))
    d1 = np.zeros((nx, nx))
    for i in range(1, nx - 1):
        d2[i, i - 1:i + 2] = np.array([1.0, -2.0, 1.0]) / h ** 2
        d1[i, i - 1:i + 2] = np.array([-1.0, 0.0, 1.0]) / (2.0 * h)
    return d2 @ np.diag(d) - d1 @ np.diag(c)


def _dense_crank_nicolson(p0, d, c, r, bcl, bcr, dt, h):
    """Crank-Nicolson with Dirichlet rows, one np.linalg.solve per step."""
    nx = p0.shape[0]
    eye = np.eye(nx)
    interior = np.ones(nx)
    interior[[0, -1]] = 0.0
    p = p0.copy()
    for step in range(r.shape[0]):
        explicit = eye + 0.5 * dt * _dense_operator(d[step], c[step], h)
        implicit = eye - 0.5 * dt * _dense_operator(d[step + 1], c[step + 1], h)
        rhs = explicit @ p + dt * interior * r[step]
        rhs[0] = bcl[step + 1]
        rhs[-1] = bcr[step + 1]
        p = np.linalg.solve(implicit, rhs)
    return p


class TestCnKernel:
    def test_paths_agree(self):
        rng = np.random.default_rng(5)
        nx, nt = 40, 12
        p0 = rng.random(nx)
        d = 0.5 + 0.1 * rng.random((nt + 1, nx))
        c = 0.2 * rng.standard_normal((nt + 1, nx))
        r = 0.05 * rng.standard_normal((nt, nx))
        bcl = rng.random(nt + 1)
        bcr = rng.random(nt + 1)
        args = (p0, d, c, r, bcl, bcr, 1e-2, 0.1)
        np.testing.assert_allclose(
            _kernels.cn_evolve(*args), _dense_crank_nicolson(*args),
            rtol=1e-12, atol=1e-14,
        )
