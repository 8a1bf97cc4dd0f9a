"""The numpy kernels against dense linear-algebra references."""

import warnings

import numpy as np
import pytest

from susycdr import _kernels, verify


def _two_term_recurrence(n, a, y):
    """L_n^a(y) by the upward recurrence that keeps only the last two
    degrees, starting from an array of ones."""
    prev = np.ones_like(y)
    if n == 0:
        return prev
    cur = 1.0 + a - y
    for k in range(2, n + 1):
        cur, prev = ((2.0 * k - 1.0 + a - y) * cur - (k - 1.0 + a) * prev) / k, cur
    return cur


class TestLaguerreKernel:
    @pytest.mark.parametrize("a", [0.5, 1.7, 4.5, 12.25])
    def test_every_degree_bitwise_equal_to_two_term_recurrence(self, a):
        y = np.linspace(0.0, 40.0, 301)
        table = list(_kernels.laguerre_table(20, a, y))
        assert len(table) == 21
        for n, entry in enumerate(table):
            expected = _two_term_recurrence(n, a, y)
            assert np.array_equal(entry * np.ones_like(y), expected), n
            assert np.array_equal(_kernels.laguerre_values(n, a, y), expected), n

    def test_degree_zero_is_an_array_of_ones(self):
        y = np.linspace(0.0, 3.0, 7).reshape(7, 1)
        assert list(_kernels.laguerre_table(0, 1.5, y)) == [1.0]
        out = _kernels.laguerre_values(0, 1.5, y)
        assert out.shape == y.shape and np.all(out == 1.0)

    @pytest.mark.parametrize("fn", [_kernels.laguerre_table,
                                    _kernels.laguerre_values])
    def test_negative_degree_rejected(self, fn):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            fn(-1, 1.5, np.array([0.5, 2.0]))


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

    def test_zero_pivot_in_row_0_raises(self):
        ones = np.ones(4)
        with pytest.raises(ZeroDivisionError):
            _kernels.thomas_solve(ones, np.array([0.0, 1.0, 1.0, 1.0]), ones, ones)

    def test_zero_pivot_in_interior_row_raises(self):
        # pivots 2, 1 - 1 * (1/2) = 1/2, then 2 - 1 * (1 / (1/2)) = 0 at row 2
        lower = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        diag = np.array([2.0, 1.0, 2.0, 1.0, 1.0])
        upper = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        with pytest.raises(ZeroDivisionError):
            _kernels.thomas_solve(lower, diag, upper, np.ones(5))


def _dense_operator(d, c, h):
    """Central-difference d_xx(D .) - d_x(C .) with zero boundary rows."""
    nx = d.shape[0]
    d2 = np.zeros((nx, nx))
    d1 = np.zeros((nx, nx))
    for i in range(1, nx - 1):
        d2[i, i - 1:i + 2] = np.array([1.0, -2.0, 1.0]) / h ** 2
        d1[i, i - 1:i + 2] = np.array([-1.0, 0.0, 1.0]) / (2.0 * h)
    return d2 * d - d1 * c


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


def _index_loop_thomas(lower, diag, upper, rhs):
    """Thomas solve indexing the rows one by one (the pre-blocking kernel)."""
    lower, diag, upper, rhs = (a.tolist() for a in (lower, diag, upper, rhs))
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


def _implicit_bands(d, c, dt, h):
    """Rows of A = I - dt/2 L at one level (D ``d``, C ``c``), identity
    rows at both ends."""
    nx = d.shape[0]
    inv_h2 = 1.0 / (h * h)
    inv_2h = 0.5 / h
    lower = np.zeros(nx)
    diag = np.ones(nx)
    upper = np.zeros(nx)
    lower[1:-1] = -0.5 * dt * (d[:-2] * inv_h2 + c[:-2] * inv_2h)
    diag[1:-1] = 1.0 + dt * d[1:-1] * inv_h2
    upper[1:-1] = -0.5 * dt * (d[2:] * inv_h2 - c[2:] * inv_2h)
    return lower, diag, upper


def _per_step_cn_evolve(p0, d_levels, c_levels, r_half, bc_left, bc_right, dt, h):
    """Crank-Nicolson with the band coefficients built step by step; each
    right-hand side is 2 p - (previous right-hand side) + dt R, the first
    previous one A_0 p0."""
    nt = r_half.shape[0]
    p = p0.copy()
    lower, diag, upper = _implicit_bands(d_levels[0], c_levels[0], dt, h)
    rhs = np.zeros(p0.shape[0])
    rhs[1:-1] = lower[1:-1] * p[:-2] + diag[1:-1] * p[1:-1] + upper[1:-1] * p[2:]
    for step in range(nt):
        rhs[1:-1] = 2.0 * p[1:-1] - rhs[1:-1] + dt * r_half[step, 1:-1]
        rhs[0] = bc_left[step + 1]
        rhs[-1] = bc_right[step + 1]
        bands = _implicit_bands(d_levels[step + 1], c_levels[step + 1], dt, h)
        p = _index_loop_thomas(*bands, rhs)
    return p


def _cn_inputs(nx, nt, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(nx),
            0.5 + 0.1 * rng.random((nt + 1, nx)),
            0.2 * rng.standard_normal((nt + 1, nx)),
            0.05 * rng.standard_normal((nt, nx)),
            rng.random(nt + 1), rng.random(nt + 1), 1e-2, 0.1)


class TestCnKernel:
    def test_paths_agree(self):
        args = _cn_inputs(40, 12, seed=5)
        np.testing.assert_allclose(
            _kernels.cn_evolve(*args)[0], _dense_crank_nicolson(*args),
            rtol=1e-12, atol=1e-14,
        )

    # nt below, at and past verify's block of time levels: the kernel builds
    # the bands of every step it is handed in one pass, whatever nt is
    @pytest.mark.parametrize("nt", [5, 16, 37])
    def test_blocked_coefficients_equal_per_step_build(self, nt):
        assert verify.LEVEL_BLOCK == 16
        # Up to THOMAS_ROWS rows the sweep sees the per-step bands and keeps
        # their bits; odd-even reduction above that reorders the arithmetic.
        # nx = 200, 400 (the fine ladder's width, padded to 401) and 1000
        # run two, three and four levels of it in the one work buffer.
        for nx in (40, 200, 400, 1000):
            args = _cn_inputs(nx, nt, seed=nt)
            got, ref = _kernels.cn_evolve(*args)[0], _per_step_cn_evolve(*args)
            if nx <= _kernels.THOMAS_ROWS:
                assert np.array_equal(got, ref)
            else:
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)

    # no reduction, two levels of odd-even reduction, and three
    @pytest.mark.parametrize("nx", [40, 200, 400])
    def test_returned_rhs_solves_the_last_implicit_system(self, nx):
        p0, d, c, r, bcl, bcr, dt, h = args = _cn_inputs(nx, 7, seed=nx)
        p, rhs = _kernels.cn_evolve(*args)
        implicit = np.eye(nx) - 0.5 * dt * _dense_operator(d[-1], c[-1], h)
        np.testing.assert_allclose(implicit @ p, rhs, rtol=1e-13)
        assert (rhs[0], rhs[-1]) == (bcl[-1], bcr[-1])

    @staticmethod
    def _blocks(p0, d, c, r, bcl, bcr, dt, h):
        """cn_evolve over blocks of 16, 16 and 5 steps, as verify hands them
        over: D and C at level 0 in the first block only, then at the levels
        whose implicit operators each block builds. Yields (p, rhs) after
        each block."""
        p, rhs = p0, None
        for start, stop in ((0, 16), (16, 32), (32, 37)):
            first = start if rhs is None else start + 1
            p, rhs = _kernels.cn_evolve(
                p, d[first:stop + 1], c[first:stop + 1], r[start:stop],
                bcl[start:stop + 1], bcr[start:stop + 1], dt, h, rhs)
            yield p, rhs

    # no reduction, two levels, and three (the fine ladder's nx = 400)
    @pytest.mark.parametrize("nx", [40, 200, 400])
    def test_handing_p_and_rhs_on_equals_one_call(self, nx):
        args = _cn_inputs(nx, 37, seed=nx)
        whole_p, whole_rhs = _kernels.cn_evolve(*args)
        *_, (p, rhs) = self._blocks(*args)
        assert np.array_equal(p, whole_p)
        assert np.array_equal(rhs, whole_rhs)

    def test_interleaved_streams_equal_each_stream_alone(self):
        # each call plans its own buffers: no state leaks from one stream's
        # block into the other's
        a, b = _cn_inputs(200, 37, seed=1), _cn_inputs(200, 37, seed=2)
        alone = [list(self._blocks(*args)) for args in (a, b)]
        for got, ref in zip(zip(self._blocks(*a), self._blocks(*b)),
                            zip(*alone)):
            for (p, rhs), (ref_p, ref_rhs) in zip(got, ref):
                assert np.array_equal(p, ref_p) and np.array_equal(rhs, ref_rhs)

    @pytest.mark.parametrize("rhs", [None, np.zeros(40)])
    def test_levels_not_matching_the_steps_rejected(self, rhs):
        p0, d, c, r, bcl, bcr, dt, h = _cn_inputs(40, 5, seed=3)
        levels = d[1:] if rhs is None else d
        with pytest.raises(ValueError, match="D and C at levels"):
            _kernels.cn_evolve(p0, levels, levels, r, bcl, bcr, dt, h, rhs)

    # no reduction at either parity, one level with and without padding,
    # two levels padded from 130 to 133 and from 200 to 201, three levels
    @pytest.mark.parametrize("nx, levels", [
        (8, 0), (9, 0), (10, 0), (33, 0), (64, 0), (65, 1), (66, 1),
        (130, 2), (200, 2), (401, 3)])
    def test_reduced_systems_match_dense_solve(self, nx, levels):
        assert _kernels.THOMAS_ROWS == 64
        args = _cn_inputs(nx, 20, seed=nx)
        width = _kernels._padded_width(nx)
        bands = np.array([[[-0.25] * width], [[1.5] * width], [[-0.25] * width]])
        assert len(_kernels._reduce_bands(bands)[0]) == levels
        np.testing.assert_allclose(
            _kernels.cn_evolve(*args)[0], _dense_crank_nicolson(*args),
            rtol=1e-12, atol=1e-14,
        )

    def test_padded_width_is_the_smallest_odd_at_every_level(self):
        def odd_at_every_level(width):
            while width > _kernels.THOMAS_ROWS:
                if width % 2 == 0:
                    return False
                width = (width + 1) // 2
            return True

        for nx in range(1, 1100):
            width = _kernels._padded_width(nx)
            assert width >= nx and odd_at_every_level(width)
            assert not any(odd_at_every_level(w) for w in range(nx, width))

    def test_zero_pivot_in_eliminated_row_raises(self):
        # h = 0.5 and dt = 0.25 make row 1's pivot 1 + dt * D / h^2 exactly
        # 0 at D = -1; row 1 is eliminated before the sweep runs
        nx, nt = 65, 3
        d_levels = np.full((nt + 1, nx), 0.5)
        d_levels[1, 1] = -1.0
        args = (np.ones(nx), d_levels, np.zeros((nt + 1, nx)),
                np.zeros((nt, nx)), np.ones(nt + 1), np.ones(nt + 1), 0.25, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised before numpy divides
            with pytest.raises(ZeroDivisionError):
                _kernels.cn_evolve(*args)
