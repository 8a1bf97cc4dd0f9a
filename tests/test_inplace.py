"""The element-wise hot paths update temporaries of their own in place.

Each rewritten function is checked against the expression it replaced,
written out here as a reference, bit for bit, on fpe, case_a and case_b
systems and on 0-d, 1-d and 2-d inputs; none of them writes an array it
was passed or an entry of the Laguerre recurrence, and a 0-d input still
gives an ``np.float64``.
"""

import numpy as np
import pytest

from susycdr import _kernels, quantum, verify
from susycdr.cdr import build_case_a, build_case_b, build_fpe
from susycdr.quantum import (OscillatorParams, RadialOscillatorFamily,
                             base_potential)

FAMILY = RadialOscillatorFamily(OscillatorParams(1.3, 0.8))
SYSTEMS = {
    "fpe": build_fpe(FAMILY, 1, 2, 0.8),
    "case_a": build_case_a(FAMILY, 1.2, 3, 1),
    "case_b": build_case_b(FAMILY, 1.0, 3, 1, 1, 3, 1.5, 2.5),
}
NDIMS = (0, 1, 2)


def _points(ndim):
    """Points x > 0 of ``ndim`` dimensions: a 0-d array, a line, or a
    block of similarity variables z = x / t^alpha."""
    if ndim == 0:
        return np.array(0.7)
    x = np.linspace(0.05, 9.0, 401)
    if ndim == 1:
        return x
    return x[None, :] / np.array([0.5, 1.0, 1.7, 2.5])[:, None] ** 1.2


def _same(got, ref):
    """Same type (``np.float64`` for a 0-d reference), shape and bits."""
    assert type(got) is type(ref)
    assert np.shape(got) == np.shape(ref)
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


class _Untouched:
    """Bit copies of arrays taken now, to assert later that no call wrote
    them."""

    def __init__(self, *arrays):
        self.arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        self.copies = [a.copy() for a in self.arrays]

    def check(self):
        for array, copy in zip(self.arrays, self.copies, strict=True):
            assert array.tobytes() == copy.tobytes()


@pytest.fixture
def laguerre_entries(monkeypatch):
    """Every entry ``laguerre_table`` yields from here on, as seen through
    :mod:`susycdr.quantum` and :mod:`susycdr._kernels`, with a copy taken
    as it is yielded."""
    seen = _Untouched()
    table = _kernels.laguerre_table

    def recorded(*args):
        for entry in table(*args):
            if isinstance(entry, np.ndarray):
                seen.arrays.append(entry)
                seen.copies.append(entry.copy())
            yield entry

    monkeypatch.setattr(quantum, "laguerre_table", recorded)
    monkeypatch.setattr(_kernels, "laguerre_table", recorded)
    return seen


# -- references: the expressions the in-place code replaced ----------------

def _ref_q(omega, x):
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * omega * x * x


def _ref_value(state, x):
    q = _ref_q(state._omega, x)
    with np.errstate(divide="ignore"):
        envelope = state._power * np.log(q) - 0.5 * q
    lag = _kernels.laguerre_values(state.n, state._lag_a, q)
    return np.exp(state._log_norm + envelope) * lag


def _ref_jet(state, x, order):
    x = np.asarray(x, dtype=np.float64)
    q = _ref_q(state._omega, x)
    p = state._power
    lags = [_kernels.last(_kernels.laguerre_table(state.n - k, state._lag_a + k, q))
            if k <= state.n else 0.0 for k in range(order + 1)]
    lag, lag_d = lags[0], -lags[1]
    base = np.exp(state._log_norm + (p * np.log(q) - 0.5 * q))
    inv_q = 1.0 / q
    du_dq = base * ((p * inv_q - 0.5) * lag + lag_d)
    dq_dx = state._omega * x
    jet = [base * lag, du_dq * dq_dx]
    if order == 2:
        d2u_dq2 = base * ((((p * (p - 1.0)) * inv_q - p) * inv_q + 0.25) * lag
                          + (2.0 * p * inv_q - 1.0) * lag_d + lags[2])
        jet.append(d2u_dq2 * dq_dx * dq_dx + du_dq * state._omega)
    return tuple(jet)


def _ref_base_potential(params, x):
    x = np.asarray(x, dtype=np.float64)
    w, l = params.omega, params.ell
    return 0.25 * w * w * x * x + l * (l + 1.0) / (x * x) - w * (l + 1.5)


def _ref_convection(system, z, sigma_jet, order):
    g = sigma_jet[order + 1]
    return 2.0 * g + (system.alpha * np.asarray(z) if order == 0 else system.alpha)


def _ref_reaction(system, z, y, sigma):
    if system is SYSTEMS["fpe"]:
        return np.zeros(np.shape(z))
    if system is SYSTEMS["case_a"]:
        return -system.delta_e * sigma * y
    fam = system.family
    dv = (_ref_base_potential(fam.shifted_params(system.sigma_state.s), z)
          + 2.0 * fam.omega * system.sigma_state.s
          - (_ref_base_potential(fam.shifted_params(system.y_state.s), z)
             + 2.0 * fam.omega * system.y_state.s))
    return dv * sigma * y


def _ref_analytic_terms(system, x, ts):
    col = verify._time_column
    z = x[None, :] / col(ts, system.alpha)
    (y, y_d, y_dd), sig_jet = system.jets(z)
    sig, sig_d, sig_dd = sig_jet
    c = system.convection(z, sig_jet)
    c_d = system.convection(z, sig_jet, order=1)
    t_mu1 = col(ts, system.mu - 1.0)
    dt_p = t_mu1 * (system.mu * y - system.alpha * z * y_d)
    dx_cp = t_mu1 * (c_d * y + c * y_d)
    dxx_dp = t_mu1 * (sig_dd * y + 2.0 * sig_d * y_d + sig * y_dd)
    reac = col(ts, system.rho_exp) * system.reaction(z, y, sig)
    return col(ts, system.mu) * y, dt_p, dx_cp, dxx_dp, reac


def _ref_fd_terms(system, x, ts, fd_step):
    t = ts[:, None]
    x = x[None, :]
    h_t = fd_step if fd_step is not None else 1e-4 * np.maximum(1.0, np.abs(t))
    h_x = fd_step if fd_step is not None else 1e-4 * np.maximum(1.0, np.abs(x))
    p_t = {k: verify.eval_fields(system, x, t + k * h_t, "P")[0]
           for k in (2, 1, -1, -2)}
    at_x = {k: verify.eval_fields(system, x + k * h_x, t, "PDC")
            for k in (2, 1, -1, -2)}
    cp = {k: c * p for k, (p, _, c) in at_x.items()}
    dp = {k: d * p for k, (p, d, _) in at_x.items()}
    dt_p = -p_t[2]
    dt_p += 8 * p_t[1]
    dt_p -= 8 * p_t[-1]
    dt_p += p_t[-2]
    dt_p /= 12 * h_t
    p, d, _, reac = verify.eval_fields(system, x, t, "PDCR")
    dx_cp = -cp[2]
    dx_cp += 8 * cp[1]
    dx_cp -= 8 * cp[-1]
    dx_cp += cp[-2]
    dx_cp /= 12 * h_x
    dxx_dp = -dp[2]
    dxx_dp += 16 * dp[1]
    dxx_dp -= 30 * (d * p)
    dxx_dp += 16 * dp[-1]
    dxx_dp -= dp[-2]
    dxx_dp /= 12 * h_x * h_x
    return p, dt_p, dx_cp, dxx_dp, reac


def _ref_bands(d, c, dt, h, first):
    nx = d.shape[1]
    inner = slice(1, nx - 1)
    inv_h2, inv_2h = 1.0 / (h * h), 0.5 / h
    bands = np.zeros((3, d.shape[0], _kernels._padded_width(nx)))
    lower, diag, upper = bands
    lower[:, inner] = -0.5 * dt * (d[:, :-2] * inv_h2 + c[:, :-2] * inv_2h)
    diag[:] = 1.0
    diag[:, inner] = 1.0 + dt * d[:, 1:-1] * inv_h2
    upper[:, inner] = -0.5 * dt * (d[:, 2:] * inv_h2 - c[:, 2:] * inv_2h)
    return bands[:, first:]


def _ref_reduce_bands(bands):
    levels = []
    while bands.shape[2] > _kernels.THOMAS_ROWS:
        a_odd, b_odd, c_odd = bands[:, :, 1::2].copy()
        bands = bands[:, :, ::2].copy()
        lower, diag, upper = bands
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


# -- quantum ----------------------------------------------------------------

_STATES = [(s, n) for s in (0, 1, 3) for n in (0, 1, 2, 5)]


@pytest.mark.parametrize("ndim", NDIMS)
@pytest.mark.parametrize("s, n", _STATES)
def test_jet_and_values_keep_the_bits(laguerre_entries, ndim, s, n):
    state = FAMILY.eigenstate(s, n)
    x = _points(ndim)
    untouched = _Untouched(x)
    for order in (1, 2):
        for got, ref in zip(state.jet(x, order), _ref_jet(state, x, order),
                            strict=True):
            _same(got, ref)
    _same(state(x), _ref_value(state, x))
    for k, got in enumerate(FAMILY.eigenstate_values(s, n, x)):
        _same(got, _ref_value(FAMILY.eigenstate(s, k), x))
    untouched.check()
    # past degree 0 the recurrence yields arrays, unless x is 0-d
    assert bool(laguerre_entries.arrays) == (ndim > 0 and n > 0)
    laguerre_entries.check()


@pytest.mark.parametrize("ndim", NDIMS)
@pytest.mark.parametrize("ell", [0.8, 2.5])
def test_potentials_keep_the_bits(ndim, ell):
    params = OscillatorParams(1.3, ell)
    x = _points(ndim)
    untouched = _Untouched(x)
    _same(base_potential(params, x), _ref_base_potential(params, x))
    fam = RadialOscillatorFamily(params)
    for s in (0, 2):
        _same(fam.potential(s, x), _ref_base_potential(fam.shifted_params(s), x)
              + 2.0 * fam.omega * s)
    untouched.check()


# -- cdr --------------------------------------------------------------------

@pytest.mark.parametrize("ndim", NDIMS)
@pytest.mark.parametrize("case", SYSTEMS)
def test_convection_and_reaction_keep_the_bits(ndim, case):
    system = SYSTEMS[case]
    z = _points(ndim)
    (y, _, _), sig_jet = system.jets(z)
    untouched = _Untouched(z, y, *sig_jet)
    for order in (0, 1):
        _same(system.convection(z, sig_jet, order),
              _ref_convection(system, z, sig_jet, order))
    _same(system.reaction(z, y, sig_jet[0]),
          _ref_reaction(system, z, y, sig_jet[0]))
    untouched.check()


# -- verify -----------------------------------------------------------------

_GRID = verify.GridSpec(x_min=0.2, x_max=8.0, nx=120, t_min=0.5, t_max=2.5,
                        nt=6)


@pytest.mark.parametrize("case", SYSTEMS)
def test_analytic_terms_keep_the_bits(case):
    system = SYSTEMS[case]
    x, ts = _GRID.x_points(), _GRID.t_points()
    untouched = _Untouched(x, ts)
    for got, ref in zip(verify._analytic_terms(system, x, ts),
                        _ref_analytic_terms(system, x, ts), strict=True):
        _same(got, ref)
    untouched.check()


@pytest.mark.parametrize("fd_step", [None, 1e-3])
@pytest.mark.parametrize("case", SYSTEMS)
def test_fd_terms_keep_the_bits(case, fd_step):
    system = SYSTEMS[case]
    x, ts = _GRID.x_points(), _GRID.t_points()
    untouched = _Untouched(x, ts)
    for got, ref in zip(verify._fd_terms(system, x, ts, fd_step),
                        _ref_fd_terms(system, x, ts, fd_step), strict=True):
        _same(got, ref)
    untouched.check()


@pytest.mark.parametrize("mode", ["analytic", "finite-difference"])
@pytest.mark.parametrize("case", SYSTEMS)
def test_pde_residual_sums_the_terms_in_order(case, mode):
    # one block of levels: the report of the reference residual, summed as
    # dt_p + dx_cp - dxx_dp - reac into a new array
    system = SYSTEMS[case]
    x, ts = _GRID.x_points(), _GRID.t_points()
    terms = (_ref_analytic_terms(system, x, ts) if mode == "analytic"
             else _ref_fd_terms(system, x, ts, None))
    p, dt_p, dx_cp, dxx_dp, reac = terms
    residual = dt_p + dx_cp
    residual -= dxx_dp
    residual -= reac
    ref = verify._residual_report(
        [(residual, (p, dx_cp, dxx_dp, reac),
          lambda idx: (float(x[idx % x.size]), float(ts[idx // x.size])))],
        mode)
    assert verify.pde_residual(system, _GRID, mode).as_dict() == ref.as_dict()


# -- _kernels ---------------------------------------------------------------

@pytest.mark.parametrize("handed_on", [False, True])
@pytest.mark.parametrize("nx", [40, 200, 401])
def test_cn_bands_keep_the_bits(monkeypatch, nx, handed_on):
    # nx = 40: no reduction level; 200 and 401: two and three levels
    rng = np.random.default_rng(nx)
    nt, dt, h = 9, 1e-2, 0.1
    first = 0 if handed_on else 1
    p0 = rng.random(nx)
    d = 0.5 + 0.1 * rng.random((nt + first, nx))
    c = 0.2 * rng.standard_normal((nt + first, nx))
    r = 0.05 * rng.standard_normal((nt, nx))
    bcl, bcr = rng.random(nt + 1), rng.random(nt + 1)
    rhs = rng.random(nx) if handed_on else None
    untouched = _Untouched(p0, d, c, r, bcl, bcr, rhs)
    seen = []
    reduce_bands = _kernels._reduce_bands

    def recorded(bands):
        seen.append(bands.copy())
        levels, core = reduce_bands(bands)
        seen.append((levels, core))
        return levels, core

    monkeypatch.setattr(_kernels, "_reduce_bands", recorded)
    _kernels.cn_evolve(p0, d, c, r, bcl, bcr, dt, h, rhs)
    untouched.check()
    bands, (levels, core) = seen
    ref_bands = _ref_bands(d, c, dt, h, first)
    _same(bands, ref_bands)
    ref_levels, ref_core = _ref_reduce_bands(ref_bands)
    assert len(levels) == len(ref_levels) == {40: 0, 200: 2, 401: 3}[nx]
    for level, ref_level in zip(levels, ref_levels, strict=True):
        for got, ref in zip(level, ref_level, strict=True):
            _same(got, ref)
    _same(core, ref_core)
