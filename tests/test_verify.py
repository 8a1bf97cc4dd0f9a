"""Oracle-machinery tests: residual reports, quadrature matrix, node
counting, and the time-stepping cross-check."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln, roots_genlaguerre

from susycdr import _kernels, quantum, verify
from susycdr.cdr import (CdrSystem, build_case_a, build_case_b, build_fpe,
                         eval_fields, swap)
from susycdr.cli import DEFAULT_CONFIG
from susycdr.mathfn import gaussian_tail_cutoff, integrate
from susycdr.quantum import (DEFAULT_X_MIN, OscillatorParams,
                             RadialOscillatorFamily)
from susycdr.verify import (GridSpec, ResidualReport, evolve_oracle, node_count,
                            ode_residual, orthonormality_matrix, pde_residual,
                            positive_diffusion_x_max, schrodinger_residual)
from susycdr.verify import _analytic_terms, _evolve_single, _fd_terms


@pytest.fixture(scope="module")
def family():
    return RadialOscillatorFamily(OscillatorParams(1.0, 1.0))


@pytest.fixture(scope="module")
def fig1(family):
    return build_case_b(family, 1.0, n=3, s=1, n_prime=1, s_prime=3,
                        coeff_a=1.0, coeff_b=3.0)


SMALL_GRID = GridSpec(x_min=0.5, x_max=4.0, nx=50, t_min=0.5, t_max=2.0, nt=4)


class _EnergyShifted:
    """Wraps an eigenstate with a deliberately wrong eigenvalue."""

    def __init__(self, state, shift):
        self._state = state
        self.energy = state.energy + shift
        self.family = state.family
        self.s = state.s
        self.n = state.n

    def __call__(self, x):
        return self._state(x)

    def jet(self, x, order=2):
        return self._state.jet(x, order)


class _Scaled(_EnergyShifted):
    def __init__(self, state, factor):
        super().__init__(state, 0.0)
        self.energy = state.energy
        self._factor = factor

    def __call__(self, x):
        return self._factor * self._state(x)

    def jet(self, x, order=2):
        return tuple(self._factor * d for d in self._state.jet(x, order))


class TestSchrodingerResidual:
    @pytest.mark.parametrize("n", range(6))
    def test_true_states_pass(self, family, n):
        rep = schrodinger_residual(family.eigenstate(0, n), GridSpec())
        assert rep.max_rel <= 1e-8
        assert rep.mode == "analytic"

    def test_wrong_energy_is_order_one(self, family):
        wrong = _EnergyShifted(family.eigenstate(0, 2), 1.0)
        rep = schrodinger_residual(wrong, GridSpec())
        # residual equals -1 * u, so its scale is exactly |u|'s
        assert rep.max_rel == pytest.approx(1.0, rel=1e-10)

    def test_residual_scales_linearly(self, family):
        base = schrodinger_residual(
            _EnergyShifted(family.eigenstate(0, 1), 0.5), GridSpec()
        )
        scaled_state = _Scaled(family.eigenstate(0, 1), 3.0)
        scaled_state.energy += 0.5  # keep the same wrong offset
        rep = schrodinger_residual(
            _EnergyShifted(scaled_state, 0.0), GridSpec()
        )
        assert rep.max_abs == pytest.approx(3.0 * base.max_abs, rel=1e-12)
        assert rep.max_rel == pytest.approx(base.max_rel, rel=1e-12)

    def test_worst_point_inside_grid(self, family):
        grid = GridSpec()
        rep = schrodinger_residual(family.eigenstate(1, 3), grid)
        assert grid.x_min <= rep.worst_point <= grid.x_max

    def test_reads_u_and_u2_from_one_jet(self, family, laguerre_calls):
        # L_3^a, L_2^{a+1} and L_1^{a+2} once each, and no separate value call
        schrodinger_residual(family.eigenstate(1, 3), GridSpec())
        assert laguerre_calls == {"laguerre_table": 3, "laguerre_values": 0}


class TestOdeResidual:
    def test_built_system_consistent(self, fig1):
        rep = ode_residual(fig1, np.linspace(0.2, 8.0, 400))
        assert rep.max_abs <= 1e-8

    def test_fpe_residual_cancels_exactly(self, family):
        # y = sigma makes sigma y'' - sigma'' y cancel term by term
        system = build_fpe(family, 0, 1, 1.0)
        rep = ode_residual(system, np.linspace(0.2, 8.0, 200))
        assert rep.max_abs <= 1e-13

    def test_perturbed_reaction_responds_linearly(self, family):
        base = build_case_a(family, 1.0, n=1, m=0)

        fields = {f.name: getattr(base, f.name)
                  for f in dataclasses.fields(CdrSystem)}

        class _Perturbed(CdrSystem):
            def reaction(self, z, y, sigma):
                return super().reaction(z, y, sigma) + 0.01 * self.y_state(z)

        system = _Perturbed(**fields)
        z = np.linspace(0.2, 8.0, 400)
        rep = ode_residual(system, z)
        expected = 0.01 * float(np.max(np.abs(base.y_state(z))))
        assert rep.max_abs == pytest.approx(expected, rel=1e-10)


def _per_level_analytic_terms(system, x, t):
    """Reference: the analytic PDE terms at one level, Python-float powers of t."""
    z = x / t ** system.alpha
    (y, y_d, y_dd), sig_jet = system.jets(z)
    sig, sig_d, sig_dd = sig_jet
    c = system.convection(z, sig_jet)
    c_d = system.convection(z, sig_jet, order=1)
    t_mu1 = t ** (system.mu - 1.0)
    return (
        t ** system.mu * y,
        t_mu1 * (system.mu * y - system.alpha * z * y_d),
        t_mu1 * (c_d * y + c * y_d),
        t_mu1 * (sig_dd * y + 2.0 * sig_d * y_d + sig * y_dd),
        t ** system.rho_exp * system.reaction(z, y, sig),
    )


def _per_level_fd_terms(system, x, t, fd_step):
    """Reference: the finite-difference PDE terms at one level."""
    h_t = fd_step if fd_step is not None else 1e-4 * max(1.0, abs(t))
    h_x = fd_step if fd_step is not None else 1e-4 * np.maximum(1.0, np.abs(x))
    p_t = {k: eval_fields(system, x, t + k * h_t)[0] for k in (-2, -1, 1, 2)}
    at_x = {k: eval_fields(system, x + k * h_x, t) for k in (-2, -1, 0, 1, 2)}
    cp = {k: c * p for k, (p, _, c, _) in at_x.items()}
    dp = {k: d * p for k, (p, d, _, _) in at_x.items()}
    return (
        at_x[0][0],
        (-p_t[2] + 8 * p_t[1] - 8 * p_t[-1] + p_t[-2]) / (12 * h_t),
        (-cp[2] + 8 * cp[1] - 8 * cp[-1] + cp[-2]) / (12 * h_x),
        (-dp[2] + 16 * dp[1] - 30 * dp[0] + 16 * dp[-1] - dp[-2]) / (12 * h_x * h_x),
        at_x[0][3],
    )


def _full_grid_report(terms, x, ts, mode):
    """Reference: the PDE report as one reduction over the whole (nt, nx)
    grid of terms, worst point by np.argmax in (t, x) order."""
    p, dt_p, dx_cp, dxx_dp, reac = terms
    residual = (dt_p + dx_cp - dxx_dp - reac).ravel()
    scale = np.maximum.reduce(
        [np.abs(p), np.abs(dx_cp), np.abs(dxx_dp), np.abs(reac)]).ravel()
    rel = np.abs(residual) / np.maximum(scale, 1e-30)
    idx = int(np.argmax(rel))
    j, i = divmod(idx, x.size)
    return ResidualReport(
        max_abs=float(np.max(np.abs(residual))),
        l2=float(np.sqrt(np.mean(residual ** 2))),
        max_rel=float(rel[idx]),
        worst_point=(float(x[i]), float(ts[j])),
        mode=mode,
    )


class TestPdeResidual:
    def test_case_a_analytic(self, family):
        system = build_case_a(family, 1.0, n=1, m=0)
        assert pde_residual(system, SMALL_GRID).max_rel <= 1e-8

    def test_fig1_analytic(self, fig1):
        assert pde_residual(fig1, SMALL_GRID).max_rel <= 1e-8

    def test_alt_reaction_exponent_fails_off_unit_time(
            self, fig1, alt_reaction_exponent):
        grid = GridSpec(x_min=0.5, x_max=4.0, nx=50, t_min=2.0, t_max=2.0, nt=2)
        rep = pde_residual(alt_reaction_exponent(fig1), grid)
        assert rep.max_rel >= 0.1

    def test_alt_reaction_exponent_passes_at_unit_time(
            self, fig1, alt_reaction_exponent):
        grid = GridSpec(x_min=0.5, x_max=4.0, nx=50, t_min=1.0, t_max=1.0, nt=2)
        rep = pde_residual(alt_reaction_exponent(fig1), grid)
        assert rep.max_rel <= 1e-8

    def test_alt_convection_profile_fails(self, fig1, alt_convection_profile):
        rep = pde_residual(alt_convection_profile(fig1), SMALL_GRID)
        assert rep.max_rel >= 0.1

    def test_fd_mode_converges_to_analytic_at_fourth_order(self, fig1):
        # the analytic residual is ~1e-15, so the FD-mode residual itself
        # measures the stencil error; each halving should shrink it ~16x
        grid = GridSpec(x_min=0.8, x_max=3.0, nx=12, t_min=0.8, t_max=1.6, nt=3)
        errs = []
        for h in (0.1, 0.05, 0.025):
            rep = pde_residual(fig1, grid, mode="finite-difference", fd_step=h)
            errs.append(rep.max_abs)
        assert errs[0] / errs[1] >= 12.0
        assert errs[1] / errs[2] >= 12.0

    def test_fd_mode_with_default_step_is_small(self, fig1):
        grid = GridSpec(x_min=0.8, x_max=3.0, nx=12, t_min=0.8, t_max=1.6, nt=3)
        rep = pde_residual(fig1, grid, mode="finite-difference")
        assert rep.mode == "finite-difference"
        assert rep.max_rel <= 1e-5

    def test_residual_linear_in_solution_scale(self, family,
                                               alt_reaction_exponent):
        base = build_case_b(family, 1.0, 3, 1, 1, 3, 1.0, 3.0)
        scaled = build_case_b(family, 1.0, 3, 1, 1, 3, 4.0, 3.0)
        # the alternate reaction exponent leaves a nonzero residual
        base, scaled = alt_reaction_exponent(base), alt_reaction_exponent(scaled)
        x = SMALL_GRID.x_points()
        for t in (0.5, 2.0):
            pb, dtb, cxb, dxb, rb = _analytic_terms(base, x, np.array([t]))
            ps, dts, cxs, dxs, rs = _analytic_terms(scaled, x, np.array([t]))
            res_b = dtb + cxb - dxb - rb
            res_s = dts + cxs - dxs - rs
            np.testing.assert_allclose(res_s, 4.0 * res_b, rtol=1e-12)

    def test_rejects_unknown_mode(self, fig1):
        with pytest.raises(ValueError):
            pde_residual(fig1, SMALL_GRID, mode="spectral")

    def test_worst_point_inside_grid(self, fig1):
        rep = pde_residual(fig1, SMALL_GRID)
        x, t = rep.worst_point
        assert SMALL_GRID.x_min <= x <= SMALL_GRID.x_max
        assert SMALL_GRID.t_min <= t <= SMALL_GRID.t_max

    def test_worst_point_is_the_largest_relative_residual(
            self, fig1, alt_reaction_exponent):
        alt = alt_reaction_exponent(fig1)
        grid = GridSpec(x_min=0.5, x_max=4.0, nx=50, t_min=0.5, t_max=2.0,
                        nt=7)
        x = grid.x_points()
        best = None
        for t in grid.t_points():
            p, dt_p, dx_cp, dxx_dp, reac = (
                term.ravel() for term in _analytic_terms(alt, x, np.array([t])))
            scale = np.maximum.reduce(
                [np.abs(p), np.abs(dx_cp), np.abs(dxx_dp), np.abs(reac)])
            rel = np.abs(dt_p + dx_cp - dxx_dp - reac) / np.maximum(scale, 1e-30)
            i = int(np.argmax(rel))
            if best is None or rel[i] > best[0]:
                best = (rel[i], (float(x[i]), float(t)))
        rep = pde_residual(alt, grid)
        assert (rep.max_rel, rep.worst_point) == best

    @pytest.mark.parametrize("nt", [5, 16, 37])
    def test_blocked_terms_bit_identical_to_per_level_reference(
            self, family, fig1, alt_reaction_exponent, alt_convection_profile,
            nt):
        # nt = 5, 16, 37: the grid ends inside, on and across block edges
        systems = [build_fpe(family, 1, 2, 0.8), build_case_a(family, 1.3, 2, 4),
                   fig1, alt_reaction_exponent(fig1), alt_convection_profile(fig1)]
        grid = GridSpec(x_min=0.3, x_max=5.0, nx=40, t_min=0.4, t_max=2.9, nt=nt)
        x, ts = grid.x_points(), grid.t_points()
        for system in systems:
            for mode, fd_step in (("analytic", None), ("finite-difference", None),
                                  ("finite-difference", 1e-3)):
                if mode == "analytic":
                    terms = _analytic_terms(system, x, ts)
                    levels = [_per_level_analytic_terms(system, x, t)
                              for t in ts.tolist()]
                else:
                    terms = _fd_terms(system, x, ts, fd_step)
                    levels = [_per_level_fd_terms(system, x, t, fd_step)
                              for t in ts.tolist()]
                ref = [np.array([level[k] for level in levels]) for k in range(5)]
                for got, want in zip(terms, ref):
                    assert got.shape == (nt, grid.nx)
                    assert np.array_equal(got, want)
                want = _full_grid_report(ref, x, ts, mode).as_dict()
                got = pde_residual(system, grid, mode=mode,
                                   fd_step=fd_step).as_dict()
                # l2 sums its squares per block: past one block the sum
                # may round differently from the whole-grid one
                if nt <= _kernels.LEVEL_BLOCK:
                    assert got == want
                else:
                    assert got["l2"] == pytest.approx(want["l2"], rel=1e-14)
                    got["l2"] = want["l2"]
                    assert got == want

    @pytest.mark.parametrize("plants", [
        [(3, 10, math.nan)],
        [(3, 10, math.inf)],
        [(3, 10, math.nan), (5, 2, math.inf)],
        [(3, 10, math.inf), (5, 2, math.nan)],
        [(3, 10, math.nan), (3, 12, math.nan)],
    ], ids=["nan", "inf", "nan-then-inf", "inf-then-nan", "two-nans"])
    def test_non_finite_in_a_middle_block_reported_as_on_the_full_grid(
            self, fig1, monkeypatch, plants):
        # nt = 40: blocks of 16, 16 and 8 levels; the plants go into the
        # second, as (level within the block, x index, value) of dt_p
        grid = GridSpec(x_min=0.5, x_max=4.0, nx=30, t_min=0.5, t_max=2.0,
                        nt=40)
        x, ts = grid.x_points(), grid.t_points()
        middle = _kernels.LEVEL_BLOCK

        def planted(system, xx, levels):
            terms = _analytic_terms(system, xx, levels)
            if levels[0] == ts[middle]:
                for j, i, value in plants:
                    terms[1][j, i] = value
            return terms

        full = _analytic_terms(fig1, x, ts)
        for j, i, value in plants:
            full[1][middle + j, i] = value
        want = _full_grid_report(full, x, ts, "analytic")
        monkeypatch.setattr(verify, "_analytic_terms", planted)
        got = pde_residual(fig1, grid)
        assert repr(got.as_dict()) == repr(want.as_dict())
        first = min((j, i) for j, i, _ in plants)
        if any(math.isnan(value) for _, _, value in plants):
            assert math.isnan(got.max_abs) and math.isnan(got.l2)
            assert math.isnan(got.max_rel)
            first = min((j, i) for j, i, value in plants if math.isnan(value))
        assert got.worst_point == (float(x[first[1]]), float(ts[middle + first[0]]))

    def test_tie_between_blocks_keeps_the_earlier_level(self, fig1,
                                                        monkeypatch):
        grid = GridSpec(x_min=0.5, x_max=4.0, nx=30, t_min=0.5, t_max=2.0,
                        nt=40)
        x, ts = grid.x_points(), grid.t_points()
        # normalized residual 0.5 at (x[7], ts[3]) and at (x[2], ts[20]),
        # in the first and second block; 0 everywhere else
        ties = ((3, 7), (20, 2))

        def synthetic(system, xx, levels):
            shape = (levels.size, xx.size)
            dt_p = np.zeros(shape)
            for level, i in ties:
                dt_p[levels == ts[level], i] = 0.5
            zero = np.zeros(shape)
            return np.ones(shape), dt_p, zero, zero, zero

        want = _full_grid_report(synthetic(fig1, x, ts), x, ts, "analytic")
        monkeypatch.setattr(verify, "_analytic_terms", synthetic)
        got = pde_residual(fig1, grid)
        assert got.as_dict() == want.as_dict()
        assert got.worst_point == (float(x[7]), float(ts[3]))
        assert got.max_rel == 0.5

    @pytest.mark.parametrize("mode, nt", [
        ("analytic", 200), ("analytic", 2000),
        ("finite-difference", 20), ("finite-difference", 200),
    ])
    def test_peak_memory_does_not_grow_with_nt(self, fig1, mode, nt):
        # one block of 16 levels at nx = 400 is 51 kB per array; a single
        # (nt, nx) float array at nt = 2000 is 6.4 MB
        grid = GridSpec(nx=400, nt=nt)
        tracemalloc.start()
        try:
            pde_residual(fig1, grid, mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_fd_mode_makes_nine_field_calls_per_block(self, fig1, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return eval_fields(*args)

        monkeypatch.setattr(verify, "eval_fields", counted)
        pde_residual(fig1, GridSpec(nx=400, nt=20), mode="finite-difference")
        assert len(calls) == 9 * math.ceil(20 / _kernels.LEVEL_BLOCK) == 18

    @pytest.mark.parametrize("fd_step", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_bad_fd_step(self, fig1, fd_step):
        with pytest.raises(ValueError, match="fd_step"):
            pde_residual(fig1, SMALL_GRID, mode="finite-difference",
                         fd_step=fd_step)


class TestOrthonormality:
    def test_gram_matrix_is_identity(self, family):
        gram = orthonormality_matrix(family, s=0, n_max=4)
        np.testing.assert_allclose(gram, np.eye(5), rtol=0, atol=1e-8)

    def test_gram_matrix_symmetric(self, family):
        gram = orthonormality_matrix(family, s=1, n_max=3)
        assert np.max(np.abs(gram - gram.T)) <= 1e-12

    def test_rejects_large_n_max(self, family):
        with pytest.raises(ValueError):
            orthonormality_matrix(family, s=0, n_max=9)

    def test_rejects_negative_n_max(self, family):
        with pytest.raises(ValueError, match="n_max"):
            orthonormality_matrix(family, s=0, n_max=-1)

    def test_n_max_zero_is_the_norm_of_the_ground_state(self, family):
        gram = orthonormality_matrix(family, s=2, n_max=0)
        assert gram.shape == (1, 1)
        assert abs(gram[0, 0] - 1.0) <= 1e-8

    @staticmethod
    def _per_entry_gram(family, s, n_max):
        """Each entry's quadrature evaluating both states itself."""
        cut = gaussian_tail_cutoff(family.omega, safety=1.35)
        states = [family.eigenstate(s, n) for n in range(n_max + 1)]
        return np.array([[integrate(lambda xx: states[m](xx) * states[n](xx),
                                    0.0, cut, 1e-10)
                          for n in range(n_max + 1)]
                         for m in range(n_max + 1)])

    @pytest.mark.parametrize("s", [0, 3])
    def test_bit_identical_to_per_entry_evaluation(self, family, s):
        # Same omega, so both calls integrate over the same node arrays:
        # state values kept from the first call would spoil the second.
        other = RadialOscillatorFamily(OscillatorParams(1.0, 2.5))
        grams = [orthonormality_matrix(fam, s, n_max=8)
                 for fam in (family, other)]
        for fam, gram in zip((family, other), grams):
            assert np.array_equal(gram, self._per_entry_gram(fam, s, 8))

    def test_one_quadrature_per_entry_and_shared_state_values(self,
                                                              monkeypatch):
        counts = {"integrate": 0, "state": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(verify, "integrate",
                            counted("integrate", verify.integrate))
        monkeypatch.setattr(
            quantum.RadialOscillatorFamily, "eigenstate_values",
            counted("state", quantum.RadialOscillatorFamily.eigenstate_values))
        family = RadialOscillatorFamily(OscillatorParams(1.1, 1.2))
        orthonormality_matrix(family, s=0, n_max=8)
        assert counts["integrate"] == 81
        # all nine states evaluated once per distinct node array: the cut's
        # point, the tail check's three points, the whole interval and its
        # two halves
        assert counts["state"] == 5

    @pytest.mark.parametrize(
        "omega, ell, s",
        [(1.0, 1.0, 0), (0.3, 4.0, 1)]
        + [(omega, ell, s) for omega in (0.3, 3.0) for ell in (0.5, 4.0)
           for s in (0, 3)])
    def test_matches_gauss_laguerre_gram(self, omega, ell, s):
        # In q = omega x^2 / 2, u_m u_n dx = c_m c_n q^a e^-q L_m^a L_n^a dq
        # with a = ell + s + 1/2 and c_n^2 = n! / Gamma(n + a + 1): a rule
        # with n_max + 2 nodes is exact for every entry.
        n_max = 8
        a = ell + s + 0.5
        nodes, weights = roots_genlaguerre(n_max + 2, a)
        ns = np.arange(n_max + 1)
        coef = np.exp(0.5 * (gammaln(ns + 1.0) - gammaln(ns + a + 1.0)))
        lag = coef[:, None] * np.array([eval_genlaguerre(n, a, nodes)
                                        for n in ns])
        exact = (lag * weights) @ lag.T
        family = RadialOscillatorFamily(OscillatorParams(omega, ell))
        gram = orthonormality_matrix(family, s, n_max)
        assert np.max(np.abs(gram - exact)) <= 1e-13

    @pytest.mark.parametrize("omega, ell, n_max", [(4.0, 285.0, 4),
                                                   (1.0, 300.0, 4),
                                                   (4.0, 300.0, 8)])
    def test_cut_follows_the_states_at_large_ell(self, omega, ell, n_max):
        # At (4, 285) the states peak near x = 12, beyond the fixed Gaussian
        # cut at x = 8.2. At (4, 300) with n_max = 8, L_n^a keeps growing
        # well past that peak, so the cut must step out from there.
        family = RadialOscillatorFamily(OscillatorParams(omega, ell))
        gram = orthonormality_matrix(family, 0, n_max=n_max)
        assert np.max(np.abs(gram - np.eye(n_max + 1))) <= 1e-10


class TestNodeCount:
    def test_examples(self, family):
        assert node_count(family.eigenstate(0, 0), (DEFAULT_X_MIN, 10.0)) == 0
        assert node_count(family.eigenstate(0, 3), (DEFAULT_X_MIN, 10.0)) == 3
        assert node_count(family.eigenstate(3, 1), (DEFAULT_X_MIN, 12.0)) == 1

    @pytest.mark.parametrize("n", range(6))
    def test_matches_level_index(self, family, n):
        assert node_count(family.eigenstate(0, n), (DEFAULT_X_MIN, 12.0)) == n

    def test_invariant_under_positive_scaling(self, family):
        u = family.eigenstate(0, 4)
        scaled = lambda x: 7.5 * u(x)
        assert node_count(scaled, (DEFAULT_X_MIN, 10.0)) == 4

    def test_zeros_on_sample_points_count_once(self):
        # samples 0.5, 1.0, ..., 3.5 hit all three roots exactly
        cubic = lambda x: (x - 1.0) * (x - 2.0) * (x - 3.0)
        assert node_count(cubic, (0.5, 3.5), samples=7) == 3

    def test_underflowed_samples_are_no_nodes(self):
        # At ell = 300 the state underflows to 0 below x = 1.3, where its
        # true values lie below the smallest float, and stays finite
        # everywhere; L_2^(300.5) has its roots at x = 23.9 and 25.3.
        u = RadialOscillatorFamily(OscillatorParams(1.0, 300.0)).eigenstate(0, 2)
        assert np.all(np.isfinite(u(np.linspace(DEFAULT_X_MIN, 30.0, 4096))))
        cut = gaussian_tail_cutoff(1.0, safety=1.35)
        assert node_count(u, (DEFAULT_X_MIN, 30.0)) == 2
        assert node_count(u, (DEFAULT_X_MIN, cut)) == 0

    def test_interval_validation(self, family):
        with pytest.raises(ValueError):
            node_count(family.eigenstate(0, 0), (0.0, 5.0))
        with pytest.raises(ValueError):
            node_count(family.eigenstate(0, 0), (3.0, 2.0))


_SWEEP_GRID = GridSpec(x_min=0.2, x_max=6.0, nx=60, t_min=0.5, t_max=2.0,
                       nt=3)
_COEFF = st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2))


@st.composite
def _case_b_systems(draw):
    family = RadialOscillatorFamily(OscillatorParams(
        draw(st.floats(0.3, 3.0)), draw(st.floats(0.5, 4.0))))
    n, s = draw(st.integers(0, 12)), draw(st.integers(0, 3))
    # n' = n + s - s' must stay in [0, 12]
    s_prime = draw(st.integers(max(0, n + s - 12), min(3, n + s)))
    return build_case_b(family, draw(st.floats(0.2, 2.0)), n, s,
                        n + s - s_prime, s_prime, draw(_COEFF), draw(_COEFF))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_case_b_systems())
def test_case_b_sweep_residuals_and_swap(system):
    assert ode_residual(system, _SWEEP_GRID.x_points()).max_rel <= 1e-8
    assert pde_residual(system, _SWEEP_GRID).max_rel <= 1e-8
    x = _SWEEP_GRID.x_points()
    swapped = swap(system)
    for t in _SWEEP_GRID.t_points():
        r = eval_fields(system, x, t)[3]
        r_swapped = eval_fields(swapped, x, t)[3]
        assert np.max(np.abs(r + r_swapped)) <= 1e-14 * np.max(np.abs(r))
    # D = B u_sigma at t = 1: positive up to x_hi and, when a node cuts the
    # range, negative just past that first node x_hi / 0.95
    if system.coeff_b < 0.0:
        with pytest.raises(ValueError, match=re.escape(f"(B = {system.coeff_b:g})")):
            positive_diffusion_x_max(system, 8.0)
        return
    x_hi = positive_diffusion_x_max(system, 8.0)
    assert np.all(eval_fields(system, np.linspace(x_hi / 400, x_hi, 400), 1.0, "D")[0] > 0.0)
    if x_hi < 8.0:
        assert eval_fields(system, x_hi / 0.95 * (1.0 + 1e-9), 1.0, "D")[0] < 0.0


class TestPositiveDiffusionXMax:
    def test_nodeless_diffusion_keeps_full_range(self, family):
        system = build_fpe(family, 0, 0, 1.0)
        assert positive_diffusion_x_max(system, 8.0) == 8.0

    def test_noded_diffusion_truncates_before_first_zero(self, fig1):
        # diffusion profile u_1 of member 3 vanishes at z = sqrt(11)
        x_hi = positive_diffusion_x_max(fig1, 8.0)
        assert x_hi == 0.95 * math.sqrt(11.0)
        zs = np.linspace(1e-3, x_hi, 500)
        assert np.all(eval_fields(fig1, zs, 1.0, "D")[0] > 0.0)

    @pytest.mark.parametrize("build", [
        lambda family: build_fpe(family, 0, 1, 1.0),
        lambda family: build_case_a(family, 1.0, n=0, m=1),
    ], ids=["fpe", "case_a"])
    def test_node_on_a_scan_sample_truncates(self, build):
        # at (omega, ell) = (1, 0.5) the diffusion state u_1 vanishes at
        # z = 2, which sample 1023 of a 4096-point scan up to z = 8 hits
        # exactly, so a sign-change scan sees no node there
        system = build(RadialOscillatorFamily(OscillatorParams(1.0, 0.5)))
        assert positive_diffusion_x_max(system, 8.0) == 1.9

    # the ids keep the (t_min, x_max, name) form from before t_min was fixed at 1
    @pytest.mark.parametrize("x_max", [-1.0, 0.0, math.nan, math.inf],
                             ids=lambda x_max: f"1.0-{x_max}-x_max")
    def test_rejects_bad_arguments(self, fig1, x_max):
        with pytest.raises(ValueError, match="x_max"):
            positive_diffusion_x_max(fig1, x_max)

    def test_negative_diffusion_near_origin_rejected(self, fig1):
        # D = B u_sigma with u_sigma > 0 next to x = 0: B < 0 leaves no x
        # with D > 0 below the first node
        flipped = dataclasses.replace(fig1, coeff_b=-3.0)
        assert np.all(eval_fields(flipped, np.linspace(1e-3, 3.0, 100), 1.0, "D")[0] < 0.0)
        with pytest.raises(ValueError, match=r"\(B = -3\)"):
            positive_diffusion_x_max(flipped, 8.0)


def _systems(family):
    return {
        "fpe": build_fpe(family, 1, 2, 0.8),
        "case_a": build_case_a(family, 1.2, n=3, m=1),
        "case_b": build_case_b(family, 1.0, n=3, s=1, n_prime=1, s_prime=3,
                               coeff_a=1.5, coeff_b=2.5),
    }


@pytest.mark.parametrize("case", ["fpe", "case_a", "case_b"])
def test_broadcast_fields_equal_single_level_calls(family, case):
    system = _systems(family)[case]
    x = np.linspace(0.2, 6.0, 73)
    t = 1.0 + 0.03 * np.arange(21)
    stacked = [eval_fields(system, x, float(tt)) for tt in t]
    for k, field in enumerate(eval_fields(system, x[None, :], t[:, None])):
        assert np.array_equal(field, np.stack([f[k] for f in stacked]))


def _per_level_evolve(system, x, t0, t1, nt):
    """CN solution and L2 error with one eval_fields call per time level."""
    dt = (t1 - t0) / nt
    levels = [eval_fields(system, x, float(t0 + dt * j)) for j in range(nt + 1)]
    r_half = np.array([eval_fields(system, x, float(t0 + dt * (j + 0.5)))[3]
                       for j in range(nt)])
    p_num = _kernels.cn_evolve(
        eval_fields(system, x, t0)[0],
        np.array([f[1] for f in levels]), np.array([f[2] for f in levels]),
        r_half, np.array([f[0][0] for f in levels]),
        np.array([f[0][-1] for f in levels]), dt, x[1] - x[0],
    )
    p_exact = eval_fields(system, x, t1)[0]
    return p_num, float(np.sqrt((x[1] - x[0]) * np.sum((p_num - p_exact) ** 2)))


class TestEvolveOracle:
    # below the assembly block size, equal to it, and not a multiple of it
    @pytest.mark.parametrize("nt", [5, 16, 37])
    def test_blocked_assembly_matches_per_level_reference(self, fig1, nt):
        x_hi = positive_diffusion_x_max(fig1, 8.0)
        grid = GridSpec(x_min=0.2, x_max=x_hi, nx=40, t_min=1.0, t_max=2.0,
                        nt=nt)
        rep = evolve_oracle(fig1, grid, refinements=2)
        for level, (nx, steps, err) in enumerate(rep.entries):
            assert (nx, steps) == (40 * 2 ** level, nt * 2 ** level)
            x = np.linspace(0.2, x_hi, nx)
            p_num, blocked_err = _evolve_single(fig1, x, 1.0, 2.0, steps)
            ref_p, ref_err = _per_level_evolve(fig1, x, 1.0, 2.0, steps)
            assert np.array_equal(p_num, ref_p)
            assert blocked_err == ref_err == err

    def test_no_evolution_rejected(self, family):
        system = build_fpe(family, 0, 0, 1.0)
        grid = GridSpec(nx=50, t_min=1.0, t_max=1.0, nt=10)
        with pytest.raises(ValueError, match="t_min < t_max"):
            evolve_oracle(system, grid)

    @pytest.mark.parametrize("refinements", [0, -1])
    def test_no_refinement_rejected(self, family, refinements):
        system = build_fpe(family, 0, 0, 1.0)
        grid = GridSpec(nx=50, t_min=1.0, t_max=2.0, nt=10)
        with pytest.raises(ValueError, match="refinements must be >= 1"):
            evolve_oracle(system, grid, refinements=refinements)

    def test_fpe_second_order(self, family):
        system = build_fpe(family, 0, 0, 1.0)
        grid = GridSpec(x_min=0.2, x_max=8.0, nx=100, t_min=1.0, t_max=2.0,
                        nt=50)
        rep = evolve_oracle(system, grid, refinements=3)
        errs = [entry[2] for entry in rep.entries]
        assert errs[0] > errs[1] > errs[2]
        assert len(rep.ratios) == 2
        for ratio in rep.ratios:
            assert 1.7 <= math.log2(ratio) <= 2.3

    def test_fig1_second_order_on_parabolic_domain(self, fig1):
        x_hi = positive_diffusion_x_max(fig1, 8.0)
        grid = GridSpec(x_min=0.2, x_max=x_hi, nx=100, t_min=1.0, t_max=2.0,
                        nt=50)
        rep = evolve_oracle(fig1, grid, refinements=2)
        assert rep.ratios == (rep.entries[0][2] / rep.entries[1][2],)
        assert 3.5 <= rep.ratios[0] <= 4.5

    @pytest.mark.parametrize("double", ["alt_reaction_exponent",
                                        "alt_convection_profile"])
    def test_inconsistent_system_loses_second_order(self, fig1, double, request):
        # The CN solution of the double's own D, C and R does not converge
        # to its P: the error ratio stays near 1 (measured 1.00015 for both),
        # where the exact system gives 4.017 on this grid.
        wrong = request.getfixturevalue(double)(fig1)
        window = verify.evolve_window(fig1, GridSpec(x_min=0.2, x_max=8.0))
        rep = evolve_oracle(wrong, window)
        low, high = (DEFAULT_CONFIG["tolerances"][key]
                     for key in ("evolve_ratio_lo", "evolve_ratio_hi"))
        assert not low <= rep.ratios[0] <= high

    def test_error_decreases_monotonically_for_all_systems(self, family, fig1):
        systems = [
            build_fpe(family, 0, 0, 1.0),
            build_case_a(family, 1.0, n=1, m=0),
            build_case_a(family, 1.0, n=0, m=1),
            build_case_a(family, 1.0, n=3, m=2),
            fig1,
            build_case_b(family, 1.0, 1, 3, 3, 1, 3.0, 1.0),
        ]
        for system in systems:
            x_hi = positive_diffusion_x_max(system, 8.0)
            grid = GridSpec(x_min=0.2, x_max=x_hi, nx=80, t_min=1.0,
                            t_max=2.0, nt=40)
            rep = evolve_oracle(system, grid, refinements=3)
            errs = [entry[2] for entry in rep.entries]
            assert errs[0] > errs[1] > errs[2]

    def test_backward_diffusion_reported_as_instability(self, fig1):
        # beyond the diffusion node the problem is backward-parabolic;
        # the stepper must fail loudly, not return garbage
        grid = GridSpec(x_min=0.2, x_max=8.0, nx=100, t_min=1.0, t_max=2.0,
                        nt=50)
        with pytest.raises(RuntimeError, match="diverged"):
            evolve_oracle(fig1, grid, refinements=1)

    @pytest.mark.parametrize("ell", [500.0, 1000.0])
    def test_state_outside_the_window_rejected(self, ell):
        # The states peak near x = 32 and 45. On the window P is below 1e-195
        # (ell = 500: its square underflows) or exactly 0 (ell = 1000), so
        # both errors would be 0 and their ratio 0 / 0.
        family = RadialOscillatorFamily(OscillatorParams(1.0, ell))
        grid = GridSpec(x_min=0.2, x_max=8.0, nx=50, t_min=1.0, t_max=2.0,
                        nt=10)
        with pytest.raises(ValueError, match="time-stepper error is 0"):
            evolve_oracle(build_fpe(family, 0, 2, 1.0), grid)

    def test_time_order_validation(self):
        # the oracle's window is its grid's, which cannot run backward
        with pytest.raises(ValueError, match="t_min <= t_max"):
            GridSpec(t_min=2.0, t_max=1.0)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=0.0)
        with pytest.raises(ValueError):
            GridSpec(x_min=5.0, x_max=1.0)
        with pytest.raises(ValueError):
            GridSpec(t_min=0.0)
        with pytest.raises(ValueError):
            GridSpec(nx=4)
        with pytest.raises(ValueError):
            GridSpec(nt=1)
        with pytest.raises(ValueError, match="nx \\* nt"):
            GridSpec(nx=10 ** 9)
        with pytest.raises(ValueError, match="nx \\* nt"):
            GridSpec(nx=5001, nt=200)
        GridSpec(nx=5000, nt=200)  # 10**6 points, the largest grid accepted

    def test_points(self):
        grid = GridSpec(x_min=1.0, x_max=2.0, nx=11, t_min=1.0, t_max=3.0, nt=3)
        assert grid.x_points()[0] == 1.0
        assert grid.x_points()[-1] == 2.0
        np.testing.assert_allclose(grid.t_points(), [1.0, 2.0, 3.0])
