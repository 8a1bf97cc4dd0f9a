"""System construction and field evaluation tests."""

import dataclasses
import itertools

import numpy as np
import pytest

from susycdr.cdr import (CaseTag, build_case_a, build_case_b, build_fpe,
                         eval_fields, swap)
from susycdr.quantum import (Eigenstate, OscillatorParams,
                             RadialOscillatorFamily)
from susycdr.verify import GridSpec, ode_residual, pde_residual

XS = np.linspace(0.4, 5.0, 40)
TS = (0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def family():
    return RadialOscillatorFamily(OscillatorParams(1.0, 1.0))


@pytest.fixture(scope="module")
def fig1(family):
    return build_case_b(family, 1.0, n=3, s=1, n_prime=1, s_prime=3,
                        coeff_a=1.0, coeff_b=3.0)


class TestBuildFpe:
    def test_reaction_vanishes_everywhere(self, family):
        system = build_fpe(family, 0, 1, 1.0)
        for t in TS:
            assert np.all(eval_fields(system, XS, t)[3] == 0.0)

    def test_solution_and_diffusion_share_profile(self, family):
        # same profile, different time exponents: D t^mu == P t^delta
        system = build_fpe(family, 1, 2, 0.75)
        for t in TS:
            p, d, _, _ = eval_fields(system, XS, t)
            np.testing.assert_allclose(
                d * t ** system.mu, p * t ** system.delta, rtol=1e-13
            )

    @pytest.mark.parametrize("alpha,exponents", [
        (1.0, (0.0, 1.0, -1.0, -2.0)),
        (0.0, (-1.0, -1.0, 0.0, -1.0)),
        (0.5, (-0.5, 0.0, -0.5, -1.5)),
    ], ids=["1.0", "0.0", "0.5"])
    def test_exponents_follow_alpha(self, family, alpha, exponents):
        # the class mu = -alpha; scale invariance fixes the rest
        system = build_fpe(family, 0, 1, alpha)
        assert (system.gamma, system.delta, system.mu,
                system.rho_exp) == exponents

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_alpha(self, family, alpha):
        with pytest.raises(ValueError, match="alpha"):
            build_fpe(family, 0, 1, alpha)
        with pytest.raises(ValueError, match="alpha"):
            dataclasses.replace(build_fpe(family, 0, 1, 1.0), alpha=alpha)

    def test_pde_residual_small(self, family):
        system = build_fpe(family, 0, 2, 1.0)
        grid = GridSpec(x_min=0.5, x_max=4.0, nx=60, t_min=0.5, t_max=2.0, nt=4)
        assert pde_residual(system, grid).max_rel <= 1e-8


class TestBuildCaseA:
    def test_equal_levels_reduce_to_fpe(self, family):
        system = build_case_a(family, 1.0, n=2, m=2)
        assert system.delta_e == 0.0
        for t in TS:
            assert np.all(eval_fields(system, XS, t)[3] == 0.0)

    def test_diffusion_value_at_unit_time(self, family):
        # t = 1 makes the scale factor unity, so D(1,1) = u_0(1)
        system = build_case_a(family, 1.0, n=1, m=0)
        d = eval_fields(system, 1.0, 1.0)[1]
        assert d == pytest.approx(float(family.eigenstate(0, 0)(1.0)), abs=1e-14)

    def test_fields_at_unit_point(self, family):
        system = build_case_a(family, 1.0, n=1, m=0)
        u0 = family.eigenstate(0, 0)
        u1 = family.eigenstate(0, 1)
        p, d, c, r = eval_fields(system, 1.0, 1.0)
        assert p == pytest.approx(float(u1(1.0)), abs=1e-14)
        assert d == pytest.approx(float(u0(1.0)), abs=1e-14)
        assert c == pytest.approx(float(2.0 * u0.deriv(1.0) + 1.0), abs=1e-14)
        # delta_e = E_0 - E_1 = -2, so the reaction profile is +2 u_0 u_1
        assert r == pytest.approx(float(2.0 * u0(1.0) * u1(1.0)), abs=1e-14)

    def test_interchange_gives_another_solvable_system(self, family):
        grid = GridSpec(x_min=0.5, x_max=4.0, nx=60, t_min=0.5, t_max=2.0, nt=4)
        system = build_case_a(family, 1.0, n=1, m=0)
        assert pde_residual(system, grid).max_rel <= 1e-8
        assert pde_residual(swap(system), grid).max_rel <= 1e-8


class TestBuildCaseB:
    def test_fig1_parameters_build(self, fig1):
        assert fig1.case_tag is CaseTag.CASE_B
        assert fig1.y_state.energy == fig1.sigma_state.energy == 8.0

    def test_constraint_violation_rejected(self, family):
        with pytest.raises(ValueError, match="constraint"):
            build_case_b(family, 1.0, n=2, s=1, n_prime=1, s_prime=1)

    def test_constraint_guard_exhaustive(self, family):
        for n, s, n_p, s_p in itertools.product(range(5), repeat=4):
            if n + s == n_p + s_p:
                build_case_b(family, 1.0, n, s, n_p, s_p)
            else:
                with pytest.raises(ValueError):
                    build_case_b(family, 1.0, n, s, n_p, s_p)

    def test_identical_members_have_zero_reaction(self, family):
        system = build_case_b(family, 1.0, n=2, s=1, n_prime=2, s_prime=1)
        for t in TS:
            r = eval_fields(system, XS, t)[3]
            assert np.max(np.abs(r)) <= 1e-14

    def test_zero_coefficients_rejected(self, family):
        with pytest.raises(ValueError):
            build_case_b(family, 1.0, 1, 1, 1, 1, coeff_a=0.0)


class TestEvalFields:
    def test_rejects_bad_domain(self, fig1):
        with pytest.raises(ValueError):
            eval_fields(fig1, -1.0, 1.0)
        with pytest.raises(ValueError):
            eval_fields(fig1, 1.0, 0.0)

    @pytest.mark.parametrize("t", [0.0, -2.0, np.array([[1.0], [-0.5]])],
                             ids=["0.0", "-2.0", "levels"])
    def test_rejects_nonpositive_t(self, fig1, t):
        with pytest.raises(ValueError, match="t > 0"):
            eval_fields(fig1, XS, t)

    def test_peak_memory_does_not_grow_with_the_degree(self, family,
                                                      peak_growth_check):
        # the Laguerre recurrence streams its degrees; a table of them all
        # held 12.8 kB per degree on these 400 x 4 points
        x = np.linspace(0.2, 8.0, 400)
        t = np.linspace(0.5, 2.5, 4)[:, None]
        peak_growth_check(
            lambda n: eval_fields(build_fpe(family, 1, n, 0.8), x, t),
            50, 400, 1_000_000)

    @staticmethod
    def _similarity_variable(monkeypatch, system, x, t):
        """The z at which a P-only call evaluates the solution state."""
        seen = []
        state_call = Eigenstate.__call__

        def spy(state, z):
            seen.append(z)
            return state_call(state, z)

        with monkeypatch.context() as patch:
            patch.setattr(Eigenstate, "__call__", spy)
            eval_fields(system, x, t, "P")
        (z,) = seen
        return z

    @pytest.mark.parametrize("x,t,alpha,z", [(2.0, 4.0, 0.5, 1.0),
                                             (3.0, 1.0, 0.77, 3.0),
                                             (3.0, 8.0, 1.0 / 3.0, 1.5)],
                             ids=["z=1", "t=1", "z=1.5"])
    def test_similarity_variable(self, monkeypatch, fig1, x, t, alpha, z):
        system = dataclasses.replace(fig1, alpha=alpha)
        got = self._similarity_variable(monkeypatch, system, x, t)
        assert got == pytest.approx(z)

    def test_similarity_variable_round_trip(self, monkeypatch, fig1):
        rng = np.random.default_rng(42)
        for _ in range(50):
            z = rng.uniform(0.1, 10.0)
            t = rng.uniform(0.1, 10.0)
            system = dataclasses.replace(fig1, alpha=rng.uniform(-2.0, 2.0))
            back = self._similarity_variable(
                monkeypatch, system, z * t ** system.alpha, t)
            assert abs(back - z) <= 1e-14 * abs(z)

    def test_scale_covariance(self, fig1):
        eps = 1.7
        p0, d0, c0, r0 = eval_fields(fig1, XS, 1.3)
        p1, d1, c1, r1 = eval_fields(fig1, eps * XS, eps * 1.3)
        np.testing.assert_allclose(p1, eps ** fig1.mu * p0, rtol=1e-12)
        np.testing.assert_allclose(d1, eps ** fig1.delta * d0, rtol=1e-12)
        np.testing.assert_allclose(c1, eps ** fig1.gamma * c0, rtol=1e-12)
        np.testing.assert_allclose(r1, eps ** fig1.rho_exp * r0, rtol=1e-12)

    def test_alt_forms_coincide_with_exact_at_unit_time(
            self, fig1, alt_reaction_exponent):
        # the reaction-exponent alternate differs only through the power
        # of t, so at t = 1 it must agree exactly
        exact = eval_fields(fig1, XS, 1.0)[3]
        alt = eval_fields(alt_reaction_exponent(fig1), XS, 1.0)[3]
        np.testing.assert_array_equal(exact, alt)

    def test_alt_reaction_differs_away_from_unit_time(
            self, fig1, alt_reaction_exponent):
        exact = eval_fields(fig1, XS, 2.0)[3]
        alt = eval_fields(alt_reaction_exponent(fig1), XS, 2.0)[3]
        assert np.max(np.abs(exact - alt)) > 0.01

    def test_linearity_in_a(self, family, fig1):
        scaled = build_case_b(family, 1.0, 3, 1, 1, 3, coeff_a=2.5, coeff_b=3.0)
        for t in TS:
            p0, d0, c0, r0 = eval_fields(fig1, XS, t)
            p1, d1, c1, r1 = eval_fields(scaled, XS, t)
            np.testing.assert_allclose(p1, 2.5 * p0, rtol=1e-13)
            np.testing.assert_allclose(r1, 2.5 * r0, rtol=1e-13)
            np.testing.assert_array_equal(d1, d0)
            np.testing.assert_array_equal(c1, c0)

    def test_linearity_in_b(self, family, fig1):
        scaled = build_case_b(family, 1.0, 3, 1, 1, 3, coeff_a=1.0, coeff_b=6.0)
        alpha = 1.0
        for t in TS:
            p0, d0, c0, r0 = eval_fields(fig1, XS, t)
            p1, d1, c1, r1 = eval_fields(scaled, XS, t)
            np.testing.assert_allclose(d1, 2.0 * d0, rtol=1e-13)
            np.testing.assert_allclose(r1, 2.0 * r0, rtol=1e-13)
            np.testing.assert_array_equal(p1, p0)
            # C minus the alpha*z*t^(alpha-1) drift part scales with B;
            # atol floor absorbs the cancellation in forming c - drift
            z = XS / t ** alpha
            drift = t ** (alpha - 1.0) * alpha * z
            np.testing.assert_allclose(c1 - drift, 2.0 * (c0 - drift),
                                       rtol=1e-9, atol=1e-12)


def _selection_systems(family):
    return {
        "fpe": build_fpe(family, 1, 2, 0.8),
        "case_a": build_case_a(family, 1.2, n=3, m=1),
        "case_b": build_case_b(family, 1.0, n=3, s=1, n_prime=1, s_prime=3,
                               coeff_a=1.5, coeff_b=2.5),
    }


class TestFieldSelection:
    X = np.linspace(0.2, 6.0, 73)
    LEVELS = 1.0 + 0.025 * np.arange(38)  # nt + 1 levels for nt = 37

    @pytest.mark.parametrize("case", ["fpe", "case_a", "case_b"])
    @pytest.mark.parametrize("fields", ["P", "DC", "R", "PDC", "PDCR"])
    def test_selection_equals_full_call(self, family, case, fields):
        system = _selection_systems(family)[case]
        x, levels = self.X, self.LEVELS
        for args in ((x, 1.3),                                # scalar t
                     (x[None, :], levels[:16, None]),         # (16, nx) block
                     (x[None, [0, -1]], levels[:, None])):    # (nt + 1, 2)
            full = dict(zip("PDCR", eval_fields(system, *args)))
            got = eval_fields(system, *args, fields)
            assert len(got) == len(fields)
            for name, field in zip(fields, got):
                assert np.array_equal(field, full[name]), (args, name)

    @pytest.mark.parametrize("case", ["fpe", "case_a", "case_b"])
    def test_boundary_columns_equal_full_grid_columns(self, family, case):
        system = _selection_systems(family)[case]
        x, levels = self.X, self.LEVELS[:, None]
        cols = eval_fields(system, x[None, [0, -1]], levels, "P")[0]
        assert np.array_equal(cols, eval_fields(system, x[None, :], levels)[0][:, [0, -1]])

    def test_fpe_reaction_evaluates_no_profile(self, family, monkeypatch):
        system = _selection_systems(family)["fpe"]
        args = (self.X[None, :], self.LEVELS[:16, None])
        full = eval_fields(system, *args)[3]
        points = []
        state_call = Eigenstate.__call__

        def counted(state, x):
            points.append(np.size(x))
            return state_call(state, x)

        monkeypatch.setattr(Eigenstate, "__call__", counted)
        (reaction,) = eval_fields(system, *args, "R")
        assert sum(points) == 0
        assert np.array_equal(reaction, full)

    @pytest.mark.parametrize("case", ["fpe", "case_a", "case_b"])
    def test_convection_takes_sigma_from_one_jet(self, family, case, monkeypatch):
        system = _selection_systems(family)[case]
        states = []
        state_call = Eigenstate.__call__

        def counted(state, x):
            states.append(state)
            return state_call(state, x)

        monkeypatch.setattr(Eigenstate, "__call__", counted)
        eval_fields(system, self.X[None, :], self.LEVELS[:16, None], "DC")
        assert not any(state is system.sigma_state for state in states)

    def test_convection_jet_skips_second_derivative(self, family, laguerre_calls):
        # sigma = u_2 of the fpe system: L_2^a and L_1^{a+1}, no L_0^{a+2}
        system = _selection_systems(family)["fpe"]
        eval_fields(system, self.X[None, :], self.LEVELS[:16, None], "DC")
        assert laguerre_calls == {"laguerre_table": 2, "laguerre_values": 0}

    def test_fpe_evaluates_its_one_state_once(self, family, laguerre_calls):
        # y_state is sigma_state: P reuses the u of sigma's first-order jet
        # (L_2^a and L_1^{a+1}), which equals the state's value bit for bit
        system = _selection_systems(family)["fpe"]
        x, t = self.X[None, :], self.LEVELS[:16, None]
        p = eval_fields(system, x, t, "PDCR")[0]
        assert laguerre_calls == {"laguerre_table": 2, "laguerre_values": 0}
        z = x / t ** system.alpha
        u = system.y_state(z)
        assert np.array_equal(p, t ** system.mu * (system.coeff_a * u))

    @pytest.mark.parametrize("fields", ["", "X", "RP", "PP", "pd"])
    def test_bad_selection_rejected(self, fig1, fields):
        with pytest.raises(ValueError, match="fields"):
            eval_fields(fig1, XS, 1.0, fields)


class TestJets:
    def test_one_recurrence_per_laguerre_shift(self, fig1, laguerre_calls):
        # L_3^a, L_2^{a+1} and L_1^{a+2} for the solution state (n = 3);
        # L_1^a and L_0^{a+1} for the diffusion state (n' = 1)
        fig1.jets(np.linspace(0.2, 8.0, 400))
        assert laguerre_calls == {"laguerre_table": 5, "laguerre_values": 0}

    def test_fpe_evaluates_its_one_state_once(self, family, laguerre_calls):
        # y_state is sigma_state: L_2^a, L_1^{a+1} and L_0^{a+2} once
        system = _selection_systems(family)["fpe"]
        y_jet, sig_jet = system.jets(np.linspace(0.2, 8.0, 400))
        assert laguerre_calls == {"laguerre_table": 3, "laguerre_values": 0}
        for y_d, sig_d in zip(y_jet, sig_jet):
            assert np.array_equal(y_d, sig_d)


class TestSwap:
    def test_involution(self, fig1):
        back = swap(swap(fig1))
        for t in TS:
            for a, b in zip(eval_fields(fig1, XS, t), eval_fields(back, XS, t)):
                np.testing.assert_array_equal(a, b)

    def test_reaction_antisymmetry(self, fig1):
        swapped = swap(fig1)
        for t in TS:
            r0 = eval_fields(fig1, XS, t)[3]
            r1 = eval_fields(swapped, XS, t)[3]
            assert np.max(np.abs(r0 + r1)) <= 1e-12 * np.max(np.abs(r0))

    def test_solution_takes_over_diffusion_profile(self, fig1):
        swapped = swap(fig1)
        for t in TS:
            p_swap = eval_fields(swapped, XS, t)[0]
            d_orig = eval_fields(fig1, XS, t)[1]
            np.testing.assert_allclose(
                p_swap * t ** fig1.alpha, d_orig * t ** (1.0 - 2.0 * fig1.alpha),
                rtol=1e-13,
            )

    def test_case_a_swap_exchanges_levels(self, family):
        system = build_case_a(family, 1.0, n=1, m=0)
        swapped = swap(system)
        assert swapped.indices == ((0, 0), (1, 0))
        assert swapped.delta_e == -system.delta_e

    def test_fpe_swap_rejected(self, family):
        with pytest.raises(ValueError):
            swap(build_fpe(family, 0, 0, 1.0))


class TestReducedEquation:
    @pytest.mark.parametrize("build_args", [
        ("fpe", dict(s=0, n=0, alpha=1.0)),
        ("fpe", dict(s=1, n=2, alpha=0.5)),
        ("case_a", dict(alpha=1.0, n=1, m=0)),
        ("case_a", dict(alpha=1.0, n=0, m=1)),
        ("case_a", dict(alpha=1.0, n=3, m=2)),
        ("case_b", dict(alpha=1.0, n=3, s=1, n_prime=1, s_prime=3,
                        coeff_a=1.0, coeff_b=3.0)),
        ("case_b", dict(alpha=1.0, n=1, s=3, n_prime=3, s_prime=1,
                        coeff_a=3.0, coeff_b=1.0)),
    ])
    def test_profiles_satisfy_reduced_equation(self, family, build_args):
        kind, kwargs = build_args
        builder = {"fpe": build_fpe, "case_a": build_case_a,
                   "case_b": build_case_b}[kind]
        system = builder(family, **kwargs)
        z = np.linspace(0.2, 8.0, 400)
        assert ode_residual(system, z).max_abs <= 1e-8

    def test_schrodinger_form_shares_energy(self, family):
        system = build_case_b(family, 1.0, 3, 1, 1, 3, 1.0, 3.0)
        z = np.linspace(0.2, 8.0, 300)
        e_shared = system.y_state.energy
        assert system.sigma_state.energy == e_shared
        (y, _, y_dd), (sig, _, sig_dd) = system.jets(z)
        resid_y = -y_dd + (system.family.potential(1, z) - e_shared) * y
        resid_s = -sig_dd + (system.family.potential(3, z) - e_shared) * sig
        assert np.max(np.abs(resid_y)) <= 1e-8 * np.max(np.abs(y))
        assert np.max(np.abs(resid_s)) <= 1e-8 * np.max(np.abs(sig))
