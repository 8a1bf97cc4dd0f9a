"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s to see them inline).
The shipped example systems exercised throughout are the zero-reaction
system, three two-level systems, and the two interchanged two-chain-
member systems behind the emit-fig datasets.
"""

import itertools

import numpy as np
import pytest

from susycdr.cdr import (build_case_a, build_case_b, build_fpe, eval_fields,
                         swap)
from susycdr.cli import DEFAULT_CONFIG, run
from susycdr.quantum import (DEFAULT_X_MIN, OscillatorParams,
                             RadialOscillatorFamily, darboux_partner)
from susycdr.verify import (GridSpec, evolve_oracle, evolve_window, node_count,
                            ode_residual, orthonormality_matrix, pde_residual,
                            schrodinger_residual)

SWEEP_OMEGAS = (0.5, 1.0, 2.0)
SWEEP_ELLS = (0.5, 1.0, 2.0)
SWEEP_S = (0, 1, 3)

PDE_GRID = GridSpec(x_min=0.5, x_max=4.0, nx=120, t_min=0.5, t_max=2.0, nt=4)
X_GRID = GridSpec(x_min=0.2, x_max=8.0, nx=400, t_min=0.5, t_max=2.5, nt=4)

# the bounds of `susycdr verify`'s rows
TOL = DEFAULT_CONFIG["tolerances"]


def _family(omega, ell):
    return RadialOscillatorFamily(OscillatorParams(omega, ell))


def shipped_systems():
    fam = _family(1.0, 1.0)
    systems = [("fpe(s=0,n=0)", build_fpe(fam, 0, 0, 1.0))]
    for n, m in ((1, 0), (0, 1), (3, 2)):
        systems.append((f"case_a(n={n},m={m})", build_case_a(fam, 1.0, n, m)))
    systems.append(
        ("fig1", build_case_b(fam, 1.0, 3, 1, 1, 3, coeff_a=1.0, coeff_b=3.0))
    )
    systems.append(
        ("fig2", build_case_b(fam, 1.0, 1, 3, 3, 1, coeff_a=3.0, coeff_b=1.0))
    )
    return systems


def _verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_orthonormality():
    worst = 0.0
    for omega, ell, s in itertools.product(SWEEP_OMEGAS, SWEEP_ELLS, SWEEP_S):
        gram = orthonormality_matrix(_family(omega, ell), s, n_max=6)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(7)))))
    bound = TOL["orthonormality"]
    _verdict(1, "orthonormality", worst <= bound,
             f"max |G - I| = {worst:.3e} <= {bound:g}")


def test_criterion_2_schrodinger_residual():
    worst = 0.0
    for omega, ell, s in itertools.product(SWEEP_OMEGAS, SWEEP_ELLS, SWEEP_S):
        family = _family(omega, ell)
        for n in range(7):
            rep = schrodinger_residual(family.eigenstate(s, n), X_GRID)
            worst = max(worst, rep.max_rel)
    bound = TOL["schrodinger_rel"]
    _verdict(2, "schrodinger residual", worst <= bound,
             f"max_rel = {worst:.3e} <= {bound:g}")


def test_criterion_3_shape_invariance():
    xs = X_GRID.x_points()
    worst = 0.0
    for omega, ell in itertools.product(SWEEP_OMEGAS, SWEEP_ELLS):
        family = _family(omega, ell)
        for s in (0, 1, 2):
            partner = darboux_partner(
                lambda x, s=s: family.potential(s, x),
                family.eigenstate(s, 0), xs,
            )
            target = family.potential(s + 1, xs)
            worst = max(worst, float(np.max(np.abs(partner - target))))
    _verdict(3, "shape invariance", worst <= 1e-6,
             f"max |partner - next member| = {worst:.3e} <= 1e-06")


def test_criterion_4_reduced_equation_residual():
    zs = np.linspace(0.2, 8.0, 400)
    worst = 0.0
    for name, system in shipped_systems():
        worst = max(worst, ode_residual(system, zs).max_abs)
    bound = TOL["ode_abs"]
    _verdict(4, "reduced-equation residual", worst <= bound,
             f"max_abs = {worst:.3e} <= {bound:g} over {len(shipped_systems())} systems")


def test_criterion_5_pde_residual():
    worst = 0.0
    for name, system in shipped_systems():
        worst = max(worst, pde_residual(system, PDE_GRID).max_rel)
    analytic_ok = worst <= TOL["pde_rel"]

    # finite differences must approach the analytic mode at 4th order
    fd_grid = GridSpec(x_min=0.8, x_max=3.0, nx=12, t_min=0.8, t_max=1.6, nt=3)
    fig1 = shipped_systems()[4][1]
    errs = [
        pde_residual(fig1, fd_grid, mode="finite-difference", fd_step=h).max_abs
        for h in (0.1, 0.05, 0.025)
    ]
    orders = [float(np.log2(errs[k] / errs[k + 1])) for k in range(2)]
    fd_ok = all(order >= 3.5 for order in orders)
    _verdict(5, "pde residual", analytic_ok and fd_ok,
             f"analytic max_rel = {worst:.3e} <= {TOL['pde_rel']:g}, "
             f"fd orders = {orders[0]:.2f}, {orders[1]:.2f} >= 3.5")


def test_criterion_6_inconsistent_forms_detected(alt_reaction_exponent,
                                                 alt_convection_profile):
    fig1 = shipped_systems()[4][1]
    t2_grid = GridSpec(x_min=0.5, x_max=4.0, nx=120, t_min=2.0, t_max=2.0, nt=2)
    alt_r = pde_residual(alt_reaction_exponent(fig1), t2_grid)
    alt_c = pde_residual(alt_convection_profile(fig1), t2_grid)
    exact = pde_residual(fig1, PDE_GRID)
    bound = TOL["pde_rel"]
    ok = alt_r.max_rel >= 0.1 and alt_c.max_rel >= 0.1 and exact.max_rel <= bound
    _verdict(6, "inconsistent-form detection", ok,
             f"alt reaction exponent max_rel = {alt_r.max_rel:.3f} >= 0.1, "
             f"alt convection profile max_rel = {alt_c.max_rel:.3f} >= 0.1, "
             f"exact max_rel = {exact.max_rel:.3e} <= {bound:g}")


def test_criterion_7_swap_antisymmetry():
    xs = X_GRID.x_points()
    worst_r = 0.0
    worst_xch = 0.0
    for name, system in shipped_systems()[1:]:  # swap undefined for fpe
        swapped = swap(system)
        for t in (0.5, 1.0, 2.0):
            r0 = eval_fields(system, xs, t)[3]
            r1 = eval_fields(swapped, xs, t)[3]
            scale = max(float(np.max(np.abs(r0))), 1e-30)
            worst_r = max(worst_r, float(np.max(np.abs(r0 + r1))) / scale)
            # the swapped solution is the original diffusion profile
            # (and vice versa) up to the time factors
            p_swap = eval_fields(swapped, xs, t)[0]
            d_orig = eval_fields(system, xs, t)[1]
            lhs = p_swap * t ** system.alpha
            rhs = d_orig * t ** (1.0 - 2.0 * system.alpha)
            scale = max(float(np.max(np.abs(lhs))), 1e-30)
            worst_xch = max(worst_xch, float(np.max(np.abs(lhs - rhs))) / scale)
    ok = worst_r <= 1e-12 and worst_xch <= 1e-12
    _verdict(7, "swap antisymmetry", ok,
             f"max rel |R + R_swap| = {worst_r:.3e} <= 1e-12, "
             f"profile exchange = {worst_xch:.3e} <= 1e-12")


def test_criterion_8_time_stepping():
    systems = dict(shipped_systems())
    ratios = {}
    for name in ("fpe(s=0,n=0)", "fig1"):
        system = systems[name]
        rep = evolve_oracle(system, evolve_window(system, X_GRID))
        assert rep.entries[0][0] == 200 and rep.entries[1][0] == 400
        ratios[name] = rep.ratios[0]
    low, high = TOL["evolve_ratio_lo"], TOL["evolve_ratio_hi"]
    ok = all(low <= r <= high for r in ratios.values())
    detail = ", ".join(f"{k}: ratio = {v:.2f}" for k, v in ratios.items())
    _verdict(8, "time-stepping cross-check", ok,
             detail + f" in [{low:g}, {high:g}]")


def test_criterion_9_figure_datasets(tmp_path):
    out = tmp_path / "figs"
    code = run(["--out", str(out), "emit-fig"])
    files_ok = code == 0 and all(
        (out / f"{tag}_{field}.csv").exists()
        for tag in ("fig1", "fig2") for field in "PDCR"
    )
    header_ok = (
        (out / "fig1_P.csv").read_text().splitlines()[0]
        == "x,t=0.3,t=1,t=2"
    )
    counts = {}
    for tag, expected in (("fig1", 3), ("fig2", 1)):
        data = np.loadtxt(out / f"{tag}_P.csv", delimiter=",", skiprows=1)
        per_time = []
        for col in (1, 2, 3):
            vals = data[:, col]
            vals = vals[vals != 0.0]
            per_time.append(int(np.sum(vals[:-1] * vals[1:] < 0.0)))
        counts[tag] = (per_time, expected)
    # cross-check against the evaluator-level node counter
    systems = dict(shipped_systems())
    direct = {
        "fig1": node_count(systems["fig1"].y_state, (DEFAULT_X_MIN, 12.0)),
        "fig2": node_count(systems["fig2"].y_state, (DEFAULT_X_MIN, 12.0)),
    }
    nodes_ok = all(
        all(c == expected for c in per_time) and direct[tag] == expected
        for tag, (per_time, expected) in counts.items()
    )
    ok = files_ok and header_ok and nodes_ok
    _verdict(9, "figure datasets", ok,
             f"files+header ok = {files_ok and header_ok}, "
             f"fig1 zeros = {counts['fig1'][0]} (expect 3), "
             f"fig2 zeros = {counts['fig2'][0]} (expect 1)")
