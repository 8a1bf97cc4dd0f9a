"""Independent correctness checks for the benchmark outputs.

Nothing here calls the susycdr algebra under test. The closed forms are
written out again from the construction (radial-oscillator eigenstates
in q = omega x^2 / 2, similarity scaling z = x / t^alpha) and evaluated
with scipy's Laguerre polynomials and log-gamma; the Gram matrix is
recomputed by Gauss-Laguerre quadrature, which is exact for these
polynomial-times-weight integrands. Each check returns a list of
problems; an empty list means the output passed.
"""

import csv
import math

import numpy as np
from scipy.special import eval_genlaguerre, gammaln, roots_genlaguerre

# Field values are compared relative to each column's largest magnitude.
FIELD_RTOL = 1e-9
GRAM_TOL = 1e-8
RESIDUAL_TOL = 1e-8
# A finite-difference residual at the default steps is a 4th-order
# truncation error, far above round-off but far below any real defect.
FD_RESIDUAL_TOL = 1e-5
# Second order in h and dt: the error falls by 4 per doubling.
CN_ORDER_RANGE = (1.8, 2.2)


class State:
    """u_n of chain member s, closed form with its first x-derivative."""

    def __init__(self, omega, ell, s, n):
        self.omega = omega
        self.big_l = ell + s
        self.s = s
        self.n = n
        self.a = self.big_l + 0.5
        self.p = 0.5 * (self.big_l + 1.0)
        self.norm = (2.0 * omega) ** 0.25 * math.exp(
            0.5 * (gammaln(n + 1.0) - gammaln(n + self.big_l + 1.5)))
        self.energy = 2.0 * (n + s) * omega

    def value(self, x):
        q = 0.5 * self.omega * x * x
        return (self.norm * q ** self.p * np.exp(-0.5 * q)
                * eval_genlaguerre(self.n, self.a, q))

    def deriv(self, x):
        q = 0.5 * self.omega * x * x
        lag = eval_genlaguerre(self.n, self.a, q)
        # d/dq L_n^a = -L_{n-1}^{a+1}
        lag_d = (-eval_genlaguerre(self.n - 1, self.a + 1.0, q)
                 if self.n > 0 else 0.0)
        du_dq = self.norm * np.exp(-0.5 * q) * (
            self.p * q ** (self.p - 1.0) * lag - 0.5 * q ** self.p * lag
            + q ** self.p * lag_d)
        return du_dq * self.omega * x

    def potential(self, x):
        big_l, w = self.big_l, self.omega
        return (0.25 * w * w * x * x + big_l * (big_l + 1.0) / (x * x)
                - w * (big_l + 1.5) + 2.0 * w * self.s)


def config_states(cfg):
    """(solution state, A, diffusion state, B) described by a config."""
    w, ell, case = cfg["omega"], cfg["ell"], cfg["case"]
    if case == "fpe":
        y = State(w, ell, cfg["s"], cfg["n"])
        return y, 1.0, y, 1.0
    if case == "case_a":
        return State(w, ell, 0, cfg["n"]), 1.0, State(w, ell, 0, cfg["m"]), 1.0
    return (State(w, ell, cfg["s"], cfg["n"]), float(cfg["A"]),
            State(w, ell, cfg["s_prime"], cfg["n_prime"]), float(cfg["B"]))


def closed_form_fields(cfg, x, t):
    """P, D, C, R of the configured system at (x, t), from first principles."""
    y, a, sig, b = config_states(cfg)
    alpha = cfg["alpha"]
    z = x / t ** alpha
    yz = a * y.value(z)
    sz = b * sig.value(z)
    if cfg["case"] == "fpe":
        rho = np.zeros_like(z)
    elif cfg["case"] == "case_a":
        rho = -(sig.energy - y.energy) * sz * yz
    else:
        rho = (sig.potential(z) - y.potential(z)) * sz * yz
    return (t ** -alpha * yz,
            t ** (2.0 * alpha - 1.0) * sz,
            t ** (alpha - 1.0) * (2.0 * b * sig.deriv(z) + alpha * z),
            t ** (-alpha - 1.0) * rho)


def gauss_laguerre_gram(omega, ell, s, n_max):
    """Gram matrix of u_0..u_n_max of member s by Gauss-Laguerre quadrature.

    With q = omega x^2 / 2 the integrand u_m u_n dx becomes
    c_m c_n q^a e^{-q} L_m^a L_n^a dq with a = ell + s + 1/2, so any rule
    with at least n_max + 1 nodes integrates every entry exactly.
    """
    a = ell + s + 0.5
    nodes, weights = roots_genlaguerre(n_max + 2, a)
    ns = np.arange(n_max + 1)
    coef = np.exp(0.5 * (gammaln(ns + 1.0) - gammaln(ns + a + 1.0)))
    lag = np.array([eval_genlaguerre(n, a, nodes) for n in ns]) * coef[:, None]
    return (lag * weights) @ lag.T


def _within(name, diff, want, rtol):
    """Problem if max |diff| exceeds rtol times the largest |want|."""
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = float(np.max(np.abs(diff))) / scale
    if not err <= rtol:
        return [f"{name}: relative deviation {err:.3e} > {rtol:g}"]
    return []


def read_csv(path):
    """(header, float array) of a CSV written by the CLI."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def check_fields_csv(path, cfg, package_fields):
    """fields.csv of ``susycdr eval`` against the package and a closed form.

    ``package_fields(x, t)`` returns the package's (P, D, C, R); the CSV
    must parse back to them bit for bit. The closed form must agree to
    FIELD_RTOL per time level and field.
    """
    grid = cfg["grid"]
    nx, nt = grid["nx"], grid["nt"]
    header, data = read_csv(path)
    problems = []
    if header != ["x", "t", "P", "D", "C", "R"]:
        problems.append(f"{path}: header {header}")
    if data.shape != (nx * nt, 6):
        return problems + [f"{path}: shape {data.shape}, want ({nx * nt}, 6)"]
    xs = np.linspace(grid["x_min"], grid["x_max"], nx)
    ts = np.linspace(grid["t_min"], grid["t_max"], nt)
    for k, t in enumerate(ts):
        block = data[k * nx:(k + 1) * nx]
        if not (np.array_equal(block[:, 0], xs) and np.all(block[:, 1] == t)):
            problems.append(f"{path}: grid columns differ at t={t!r}")
        got = np.stack(package_fields(xs, float(t)), axis=1)
        if not np.array_equal(block[:, 2:], got):
            problems.append(f"{path}: CSV does not round-trip at t={t!r}")
        want = closed_form_fields(cfg, xs, float(t))
        for j, name in enumerate("PDCR"):
            problems += _within(f"{path} {name}(t={t:g})",
                                block[:, 2 + j] - want[j], want[j], FIELD_RTOL)
    return problems


def check_figures(fig_dir):
    """emit-fig output: fig2 is fig1 with (n, s, A) and (n', s', B) swapped,
    so its reaction is the pointwise negative of fig1's."""
    h1, r1 = read_csv(fig_dir / "fig1_R.csv")
    h2, r2 = read_csv(fig_dir / "fig2_R.csv")
    if h1 != h2 or r1.shape != r2.shape or r1.shape[0] == 0:
        return [f"{fig_dir}: fig1_R/fig2_R headers or shapes differ"]
    problems = []
    if not np.array_equal(r1[:, 0], r2[:, 0]):
        problems.append(f"{fig_dir}: fig1_R and fig2_R x columns differ")
    # products are formed in another order after the swap, so the
    # negation holds to round-off, not bit for bit
    return problems + _within(f"{fig_dir} fig1_R + fig2_R",
                              r1[:, 1:] + r2[:, 1:], r1[:, 1:], 1e-12)


def check_gram(gram, omega, ell, s):
    """Package Gram matrix against the identity and Gauss-Laguerre."""
    n_max = gram.shape[0] - 1
    exact = gauss_laguerre_gram(omega, ell, s, n_max)
    problems = []
    dev_exact = float(np.max(np.abs(exact - np.eye(n_max + 1))))
    if not dev_exact <= 1e-10:
        problems.append(f"Gauss-Laguerre Gram (s={s}) deviates from I by "
                        f"{dev_exact:.3e}")
    dev = float(np.max(np.abs(gram - exact)))
    if not dev <= GRAM_TOL:
        problems.append(f"Gram (s={s}) deviates from Gauss-Laguerre by "
                        f"{dev:.3e} > {GRAM_TOL:g}")
    return problems


def check_verify_report(report, exit_code):
    """verify_report.json: passed, second-order CN, orthonormal basis."""
    problems = []
    if exit_code != 0 or report.get("passed") is not True:
        problems.append(f"verify exit {exit_code}, passed={report.get('passed')}")
    entries = report["evolve"]["entries"]
    for (nx0, nt0, e0), (nx1, nt1, e1) in zip(entries, entries[1:]):
        if (nx1, nt1) != (2 * nx0, 2 * nt0):
            problems.append(f"CN levels {nx0}x{nt0} -> {nx1}x{nt1} do not double")
        order = math.log2(e0 / e1) if e0 > 0 and e1 > 0 else float("nan")
        if not CN_ORDER_RANGE[0] <= order <= CN_ORDER_RANGE[1]:
            problems.append(f"CN observed order {order:.3f} outside "
                            f"{CN_ORDER_RANGE}")
    if len(entries) < 2:
        problems.append("CN report has fewer than two refinement levels")
    if not report["orthonormality_deviation"] <= GRAM_TOL:
        problems.append("orthonormality deviation "
                        f"{report['orthonormality_deviation']:.3e} > {GRAM_TOL:g}")
    for name, res in report["residuals"].items():
        value = res["max_abs"] if name == "reduced_equation" else res["max_rel"]
        if not value <= RESIDUAL_TOL:
            problems.append(f"{name} residual {value:.3e} > {RESIDUAL_TOL:g}")
    return problems
