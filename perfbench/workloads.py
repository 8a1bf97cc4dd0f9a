"""The benchmark workloads: seeded items, how to run one, how to check them.

A workload is built from a seed and an output directory (this is the
set-up the benchmark times), then runs its items by index. ``run(i)``
returns True when the operation succeeded; ``fingerprint(i)`` captures
the item's output so later rounds can be compared with the first;
``check(items)`` runs the independent checks of :mod:`checks` on the
outputs of the listed items (those that never failed).

Package functions are always looked up on their module at call time
(``cli.run``, ``verify.pde_residual``), so the traced run's rebinding
in :mod:`spans` sees every call. :mod:`checks` loads scipy, so it is
imported only inside ``check()``, after the timed rounds: scipy is no
part of the set-up or the peak resident set being measured.
"""

import contextlib
import hashlib
import io
import json

from susycdr import cdr, cli, verify
from susycdr.mathfn import gaussian_tail_cutoff
from susycdr.quantum import DEFAULT_X_MIN
from susycdr.verify import GridSpec

import inputs


def _quiet(argv):
    """cli.run with its report table kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def _write_configs(configs, out_dir, prefix):
    paths = []
    for i, cfg in enumerate(configs):
        path = out_dir / f"{prefix}-{i}.json"
        path.write_text(json.dumps(cfg))
        paths.append(path)
    return paths


class Certify:
    """One ``susycdr verify --out`` per seeded config, in process."""

    PER_CASE = 3

    def __init__(self, seed, out_dir):
        self.configs = inputs.sweep(seed, self.PER_CASE)
        paths = _write_configs(self.configs, out_dir, "certify")
        self.reports = [out_dir / f"certify-{i}" for i in range(len(paths))]
        self.argv = [["--config", str(p), "verify", "--out", str(r)]
                     for p, r in zip(paths, self.reports)]
        self.exit_codes = [None] * len(paths)

    def __len__(self):
        return len(self.argv)

    def run(self, i):
        self.exit_codes[i] = _quiet(self.argv[i])
        return self.exit_codes[i] == 0

    def fingerprint(self, i):
        return (self.exit_codes[i],
                (self.reports[i] / "verify_report.json").read_bytes())

    def check(self, items):
        import checks
        problems = []
        for i in items:
            report = json.loads(
                (self.reports[i] / "verify_report.json").read_text())
            problems += [f"certify item {i}: {p}" for p in
                         checks.check_verify_report(report, self.exit_codes[i])]
        return problems


class Audit:
    """Every non-stepping oracle, deep, on each seeded system."""

    PER_CASE = 2
    N_MAX = 8
    X_GRID = GridSpec(x_min=0.2, x_max=8.0, nx=400, t_min=0.5, t_max=2.5, nt=4)
    PDE_GRID = GridSpec(x_min=0.2, x_max=8.0, nx=400, t_min=0.5, t_max=2.5,
                        nt=200)
    FD_GRID = GridSpec(x_min=0.2, x_max=8.0, nx=400, t_min=0.5, t_max=2.5,
                       nt=20)

    def __init__(self, seed, out_dir):
        self.configs = inputs.sweep(seed, self.PER_CASE)
        self.systems = [cli.parse_config(cfg).build() for cfg in self.configs]
        self.results = [None] * len(self.systems)

    def __len__(self):
        return len(self.systems)

    def run(self, i):
        system = self.systems[i]
        states = (system.y_state, system.sigma_state)
        node_range = (DEFAULT_X_MIN,
                      gaussian_tail_cutoff(system.family.omega, safety=1.35))
        self.results[i] = {
            "gram": {s: verify.orthonormality_matrix(system.family, s,
                                                     n_max=self.N_MAX)
                     for s in sorted({st.s for st in states})},
            "pde_analytic": verify.pde_residual(system, self.PDE_GRID,
                                                mode="analytic"),
            "pde_fd": verify.pde_residual(system, self.FD_GRID,
                                          mode="finite-difference"),
            "ode": verify.ode_residual(system, self.X_GRID.x_points()),
            "schrodinger": [verify.schrodinger_residual(st, self.X_GRID)
                            for st in states],
            "nodes": [verify.node_count(st, node_range) for st in states],
        }
        return True

    def fingerprint(self, i):
        res = self.results[i]
        grams = tuple((s, g.tobytes()) for s, g in res["gram"].items())
        reports = tuple(repr(r.as_dict()) for r in (
            res["pde_analytic"], res["pde_fd"], res["ode"], *res["schrodinger"]))
        return grams, reports, tuple(res["nodes"])

    def check(self, items):
        import checks
        problems = []
        for i in items:
            cfg, system, res = self.configs[i], self.systems[i], self.results[i]
            tag = f"audit item {i}"
            for s, gram in res["gram"].items():
                problems += [f"{tag}: {p}" for p in checks.check_gram(
                    gram, cfg["omega"], cfg["ell"], s)]
            states = (system.y_state, system.sigma_state)
            for st, nodes in zip(states, res["nodes"]):
                if nodes != st.n:
                    problems.append(f"{tag}: node_count {nodes} != n = {st.n}")
            analytic = [("pde analytic", res["pde_analytic"].max_rel),
                        ("ode", res["ode"].max_abs)]
            analytic += [("schrodinger", r.max_rel) for r in res["schrodinger"]]
            for name, value in analytic:
                if not value <= checks.RESIDUAL_TOL:
                    problems.append(f"{tag}: {name} residual {value:.3e}")
            if not res["pde_fd"].max_rel <= checks.FD_RESIDUAL_TOL:
                problems.append(f"{tag}: fd residual {res['pde_fd'].max_rel:.3e}")
        return problems


class FieldExport:
    """One ``susycdr eval`` on a large seeded grid, then one ``emit-fig``."""

    PER_CASE = 2
    NX, NT = 2500, 4

    def __init__(self, seed, out_dir):
        self.configs = inputs.export_sweep(seed, self.PER_CASE, self.NX, self.NT)
        paths = _write_configs(self.configs, out_dir, "export")
        self.dirs = [out_dir / f"export-{i}" for i in range(len(paths))]
        self.argv = [(["--config", str(p), "eval", "--out", str(d / "eval")],
                      ["emit-fig", "--out", str(d / "fig")])
                     for p, d in zip(paths, self.dirs)]

    def __len__(self):
        return len(self.argv)

    def run(self, i):
        eval_argv, fig_argv = self.argv[i]
        return _quiet(eval_argv) == 0 and _quiet(fig_argv) == 0

    def fingerprint(self, i):
        digest = hashlib.sha256()
        for path in sorted(self.dirs[i].rglob("*")):
            if path.is_file():
                digest.update(path.name.encode() + path.read_bytes())
        return digest.hexdigest()

    def check(self, items):
        import checks
        problems = []
        for i in items:
            cfg, out = self.configs[i], self.dirs[i]
            system = cli.parse_config(cfg).build()
            problems += checks.check_fields_csv(
                out / "eval" / "fields.csv", cfg,
                lambda x, t, system=system: cdr.eval_fields(system, x, t))
            problems += checks.check_figures(out / "fig")
        return problems


WORKLOADS = {"certify": Certify, "audit": Audit, "field_export": FieldExport}
