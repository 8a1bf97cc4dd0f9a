"""Command-line front end: build, evaluate, verify, and export datasets.

Subcommands
-----------
build     parse a config, construct the system, print a summary
eval      sample P, D, C, R on the configured grid and write one CSV
verify    run the full oracle suite and print a pass/fail table
emit-fig  write the bundled example datasets (two interchanged parameter
          sets of the two-chain-member case at t = 0.3, 1.0, 2.0) plus a
          gnuplot script

Configuration is a single JSON document (see DEFAULT_CONFIG for the
schema). Every value written to CSV is rendered with ``%.17g``: the bytes
are stable from run to run and each value round-trips bit-for-bit.

Exit codes: 0 success, 1 verification failure, 2 config or usage error.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cdr import (CaseTag, CdrSystem, build_case_a, build_case_b, build_fpe,
                  eval_fields)
from .quantum import OscillatorParams, RadialOscillatorFamily
from .verify import (GridSpec, ResidualReport, evolve_oracle, ode_residual,
                     orthonormality_matrix, pde_residual,
                     positive_diffusion_x_max, schrodinger_residual)

__all__ = ["main", "run", "RunConfig", "DEFAULT_CONFIG"]

DEFAULT_CONFIG = {
    "omega": 1.0,
    "ell": 1.0,
    "alpha": 1.0,
    "case": "case_b",
    "n": 3,
    "s": 1,
    "n_prime": 1,
    "s_prime": 3,
    "A": 1.0,
    "B": 3.0,
    "grid": {
        "x_min": 0.2, "x_max": 8.0, "nx": 400,
        "t_min": 0.5, "t_max": 2.5, "nt": 4,
    },
    "tolerances": {
        "schrodinger_rel": 1e-8,
        "ode_abs": 1e-8,
        "pde_rel": 1e-8,
        "orthonormality": 1e-8,
        "evolve_ratio_lo": 3.5,
        "evolve_ratio_hi": 4.5,
    },
}

_FIG_TIMES = (0.3, 1.0, 2.0)
_FIG_GRID = np.linspace(0.02, 10.0, 500)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: family, case, indices, grid, tolerances."""

    family: RadialOscillatorFamily
    case: CaseTag
    alpha: float
    indices: dict
    coeff_a: float
    coeff_b: float
    grid: GridSpec
    tolerances: dict

    def build(self) -> CdrSystem:
        idx = self.indices
        if self.case is CaseTag.FPE:
            return build_fpe(self.family, idx["s"], idx["n"], self.alpha)
        if self.case is CaseTag.CASE_A:
            return build_case_a(self.family, self.alpha, idx["n"], idx["m"])
        return build_case_b(
            self.family, self.alpha, idx["n"], idx["s"],
            idx["n_prime"], idx["s_prime"], self.coeff_a, self.coeff_b,
        )


_REQUIRED = object()


def _require(data, key, kind, default=_REQUIRED, section=None):
    """``data[key]`` checked against ``kind`` (float, int, dict or str).

    A missing key takes ``default``, or is an error when none is given.
    Numbers must be finite; ``section`` prefixes the field name in errors.
    """
    name = f"{section}.{key}" if section else key
    if key not in data:
        if default is _REQUIRED:
            raise ConfigError(f"config field '{name}' is required")
        return default
    value = data[key]
    if kind is float:
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ConfigError(
                f"config field '{name}' must be a finite number, got {value!r}"
            )
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(
                f"config field '{name}' must be an integer, got {value!r}"
            )
        return value
    if kind is dict and not isinstance(value, dict):
        raise ConfigError(f"config field '{name}' must be an object, got {value!r}")
    return value


def parse_config(data: dict) -> RunConfig:
    """Validate a config mapping; raises ConfigError naming the bad field."""
    omega = _require(data, "omega", float)
    ell = _require(data, "ell", float)
    alpha = _require(data, "alpha", float)
    if alpha <= 0.0:
        raise ConfigError(f"config field 'alpha' must be > 0, got {alpha!r}")
    case_name = _require(data, "case", str)
    try:
        case = CaseTag(case_name)
    except ValueError:
        raise ConfigError(
            f"config field 'case' must be one of fpe/case_a/case_b, got {case_name!r}"
        )
    try:
        family = RadialOscillatorFamily(OscillatorParams(omega, ell))
    except ValueError as exc:
        raise ConfigError(f"config: {exc}")

    indices = {}
    if case is CaseTag.FPE:
        indices["s"] = _require(data, "s", int)
        indices["n"] = _require(data, "n", int)
    elif case is CaseTag.CASE_A:
        indices["n"] = _require(data, "n", int)
        indices["m"] = _require(data, "m", int)
    else:
        for key in ("n", "s", "n_prime", "s_prime"):
            indices[key] = _require(data, key, int)
        if indices["n"] + indices["s"] != indices["n_prime"] + indices["s_prime"]:
            raise ConfigError(
                "config: case_b requires the index constraint "
                f"n + s == n_prime + s_prime (got {indices['n']}+{indices['s']}"
                f" != {indices['n_prime']}+{indices['s_prime']})"
            )
    for key, val in indices.items():
        if val < 0:
            raise ConfigError(f"config field '{key}' must be >= 0, got {val}")

    coeff_a = _require(data, "A", float, 1.0)
    coeff_b = _require(data, "B", float, 1.0)
    grid_data = _require(data, "grid", dict, {})
    grid_fields = {
        key: _require(grid_data, key, type(default), default, "grid")
        for key, default in DEFAULT_CONFIG["grid"].items()
    }
    try:
        grid = GridSpec(**grid_fields)
    except ValueError as exc:
        raise ConfigError(f"config field 'grid': {exc}")
    tol_data = _require(data, "tolerances", dict, {})
    tolerances = {
        key: _require(tol_data, key, float, default, "tolerances")
        for key, default in DEFAULT_CONFIG["tolerances"].items()
    }
    return RunConfig(
        family=family, case=case, alpha=alpha, indices=indices,
        coeff_a=coeff_a, coeff_b=coeff_b, grid=grid, tolerances=tolerances,
    )


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config(DEFAULT_CONFIG)
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return parse_config(data)


def _csv_rows(lead: list, columns) -> str:
    """CSV rows ``lead[i],columns[0][i],columns[1][i],...``, newline-ended.

    ``lead`` holds each row's already formatted leading cells. Every column
    value is rendered with ``%.17g`` in one call over the whole block; on a
    Python float that gives the digits of ``format(v, ".17g")``.
    """
    values = [col.tolist() for col in columns]
    flat = [cell for row in zip(lead, *values) for cell in row]
    row = "%s" + ",%.17g" * len(values) + "\n"
    return (row * len(lead)) % tuple(flat)


def _out_dir(text: str) -> Path:
    """The ``--out`` path; ConfigError when it or a parent is not a directory."""
    path = Path(text)
    for part in (path, *path.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"--out {text}: {part} is not a directory")
            break
    return path


def _cmd_build(config: RunConfig) -> int:
    system = config.build()
    e = system.exponents
    (n, s), (n_p, s_p) = system.indices
    print(f"case:        {system.case_tag.value}")
    print(f"family:      omega={system.family.omega:g}, ell={system.family.ell:g}")
    print(f"solution:    n={n}, s={s}, A={system.coeff_a:g}, "
          f"energy={system.energy:g}")
    print(f"diffusion:   n'={n_p}, s'={s_p}, B={system.coeff_b:g}, "
          f"energy={system.sigma_energy:g}")
    print(f"exponents:   alpha={e.alpha:g}, mu={e.mu:g}, gamma={e.gamma:g}, "
          f"delta={e.delta:g}, rho_exp={e.rho_exp:g}")
    return 0


def _finite_levels(system: CdrSystem, config: RunConfig) -> tuple:
    """Grid x and t, and (P, D, C, R) at each t; ConfigError when a field is
    not finite at some grid point."""
    xs = config.grid.x_points()
    ts = config.grid.t_points()
    levels = [eval_fields(system, xs, float(t)) for t in ts]
    for name, values in zip("PDCR", zip(*levels)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            raise ConfigError(
                f"field {name} is not finite at {bad} of {xs.size * ts.size} "
                f"grid points for omega={config.family.omega:g}, "
                f"ell={config.family.ell:g}: the closed form overflows there"
            )
    return xs, ts, levels


def _cmd_eval(config: RunConfig, out_dir: Path) -> int:
    xs, ts, levels = _finite_levels(config.build(), config)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "fields.csv"
    x_cells = ["%.17g" % x for x in xs.tolist()]
    with path.open("w") as fh:
        fh.write("x,t,P,D,C,R\n")
        for t, fields in zip(ts.tolist(), levels):
            t_cell = "%.17g" % t
            fh.write(_csv_rows([f"{x},{t_cell}" for x in x_cells], fields))
    print(f"wrote {path} ({xs.size * ts.size} rows)")
    return 0


def _gram_deviation(system: CdrSystem, config: RunConfig) -> float:
    """Largest |G - I| over the Gram matrices of both profiles' chain members."""
    worst = 0.0
    for s_idx in {system.y_state.s, system.sigma_state.s}:
        gram = orthonormality_matrix(config.family, s_idx, n_max=4)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(5)))))
    return worst


def _evolve_record(system: CdrSystem, config: RunConfig) -> dict:
    """CN errors at two resolutions and their ratio (about 4 for 2nd order)."""
    grid = config.grid
    t_min = 1.0
    # restrict the stepper to the region where the equation is parabolic
    x_hi = positive_diffusion_x_max(system, t_min=t_min, x_max=grid.x_max)
    if not grid.x_min < x_hi:
        raise ConfigError(
            f"config field 'grid.x_min' = {grid.x_min:g} must lie below "
            f"x = {x_hi:.6g}, 5 % inside the first node of the diffusion "
            f"coefficient D at t = {t_min:g}: time stepping needs D > 0")
    report = evolve_oracle(system, GridSpec(
        x_min=grid.x_min, x_max=x_hi, nx=200, t_min=t_min, t_max=2.0, nt=100))
    return {
        "entries": [list(entry) for entry in report.entries],
        "error_ratio": report.ratios[0],
    }


# One row per oracle: (report key, label, run(system, config) -> record,
# metric(record) -> value, tolerance key (``--tol`` overrides these) or
# (low, high) keys). Each run looks its oracle up by module name when called,
# so a rebound name (as in perfbench/spans.py) takes effect.
_VERIFY_ROWS = (
    ("schrodinger_solution", "schrodinger residual (solution)",
     lambda system, config: schrodinger_residual(system.y_state, config.grid),
     lambda rep: rep.max_rel, "schrodinger_rel"),
    ("schrodinger_diffusion", "schrodinger residual (diffusion)",
     lambda system, config: schrodinger_residual(system.sigma_state, config.grid),
     lambda rep: rep.max_rel, "schrodinger_rel"),
    ("reduced_equation", "reduced-equation residual",
     lambda system, config: ode_residual(system, config.grid.x_points()),
     lambda rep: rep.max_abs, "ode_abs"),
    ("pde_analytic", "pde residual (analytic)",
     lambda system, config: pde_residual(system, config.grid, mode="analytic"),
     lambda rep: rep.max_rel, "pde_rel"),
    ("orthonormality_deviation", "orthonormality deviation",
     _gram_deviation, lambda worst: worst, "orthonormality"),
    ("evolve", "time-stepper error ratio (2x refinement)",
     _evolve_record, lambda record: record["error_ratio"],
     ("evolve_ratio_lo", "evolve_ratio_hi")),
)


def _cmd_verify(config: RunConfig, tol_override: float | None,
                out_dir: Path | None) -> int:
    system = config.build()
    _finite_levels(system, config)
    tol = config.tolerances
    rows = []
    records = {}
    for key, label, run_oracle, metric, tol_key in _VERIFY_ROWS:
        record = run_oracle(system, config)
        records[key] = record
        value = metric(record)
        if isinstance(tol_key, tuple):
            threshold = (tol[tol_key[0]], tol[tol_key[1]])
            ok = threshold[0] <= value <= threshold[1]
        else:
            threshold = tol[tol_key] if tol_override is None else tol_override
            ok = value <= threshold
        rows.append((label, value, threshold, ok))

    width = max(len(r[0]) for r in rows) + 2
    all_ok = True
    for name, value, threshold, ok in rows:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        if isinstance(threshold, tuple):
            bound = f"in [{threshold[0]:g}, {threshold[1]:g}]"
        else:
            bound = f"<= {threshold:g}"
        print(f"{name:<{width}} {value:12.3e}  {bound:<18} {status}")
    print("verification:", "PASS" if all_ok else "FAIL")

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {"passed": bool(all_ok), "residuals": {}}
        for key, record in records.items():
            if isinstance(record, ResidualReport):
                payload["residuals"][key] = record.as_dict()
            else:
                payload[key] = record
        path = out_dir / "verify_report.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return 0 if all_ok else 1


def _fig_systems():
    family = RadialOscillatorFamily(OscillatorParams(1.0, 1.0))
    primary = build_case_b(family, alpha=1.0, n=3, s=1, n_prime=1, s_prime=3,
                           coeff_a=1.0, coeff_b=3.0)
    interchanged = build_case_b(family, alpha=1.0, n=1, s=3, n_prime=3,
                                s_prime=1, coeff_a=3.0, coeff_b=1.0)
    return (("fig1", primary), ("fig2", interchanged))


_PLOT_SCRIPT = """\
# gnuplot script for the emitted datasets
set datafile separator ','
set key autotitle columnhead
set xlabel 'x'
set terminal pngcairo size 900,700
do for [tag in "fig1 fig2"] {
    do for [field in "P D C R"] {
        set output sprintf('%s_%s.png', tag, field)
        set ylabel field
        plot sprintf('%s_%s.csv', tag, field) using 1:2 with lines dashtype 3, \\
             '' using 1:3 with lines dashtype 2, \\
             '' using 1:4 with lines
    }
}
"""


def _cmd_emit_fig(config: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    header = "x," + ",".join(f"t={t:g}" for t in _FIG_TIMES) + "\n"
    x_cells = ["%.17g" % x for x in _FIG_GRID.tolist()]
    for tag, system in _fig_systems():
        levels = [eval_fields(system, _FIG_GRID, t) for t in _FIG_TIMES]
        for name, columns in zip("PDCR", zip(*levels)):
            (out_dir / f"{tag}_{name}.csv").write_text(
                header + _csv_rows(x_cells, columns))
    (out_dir / "plot_figures.gp").write_text(_PLOT_SCRIPT)
    print(f"wrote 8 CSV files and plot_figures.gp to {out_dir}")
    return 0


def _tolerance(text: str) -> float:
    """``--tol`` value: a finite number above 0 (inf would pass every row)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number above 0, got {text!r}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susycdr",
        description="Build and verify exactly solvable convection-diffusion-"
                    "reaction systems.",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--out", default=None,
                        help="output directory (eval/emit-fig default: "
                             "susycdr_out; verify writes a JSON report "
                             "only when given)")
    parser.add_argument("--tol", type=_tolerance, default=None,
                        help="override the residual/orthonormality tolerances")
    parser.add_argument("command", choices=["build", "eval", "verify", "emit-fig"])
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = _load_config(args.config)
        if args.command == "build":
            return _cmd_build(config)
        if args.command == "verify":
            out_dir = _out_dir(args.out) if args.out is not None else None
            return _cmd_verify(config, args.tol, out_dir)
        out_dir = _out_dir(args.out if args.out is not None else "susycdr_out")
        if args.command == "eval":
            return _cmd_eval(config, out_dir)
        return _cmd_emit_fig(config, out_dir)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
