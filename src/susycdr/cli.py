"""Command-line front end: build, evaluate, verify, and export datasets.

Subcommands
-----------
build     parse a config, construct the system, print a summary
eval      sample P, D, C, R on the configured grid with
          ``verify.grid_fields`` and write one CSV
verify    run the full oracle suite (``verify.run_suite``) and print a
          pass/fail table; takes Laguerre degrees (n, m, n_prime) from 0 to 8
emit-fig  write the bundled example datasets (two interchanged parameter
          sets of the two-chain-member case at t = 0.3, 1.0, 2.0) plus a
          gnuplot script

Configuration is a single JSON document (see DEFAULT_CONFIG for the
schema). Every value written to CSV is rendered with ``%.17g``: the bytes
are stable from run to run and each value round-trips bit-for-bit.

Exit codes: 0 success, 1 verification failure, 2 config or usage error,
a field that is not finite on the grid, or a failed verify precondition.
"""

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from itertools import takewhile
from pathlib import Path

import numpy as np

from .cdr import (CaseTag, CdrSystem, build_case_a, build_case_b, build_fpe,
                  eval_fields, swap)
from .quantum import OscillatorParams, RadialOscillatorFamily
from .verify import (DEFAULT_TOLERANCES, GridSpec, ResidualReport,
                     grid_fields, run_suite, tolerance_floor)

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
    "grid": asdict(GridSpec()),
    "tolerances": dict(DEFAULT_TOLERANCES),
}

# Laguerre index fields of each case, in the order they are read.
_INDEX_FIELDS = {
    CaseTag.FPE: ("s", "n"),
    CaseTag.CASE_A: ("n", "m"),
    CaseTag.CASE_B: ("n", "s", "n_prime", "s_prime"),
}
# Every top-level field that some case reads.
_TOP_FIELDS = tuple(dict.fromkeys(
    [*DEFAULT_CONFIG, *(key for keys in _INDEX_FIELDS.values() for key in keys)]))

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
        number = math.nan
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            with contextlib.suppress(OverflowError):  # an int beyond float range
                number = float(value)
        if not math.isfinite(number):
            raise ConfigError(
                f"config field '{name}' must be a finite number, got {value!r}"
            )
        return number
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(
                f"config field '{name}' must be an integer, got {value!r}"
            )
        return value
    if kind is dict and not isinstance(value, dict):
        raise ConfigError(f"config field '{name}' must be an object, got {value!r}")
    return value


def _reject_unknown(data, known, section=None):
    """ConfigError naming the first key of ``data`` that is not ``known``."""
    for key in data:
        if key not in known:
            name = f"{section}.{key}" if section else key
            raise ConfigError(f"config field '{name}' is not known; known "
                              f"fields: {', '.join(known)}")


def _section(data, name):
    """The fields of object ``name`` of ``data``: each key of
    ``DEFAULT_CONFIG[name]``, of its default's type, or its default."""
    section = _require(data, name, dict, {})
    _reject_unknown(section, DEFAULT_CONFIG[name], name)
    return {key: _require(section, key, type(default), default, name)
            for key, default in DEFAULT_CONFIG[name].items()}


def parse_config(data: dict) -> RunConfig:
    """Validate a config mapping; raises ConfigError naming the bad field.

    A key that no case reads, at the top level or in ``grid`` or
    ``tolerances``, is an error too: a misspelt field would run on its
    default. So is a Laguerre index field of another case.
    """
    _reject_unknown(data, _TOP_FIELDS)
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

    for key in data:
        if key not in _INDEX_FIELDS[case] and any(
                key in fields for fields in _INDEX_FIELDS.values()):
            raise ConfigError(
                f"config field '{key}' is not read by case {case.value}")
    indices = {key: _require(data, key, int) for key in _INDEX_FIELDS[case]}
    if case is CaseTag.CASE_B:
        if indices["n"] + indices["s"] != indices["n_prime"] + indices["s_prime"]:
            raise ConfigError(
                "config: case_b requires the index constraint "
                f"n + s == n_prime + s_prime (got {indices['n']}+{indices['s']}"
                f" != {indices['n_prime']}+{indices['s_prime']})"
            )
    for key, val in indices.items():
        if val < 0:
            raise ConfigError(f"config field '{key}' must be >= 0, got {val}")
        if val > sys.float_info.max:  # the states' normalization takes n + 1.0
            raise ConfigError(f"config field '{key}' is beyond float range "
                              f"({len(str(val))} digits)")

    coeff_a = _require(data, "A", float, 1.0)
    coeff_b = _require(data, "B", float, 1.0)
    grid_values = _section(data, "grid")
    try:
        grid = GridSpec(**grid_values)
    except ValueError as exc:
        raise ConfigError(f"config field 'grid': {exc}")
    tolerances = _section(data, "tolerances")
    for key, value in tolerances.items():
        low = tolerance_floor(tolerances, key)
        if not value > low:
            raise ConfigError(f"config field 'tolerances.{key}' must be above "
                              f"{low:g}, got {value:g}")
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
    (n, s), (n_p, s_p) = system.indices
    print(f"case:        {system.case_tag.value}")
    print(f"family:      omega={system.family.omega:g}, ell={system.family.ell:g}")
    print(f"solution:    n={n}, s={s}, A={system.coeff_a:g}, "
          f"energy={system.y_state.energy:g}")
    print(f"diffusion:   n'={n_p}, s'={s_p}, B={system.coeff_b:g}, "
          f"energy={system.sigma_state.energy:g}")
    print(f"exponents:   alpha={system.alpha:g}, mu={system.mu:g}, "
          f"gamma={system.gamma:g}, delta={system.delta:g}, "
          f"rho_exp={system.rho_exp:g}")
    return 0


def _cmd_eval(config: RunConfig, out_dir: Path) -> int:
    """Write fields.csv one block of levels at a time, to a file beside it
    that replaces it after the last block: an error (a field that is not
    finite) removes that file and every directory made for it."""
    grid = config.grid
    blocks = grid_fields(config.build(), grid)
    made = list(takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "fields.csv"
    part = out_dir / "fields.csv.part"
    x_cells = ["%.17g" % x for x in grid.x_points().tolist()]
    try:
        with part.open("w") as fh:
            fh.write("x,t,P,D,C,R\n")
            for levels, fields in blocks:
                for j, t in enumerate(levels.tolist()):
                    t_cell = "%.17g" % t
                    fh.write(_csv_rows([f"{x},{t_cell}" for x in x_cells],
                                       [field[j] for field in fields]))
    except BaseException:
        part.unlink(missing_ok=True)
        for directory in made:
            directory.rmdir()
        raise
    os.replace(part, path)
    print(f"wrote {path} ({grid.nx * grid.nt} rows)")
    return 0


def _cmd_verify(config: RunConfig, tol_override: float | None,
                out_dir: Path | None) -> int:
    rows = run_suite(config.build(), config.grid, config.tolerances, tol_override)

    width = max(len(row[1]) for row in rows) + 2
    for _, name, _, value, threshold, ok in rows:
        if isinstance(threshold, tuple):
            bound = f"in [{threshold[0]:g}, {threshold[1]:g}]"
        else:
            bound = f"<= {threshold:g}"
        print(f"{name:<{width}} {value:12.3e}  {bound:<18} "
              f"{'PASS' if ok else 'FAIL'}")
    all_ok = all(row[-1] for row in rows)
    print("verification:", "PASS" if all_ok else "FAIL")

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {"passed": all_ok, "residuals": {}}
        for key, _, record, *_ in rows:
            if isinstance(record, ResidualReport):
                payload["residuals"][key] = record.as_dict()
            else:
                payload[key] = record
        path = out_dir / "verify_report.json"
        path.write_text(json.dumps(payload, indent=2, default=asdict) + "\n")
        print(f"wrote {path}")
    return 0 if all_ok else 1


def _fig_systems():
    family = RadialOscillatorFamily(OscillatorParams(1.0, 1.0))
    primary = build_case_b(family, alpha=1.0, n=3, s=1, n_prime=1, s_prime=3,
                           coeff_a=1.0, coeff_b=3.0)
    return (("fig1", primary), ("fig2", swap(primary)))


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


def _cmd_emit_fig(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    header = "x," + ",".join(f"t={t:g}" for t in _FIG_TIMES) + "\n"
    x_cells = ["%.17g" % x for x in _FIG_GRID.tolist()]
    for tag, system in _fig_systems():
        fields = eval_fields(system, _FIG_GRID[None, :],
                             np.array(_FIG_TIMES)[:, None])
        for name, columns in zip("PDCR", fields):
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
        return _cmd_emit_fig(out_dir)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
