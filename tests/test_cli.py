"""CLI behaviour: exit codes, CSV round-trips, deterministic exports."""

import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from susycdr import verify
from susycdr.cdr import eval_fields
from susycdr.cli import (_FIG_GRID, _FIG_TIMES, _TOP_FIELDS, DEFAULT_CONFIG,
                         ConfigError, _fig_systems, main, parse_config, run)

# Every config that some command refuses: its commands, exit code and the
# substring of its one stderr line (CI runs it through the console script).
_TABLE = json.loads((Path(__file__).parent / "refusals.json").read_text())
REFUSALS = {entry["id"]: entry for entry in _TABLE}
# Table entries that a test runs under a name of its own; test_refusal, at
# the end of this module, runs every other entry.
_NAMED = set()


def runs(*ids):
    """Decorator: the test runs the table entries ``ids`` itself."""
    _NAMED.update(ids)
    return lambda test: test


def refusal_cases(*ids, label=None):
    """pytest params (entry id, command), one per command of each table
    entry in ``ids``, which the parametrized test runs. Each is labelled
    ``label`` (a format of ``id`` and ``command``); by default the entry id,
    followed by the command when the entry runs more than one."""
    runs(*ids)
    return [pytest.param(entry, command, id=(label or (
        "{id}-{command}" if len(REFUSALS[entry]["commands"]) > 1 else "{id}"))
        .format(id=entry, command=command))
        for entry in ids for command in REFUSALS[entry]["commands"]]


@pytest.fixture
def refused(tmp_path, capsys, monkeypatch):
    """check(entry id, command) runs the command in process on the table
    entry's config, with every warning an error, and asserts the entry's
    exit code with nothing on stdout, no ``--out`` directory left behind, no
    oracle run and one stderr line holding the entry's substring, which it
    returns."""
    def no_oracle(*args):
        raise AssertionError("an oracle ran")

    monkeypatch.setattr(verify, "schrodinger_residual", no_oracle)

    def check(entry_id, command):
        entry = REFUSALS[entry_id]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(entry["config"]))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["--config", str(config), "--out", str(out), command])
        captured = capsys.readouterr()
        assert (code, captured.out) == (entry["exit"], "")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.err.startswith("error: ")
        assert entry["stderr"] in captured.err
        assert not out.exists()
        return captured.err.rstrip("\n")

    return check


def write_config(tmp_path, **overrides):
    data = dict(DEFAULT_CONFIG)
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestParseConfig:
    def test_default_config_is_valid(self):
        config = parse_config(DEFAULT_CONFIG)
        system = config.build()
        assert system.y_state.energy == 8.0

    def test_missing_field_named(self):
        bad = {k: v for k, v in DEFAULT_CONFIG.items() if k != "omega"}
        with pytest.raises(ConfigError, match="omega"):
            parse_config(bad)

    def test_index_constraint_named(self):
        bad = dict(DEFAULT_CONFIG, n=2)
        with pytest.raises(ConfigError, match="n \\+ s == n_prime \\+ s_prime"):
            parse_config(bad)

    def test_bad_case_named(self):
        with pytest.raises(ConfigError, match="case"):
            parse_config(dict(DEFAULT_CONFIG, case="case_c"))

    def test_non_numeric_field_rejected(self):
        with pytest.raises(ConfigError, match="ell"):
            parse_config(dict(DEFAULT_CONFIG, ell="one"))

    @pytest.mark.parametrize("data,field", [
        ({"case": "fpe", "s": 1, "n": 2, "m": 5, "n_prime": 7}, "m"),
        ({"case": "case_a", "n": 2, "m": 1, "s": 0}, "s"),
        ({"case": "case_b", "n": 3, "s": 1, "n_prime": 1, "s_prime": 3,
          "m": 0}, "m"),
    ], ids=["fpe", "case_a", "case_b"])
    def test_other_case_index_field_named(self, data, field):
        # an unread index field would run on a system it does not describe
        base = {"omega": 1.0, "ell": 1.0, "alpha": 0.8}
        with pytest.raises(ConfigError, match=(
                f"config field '{field}' is not read by case {data['case']}$")):
            parse_config({**base, **data})

    def test_fpe_and_case_a_index_requirements(self):
        fpe = {"omega": 1.0, "ell": 1.0, "alpha": 1.0, "case": "fpe",
               "s": 0, "n": 0}
        assert parse_config(fpe).build().case_tag.value == "fpe"
        with pytest.raises(ConfigError, match="'m'"):
            parse_config({"omega": 1.0, "ell": 1.0, "alpha": 1.0,
                          "case": "case_a", "n": 1})


@pytest.mark.parametrize("entry,command", refusal_cases(
    "tolerance-str", "tolerances-list", "A-null", "A-str", "omega-nan",
    "alpha-inf", "alpha-zero", "alpha-negative", "grid-too-large",
    "unknown-key", "grid-unknown-key", "tolerances-unknown-key",
    "omega-huge-int", "tolerance-huge-int"))
def test_bad_number_field_exits_2_naming_it(refused, entry, command):
    refused(entry, command)


@pytest.mark.parametrize("entry,command", refusal_cases(
    "negative", "zero", "ratio-lo-zero", "ratio-band-reversed",
    "ratio-band-empty"))
def test_tolerance_not_above_0_or_empty_band_exits_2(refused, entry, command):
    # a bound like that fails its row on every system: a config error, as
    # with --tol, not a verification failure
    refused(entry, command)


@pytest.mark.parametrize("entry,command",
                         refusal_cases("ell-1e306", label="{command}"))
def test_ell_at_the_float_limit_exits_2_naming_it(refused, entry, command):
    # ln Gamma(n + ell + s + 3/2) of the states' normalization overflows
    assert refused(entry, command).startswith(
        "error: ell + s = 1e+306 is too large")


@pytest.mark.parametrize("entry,command", refusal_cases("fpe-n", "case_b-s"))
def test_index_beyond_float_range_exits_2_naming_it(refused, entry, command):
    # the states' normalization converts n + 1 to a float, which overflows
    assert refused(entry, command) == f"error: {REFUSALS[entry]['stderr']}"


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_bad_tol_exits_2_naming_it(capsys, value):
    assert run(["--tol", value, "verify"]) == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["build"], 0),
    (["--tol", "nan", "verify"], 2),
])
def test_main_exits_with_run_code(monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["susycdr", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == code


class TestBuildCommand:
    def test_default_build_succeeds(self, capsys):
        assert run(["build"]) == 0
        out = capsys.readouterr().out
        assert "case_b" in out
        assert "alpha=1" in out

    @runs("index-constraint")
    def test_constraint_violation_exits_2(self, refused):
        refused("index-constraint", "build")

    def test_unreadable_config_exits_2(self, tmp_path):
        assert run(["--config", str(tmp_path / "nope.json"), "build"]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["--config", str(path), "build"]) == 2


def _fmt17(value) -> str:
    """One value as the CSV writer has always printed it."""
    return format(float(value), ".17g")


@pytest.mark.parametrize("command", ["eval", "emit-fig", "verify"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command, below):
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker / "sub" if below else blocker
    assert run(["--out", str(out), command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --out {out}: {blocker} is not a directory\n")
    assert blocker.read_text() == "keep"


class TestEvalCommand:
    def test_csv_roundtrip_bit_exact(self, tmp_path, capsys):
        # nt = 37 writes blocks of 16, 16 and 5 time levels
        for nt in (3, 37):
            config = write_config(
                tmp_path,
                grid={"x_min": 0.5, "x_max": 2.0, "nx": 8,
                      "t_min": 0.5, "t_max": 2.0, "nt": nt},
            )
            out_dir = tmp_path / f"out{nt}"
            assert run(["--config", str(config), "--out", str(out_dir),
                        "eval"]) == 0
            lines = (out_dir / "fields.csv").read_text().splitlines()
            assert lines[0] == "x,t,P,D,C,R"
            assert len(lines) == 1 + 8 * nt

            system = parse_config(json.loads(config.read_text())).build()
            ts = np.linspace(0.5, 2.0, nt)
            for k, row in enumerate(lines[1:]):
                x, t, p, d, c, r = (float(v) for v in row.split(","))
                assert t == ts[k // 8]
                pe, de, ce, re = eval_fields(system, x, t)
                assert (p, d, c, r) == (pe, de, ce, re)  # bit-for-bit

    @pytest.mark.parametrize("cfg", [
        {"omega": 1.3, "ell": 0.8, "alpha": 1.0, "case": "fpe", "s": 1,
         "n": 2, "grid": {"nx": 37, "nt": 3}},
        {"omega": 0.9, "ell": 1.5, "alpha": 0.7, "case": "case_a", "n": 2,
         "m": 1, "grid": {"nx": 23, "nt": 4}},
        dict(DEFAULT_CONFIG, grid={"x_min": 0.3, "x_max": 6.0, "nx": 45,
                                   "t_min": 0.4, "t_max": 3.0, "nt": 3}),
    ], ids=["fpe", "case_a", "case_b"])
    def test_csv_bytes_match_per_value_writer(self, tmp_path, capsys, cfg):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert run(["--config", str(config), "--out", str(out_dir), "eval"]) == 0
        parsed = parse_config(cfg)
        grid, system = parsed.grid, parsed.build()
        lines = ["x,t,P,D,C,R"]
        for t in grid.t_points():
            fields = eval_fields(system, grid.x_points(), float(t))
            for i, x in enumerate(grid.x_points()):
                lines.append(",".join(
                    _fmt17(v) for v in (x, t, *(f[i] for f in fields))))
        path = out_dir / "fields.csv"
        assert path.read_text() == "\n".join(lines) + "\n"
        assert capsys.readouterr().out == (
            f"wrote {path} ({grid.nx * grid.nt} rows)\n")

    @runs("ell-1e200-omega-4", "ell-1e200-omega-1", "ell-1e200-nt40")
    @pytest.mark.parametrize("entry,command", [
        pytest.param("ell-1e200-omega-4", "eval", id="4.0-1e+200-1600"),
        pytest.param("ell-1e200-omega-1", "eval", id="1.0-1e+200-1600"),
        pytest.param("ell-1e200-omega-4", "verify", id="verify-4.0-1e+200-1600"),
        pytest.param("ell-1e200-omega-1", "verify", id="verify-1.0-1e+200-1600"),
        # three blocks of levels: the count is summed over all of them
        pytest.param("ell-1e200-nt40", "eval", id="4.0-1e+200-400-nt40"),
        pytest.param("ell-1e200-nt40", "verify", id="verify-4.0-1e+200-400-nt40"),
    ])
    def test_non_finite_field_exits_2_before_writing(self, refused, entry,
                                                     command):
        # L_2^a(q) is about a^2 / 2, which overflows for a = ell + 1/2 = 1e200
        refused(entry, command)

    def test_non_finite_field_leaves_an_existing_out_dir_as_it_was(
            self, tmp_path, capsys):
        # the CSV is streamed to a file beside fields.csv; the error comes
        # after the last block and removes that file, the old CSV stays
        config = tmp_path / "config.json"
        config.write_text(json.dumps(REFUSALS["ell-1e200-nt40"]["config"]))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "fields.csv").write_text("old\n")
        assert run(["--config", str(config), "--out", str(out_dir), "eval"]) == 2
        assert "field P is not finite" in capsys.readouterr().err
        assert [p.name for p in out_dir.iterdir()] == ["fields.csv"]
        assert (out_dir / "fields.csv").read_text() == "old\n"

    @pytest.mark.parametrize("entry,command", refusal_cases(
        "x_min-1e-170-case_b", label="{command}"))
    def test_overflowing_fields_exit_2_without_runtime_warnings(
            self, refused, entry, command):
        # q = omega x^2 / 2 underflows to 0 at x_min = 1e-170 and the slope
        # of the diffusion state divides by it; grid_fields counts the
        # non-finite values itself, as numpy's divide and overflow warnings
        # would escape run() as errors here
        refused(entry, command)

    # nt is the small grid; the check also runs 4 nt levels
    @pytest.mark.parametrize("nt", [100])
    def test_peak_memory_does_not_grow_with_nt(self, tmp_path, capsys,
                                               peak_growth_check, nt):
        # eval writes one block of levels at a time; the (nt, nx) fields of
        # the whole grid are 1.3 MB at nt = 400
        def run_eval(levels):
            config = write_config(tmp_path, grid={"nx": 100, "nt": levels})
            assert run(["--config", str(config), "--out",
                        str(tmp_path / "out"), "eval"]) == 0

        peak_growth_check(run_eval, nt, 4 * nt, 1_500_000)

    @pytest.mark.parametrize("omega,ell", [(4.0, 285.0), (1.0, 300.0)],
                             ids=["4.0-285.0", "1.0-300.0"])
    def test_large_ell_fields_are_finite(self, tmp_path, capsys, omega, ell):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"omega": omega, "ell": ell, "alpha": 1.0,
                                      "case": "fpe", "n": 2, "s": 0}))
        out_dir = tmp_path / "out"
        with np.errstate(over="raise", invalid="raise"):
            assert run(["--config", str(config), "--out", str(out_dir),
                        "eval"]) == 0
        rows = np.loadtxt(out_dir / "fields.csv", delimiter=",", skiprows=1)
        assert rows.shape == (1600, 6)
        assert np.all(np.isfinite(rows))
        assert np.any(rows[:, 2] != 0.0)


class TestVerifyCommand:
    def test_default_verify_passes(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_table_rows_in_order(self, capsys):
        assert run(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = [
            ("schrodinger residual (solution)", "<= 1e-08"),
            ("schrodinger residual (diffusion)", "<= 1e-08"),
            ("reduced-equation residual", "<= 1e-08"),
            ("pde residual (analytic)", "<= 1e-08"),
            ("orthonormality deviation", "<= 1e-08"),
            ("time-stepper error ratio (2x refinement)", "in [3.5, 4.5]"),
        ]
        assert len(lines) == len(expected) + 1
        for line, (label, bound) in zip(lines, expected):
            pattern = rf"{re.escape(label)} +\S+  {re.escape(bound)} +PASS"
            assert re.fullmatch(pattern, line), line
        assert lines[-1] == "verification: PASS"

    def test_tol_overrides_every_single_bound_row(self, capsys):
        assert run(["--tol", "1e-3", "verify"]) == 0
        rows = capsys.readouterr().out.splitlines()[:-1]
        assert len(rows) == 6
        for row in rows[:5]:
            assert "  <= 0.001 " in row, row
        assert "  in [3.5, 4.5] " in rows[5]

    @runs("negative-B")
    def test_negative_diffusion_exits_2_naming_b(self, refused):
        # D = B u_sigma is negative next to x = 0: no domain to step on
        refused("negative-B", "verify")

    @runs("node-below-x_min")
    def test_diffusion_node_below_x_min_exits_2_naming_it(self, refused):
        # the diffusion profile's first node at t = 1 lies near x = 0.181,
        # below grid.x_min = 0.2
        refused("node-below-x_min", "verify")

    def test_gram_integrates_through_the_configured_degree(
            self, tmp_path, monkeypatch):
        gram_n_max = []
        gram = verify.orthonormality_matrix

        def recorded(family, s, n_max):
            gram_n_max.append(n_max)
            return gram(family, s, n_max)

        monkeypatch.setattr(verify, "orthonormality_matrix", recorded)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"omega": 1.0, "ell": 1.0, "alpha": 0.8,
                                      "case": "fpe", "s": 1, "n": 6}))
        assert run(["--config", str(config), "verify"]) == 0
        assert gram_n_max == [6]

    @pytest.mark.parametrize("indices", [{"case": "fpe", "n": 1, "s": 0},
                                         {"case": "case_a", "n": 0, "m": 1}],
                             ids=["fpe", "case_a"])
    def test_diffusion_node_on_a_scan_sample_passes(self, tmp_path, capsys,
                                                    indices):
        # D's first node at z = 2 is found, so the stepper runs on x <= 1.9
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"omega": 1.0, "ell": 0.5, "alpha": 1.0,
                                      **indices}))
        assert run(["--config", str(config), "verify"]) == 0
        assert capsys.readouterr().out.endswith("verification: PASS\n")

    def test_absurd_tolerance_fails_with_exit_1(self, capsys):
        assert run(["--tol", "1e-20", "verify"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("omega,ell,x_lo", [(4.0, 285.0, "10.8819"),
                                                (1.0, 300.0, "22.3809")],
                             ids=["4.0-285.0", "1.0-300.0"])
    def test_large_ell_outcome(self, tmp_path, capsys, omega, ell, x_lo):
        # The states peak near x = 12 at (4, 285) and x = 24.5 at (1, 300),
        # beyond the grid's x_max = 8, which holds only their tails: every
        # residual row would pass on values near 1e-70 of the peak. The
        # classically allowed interval starts at x_lo, so verify refuses.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"omega": omega, "ell": ell, "alpha": 1.0,
                                      "case": "fpe", "n": 2, "s": 0}))
        out = tmp_path / "report"
        with np.errstate(over="raise", invalid="raise"):
            assert run(["--config", str(config), "--out", str(out),
                        "verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"config field 'grid.x_max' = 8 lies below x = {x_lo}"
                in captured.err)
        assert "solution state (n=2, s=0)" in captured.err
        assert f"omega={omega:g}, ell={ell:g}" in captured.err
        assert not out.exists()

    @runs("grid-above-interval")
    def test_grid_above_the_allowed_interval_exits_2(self, refused):
        # u_2 of (omega, ell) = (1, 1) is classically allowed on
        # [0.558, 5.07]; a grid from x = 7.5 on holds only its tail
        assert ("solution state (n=2, s=0) for omega=1, ell=1"
                in refused("grid-above-interval", "verify"))

    @pytest.mark.parametrize("entry,command", refusal_cases(
        "every-level", "from-the-second-level", "last-level-of-two-blocks"))
    def test_p_zero_on_a_whole_time_level_exits_2_before_any_oracle(
            self, refused, entry, command):
        # the grid holds u_0 near t = 1 only: at the other levels it lies
        # near x = 1414 t, off the grid, and P underflows to 0 on every x,
        # where the pde row would pass on zeros
        refused(entry, command)

    # nt is the small grid; the check also runs 4 nt levels
    @pytest.mark.parametrize("nt", [100])
    def test_peak_memory_does_not_grow_with_nt(self, tmp_path, capsys,
                                               peak_growth_check, nt):
        # the oracles and the field checks hold one block of levels at a
        # time; the (nt, nx) fields of the whole grid are 1.3 MB at nt = 400
        def run_verify(levels):
            config = write_config(tmp_path, grid={"nx": 100, "nt": levels})
            assert run(["--config", str(config), "verify"]) == 0

        peak_growth_check(run_verify, nt, 4 * nt, 1_500_000)

    def test_json_report_written_when_out_given(self, tmp_path):
        out = tmp_path / "report"
        assert run(["--out", str(out), "verify"]) == 0
        data = json.loads((out / "verify_report.json").read_text())
        assert data["passed"] is True
        assert data["residuals"]["pde_analytic"]["max_rel"] <= 1e-8
        assert data["residuals"]["pde_analytic"]["mode"] == "analytic"
        assert 3.5 <= data["evolve"]["error_ratio"] <= 4.5


@pytest.fixture(scope="module")
def fig_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    assert run(["--out", str(out), "emit-fig"]) == 0
    return out


class TestEmitFigCommand:
    def test_all_files_written(self, fig_dir):
        for tag in ("fig1", "fig2"):
            for field in "PDCR":
                assert (fig_dir / f"{tag}_{field}.csv").exists()
        assert (fig_dir / "plot_figures.gp").exists()

    def test_deterministic_bytes(self, fig_dir, tmp_path):
        again = tmp_path / "again"
        assert run(["--out", str(again), "emit-fig"]) == 0
        for name in ("fig1_P.csv", "fig2_R.csv", "plot_figures.gp"):
            assert (again / name).read_bytes() == (fig_dir / name).read_bytes()

    def test_csv_bytes_match_per_value_writer(self, fig_dir):
        header = "x," + ",".join(f"t={t:g}" for t in _FIG_TIMES)
        for tag, system in _fig_systems():
            levels = [eval_fields(system, _FIG_GRID, t) for t in _FIG_TIMES]
            for k, name in enumerate("PDCR"):
                lines = [header]
                for i, x in enumerate(_FIG_GRID):
                    cells = [_fmt17(x)] + [_fmt17(lv[k][i]) for lv in levels]
                    lines.append(",".join(cells))
                text = (fig_dir / f"{tag}_{name}.csv").read_text()
                assert text == "\n".join(lines) + "\n", f"{tag}_{name}.csv"

    def test_reaction_columns_negate_between_figures(self, fig_dir):
        r1 = np.loadtxt(fig_dir / "fig1_R.csv", delimiter=",", skiprows=1)
        r2 = np.loadtxt(fig_dir / "fig2_R.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(r1[:, 0], r2[:, 0])
        assert np.max(np.abs(r1[:, 1:] + r2[:, 1:])) <= 1e-12 * np.max(
            np.abs(r1[:, 1:])
        )

    def test_solution_zero_crossings_match_level_indices(self, fig_dir):
        # the fig1 solution level is n = 3, the fig2 one is n' = 1
        for tag, expected in (("fig1", 3), ("fig2", 1)):
            data = np.loadtxt(fig_dir / f"{tag}_P.csv", delimiter=",",
                              skiprows=1)
            for col in (1, 2, 3):
                vals = data[:, col]
                vals = vals[vals != 0.0]
                changes = int(np.sum(vals[:-1] * vals[1:] < 0.0))
                assert changes == expected


class TestConsoleEntry:
    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "susycdr.cli", "build"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "case_b" in out.stdout

    @pytest.mark.parametrize("command", ["verify", "eval"])
    def test_never_imports_scipy(self, tmp_path, command):
        # importing scipy.linalg alone doubles the resident set
        code = ("import sys\n"
                "from susycdr.cli import run\n"
                f"code = run(['--out', {str(tmp_path)!r}, {command!r}])\n"
                "print(code, 'scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "0 False"

    def test_unknown_command_exits_2(self):
        out = subprocess.run(
            [sys.executable, "-m", "susycdr.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert out.returncode == 2


# test_refusal comes last: it runs the table entries that no test above
# runs under a name of its own.
@pytest.mark.parametrize("entry,command", refusal_cases(
    *(entry for entry in REFUSALS if entry not in _NAMED)))
def test_refusal(refused, entry, command):
    refused(entry, command)


def test_refusal_table_is_well_formed():
    # a typo in the table must not pass vacuously
    assert len(REFUSALS) == len(_TABLE)  # ids are unique
    paths = {*_TOP_FIELDS, *(f"{section}.{key}"
                             for section in ("grid", "tolerances")
                             for key in DEFAULT_CONFIG[section])}
    for entry in _TABLE:
        assert entry["exit"] == 2
        assert entry["commands"]
        assert set(entry["commands"]) <= {"build", "eval", "verify"}
        assert len(set(entry["commands"])) == len(entry["commands"])
        assert entry["field"] in entry["stderr"]
        # an unknown key is refused by its own name; every other refusal
        # names a field that some case reads
        unknown = entry["stderr"].endswith(" is not known")
        assert (entry["field"] in paths) != unknown, entry["id"]


def test_readme_lists_every_refusal():
    rows = [f"| `{entry['field']}` | {entry['condition']} | "
            f"{', '.join(entry['commands'])} |" for entry in _TABLE]
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert "\n".join(rows) + "\n\n" in readme
