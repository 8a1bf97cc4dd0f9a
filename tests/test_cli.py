"""CLI behaviour: exit codes, CSV round-trips, deterministic exports."""

import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from susycdr import verify
from susycdr.cdr import eval_fields
from susycdr.cli import (_FIG_GRID, _FIG_TIMES, DEFAULT_CONFIG, ConfigError,
                         _fig_systems, main, parse_config, run)


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


@pytest.mark.parametrize("override,field", [
    ({"tolerances": {"pde_rel": "x"}}, "tolerances.pde_rel"),
    ({"tolerances": [1, 2]}, "tolerances"),
    ({"A": None}, "A"),
    ({"A": "abc"}, "A"),
    ({"omega": float("nan")}, "omega"),
    ({"alpha": float("inf")}, "alpha"),
    ({"alpha": 0.0}, "alpha"),
    ({"alpha": -0.5}, "alpha"),
    ({"grid": {"nx": 10 ** 9}}, "grid"),
    ({"tolerence": {"pde_rel": 1e-20}}, "tolerence"),
    ({"grid": {"xmax": 3.0}}, "grid.xmax"),
    ({"tolerances": {"pde": 1e-20}}, "tolerances.pde"),
    # JSON integers beyond float range
    ({"omega": 10 ** 400}, "omega"),
    ({"tolerances": {"pde_rel": 10 ** 400}}, "tolerances.pde_rel"),
], ids=["tolerance-str", "tolerances-list", "A-null", "A-str", "omega-nan",
        "alpha-inf", "alpha-zero", "alpha-negative", "grid-too-large",
        "unknown-key", "grid-unknown-key", "tolerances-unknown-key",
        "omega-huge-int", "tolerance-huge-int"])
def test_bad_number_field_exits_2_naming_it(tmp_path, capsys, override, field):
    path = write_config(tmp_path, **override)
    assert run(["--config", str(path), "verify"]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("tolerances,field", [
    ({"pde_rel": -1}, "tolerances.pde_rel"),
    ({"pde_rel": 0}, "tolerances.pde_rel"),
    ({"evolve_ratio_lo": 0.0}, "tolerances.evolve_ratio_lo"),
    ({"evolve_ratio_lo": 5, "evolve_ratio_hi": 4}, "tolerances.evolve_ratio_hi"),
    ({"evolve_ratio_lo": 4, "evolve_ratio_hi": 4}, "tolerances.evolve_ratio_hi"),
], ids=["negative", "zero", "ratio-lo-zero", "ratio-band-reversed",
        "ratio-band-empty"])
def test_tolerance_not_above_0_or_empty_band_exits_2(tmp_path, capsys,
                                                     tolerances, field):
    # a bound like that fails its row on every system: a config error, as
    # with --tol, not a verification failure
    path = write_config(tmp_path, tolerances=tolerances)
    assert run(["--config", str(path), "verify"]) == 2
    captured = capsys.readouterr()
    assert f"config field '{field}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["build", "eval", "verify"])
def test_ell_at_the_float_limit_exits_2_naming_it(tmp_path, capsys, command):
    # ln Gamma(n + ell + s + 3/2) of the states' normalization overflows
    path = write_config(tmp_path, ell=1e306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["--config", str(path), "--out", str(tmp_path / "out"),
                    command])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ell + s = 1e+306 is too large")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["build", "eval", "verify"])
@pytest.mark.parametrize("indices,field", [
    ({"case": "fpe", "s": 1, "n": 10 ** 400}, "n"),
    ({"case": "case_b", "n": 3, "s": 10 ** 400, "n_prime": 1,
      "s_prime": 10 ** 400 + 2}, "s"),
], ids=["fpe-n", "case_b-s"])
def test_index_beyond_float_range_exits_2_naming_it(tmp_path, capsys, command,
                                                     indices, field):
    # the states' normalization converts n + 1 to a float, which overflows
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"omega": 1.0, "ell": 1.0, "alpha": 0.8, **indices}))
    code = run(["--config", str(path), "--out", str(tmp_path / "out"), command])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (f"error: config field '{field}' is beyond float range "
                   "(401 digits)\n")
    assert not (tmp_path / "out").exists()


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

    def test_constraint_violation_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, n=2)
        assert run(["--config", str(path), "build"]) == 2
        assert "n + s == n_prime + s_prime" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command,omega,ell,grid,bad,total", [
        pytest.param("eval", 4.0, 1e200, {}, 1600, 1600, id="4.0-1e+200-1600"),
        pytest.param("eval", 1.0, 1e200, {}, 1600, 1600, id="1.0-1e+200-1600"),
        pytest.param("verify", 4.0, 1e200, {}, 1600, 1600,
                     id="verify-4.0-1e+200-1600"),
        pytest.param("verify", 1.0, 1e200, {}, 1600, 1600,
                     id="verify-1.0-1e+200-1600"),
        # three blocks of levels: the count is summed over all of them
        pytest.param("eval", 4.0, 1e200, {"nx": 10, "nt": 40}, 400, 400,
                     id="4.0-1e+200-400-nt40"),
        pytest.param("verify", 4.0, 1e200, {"nx": 10, "nt": 40}, 400, 400,
                     id="verify-4.0-1e+200-400-nt40"),
    ])
    def test_non_finite_field_exits_2_before_writing(
            self, tmp_path, capsys, command, omega, ell, grid, bad, total):
        # L_2^a(q) is about a^2 / 2, which overflows for a = ell + 1/2 = 1e200
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"omega": omega, "ell": ell, "alpha": 1.0,
                                      "case": "fpe", "n": 2, "s": 0,
                                      "grid": grid}))
        out_dir = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["--config", str(config), "--out", str(out_dir), command])
        assert code == 2
        err = capsys.readouterr().err
        assert f"field P is not finite at {bad} of {total} grid points" in err
        assert f"omega={omega:g}, ell={ell:g}" in err
        assert not out_dir.exists()
        assert not list(tmp_path.rglob("*.part"))

    def test_non_finite_field_leaves_an_existing_out_dir_as_it_was(
            self, tmp_path, capsys):
        # the CSV is streamed to a file beside fields.csv; the error comes
        # after the last block and removes that file, the old CSV stays
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"omega": 4.0, "ell": 1e200, "alpha": 1.0,
                                      "case": "fpe", "n": 2, "s": 0,
                                      "grid": {"nx": 10, "nt": 40}}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "fields.csv").write_text("old\n")
        assert run(["--config", str(config), "--out", str(out_dir), "eval"]) == 2
        assert "field P is not finite" in capsys.readouterr().err
        assert [p.name for p in out_dir.iterdir()] == ["fields.csv"]
        assert (out_dir / "fields.csv").read_text() == "old\n"

    @pytest.mark.parametrize("command", ["eval", "verify"])
    def test_overflowing_fields_exit_2_without_runtime_warnings(
            self, tmp_path, capsys, command):
        # grid_fields counts the non-finite values itself; numpy's overflow
        # and divide warnings would escape run() as errors here and print
        # to stderr
        configs = [
            # the Laguerre factor of u_2 overflows
            ({"omega": 4.0, "ell": 1e200, "alpha": 1.0, "case": "fpe", "s": 0,
              "n": 2}, "field P is not finite at 1600 of 1600 grid points"),
            # q = omega x^2 / 2 underflows to 0 at x_min: the jets divide by
            # q and the potential by x^2
            (dict(DEFAULT_CONFIG, grid=dict(DEFAULT_CONFIG["grid"], x_min=1e-170)),
             "field C is not finite at 4 of 1600 grid points"),
        ]
        for data, message in configs:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(data))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run(["--config", str(config), "--out",
                            str(tmp_path / "out"), command])
            assert code == 2
            err = capsys.readouterr().err
            assert f"error: {message}" in err
            assert "RuntimeWarning" not in err
            assert err.count("\n") == 1

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

    def test_negative_diffusion_exits_2_naming_b(self, tmp_path, capsys):
        # D = B u_sigma is negative next to x = 0: no domain to step on
        config = write_config(tmp_path, B=-3.0)
        assert run(["--config", str(config), "verify"]) == 2
        captured = capsys.readouterr()
        assert "(B = -3)" in captured.err
        assert captured.out == ""

    def test_diffusion_node_below_x_min_exits_2_naming_it(self, tmp_path,
                                                          capsys):
        # the diffusion profile's first node at t = 1 lies near x = 0.181,
        # below grid.x_min = 0.2
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "omega": 25.0, "ell": 0.5, "alpha": 1.0, "case": "fpe", "n": 8,
            "s": 0, "grid": {"x_min": 0.2, "x_max": 2.0}}))
        assert run(["--config", str(config), "verify"]) == 2
        err = capsys.readouterr().err
        assert "'grid.x_min' = 0.2 must lie below x = 0.171923" in err

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

    @pytest.mark.parametrize("key, indices", [
        ("n", {"case": "fpe", "s": 1, "n": 9}),
        ("m", {"case": "case_a", "n": 1, "m": 9}),
        ("n_prime", {"case": "case_b", "n": 0, "s": 9, "n_prime": 9,
                     "s_prime": 0}),
    ])
    def test_degree_above_8_exits_2_before_any_oracle(
            self, tmp_path, monkeypatch, capsys, key, indices):
        def no_oracle(*args):
            raise AssertionError("an oracle ran")

        monkeypatch.setattr(verify, "schrodinger_residual", no_oracle)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"omega": 1.0, "ell": 1.0, "alpha": 0.8,
                                      **indices}))
        assert run(["--config", str(config), "verify"]) == 2
        captured = capsys.readouterr()
        assert f"config field '{key}' must be at most 8" in captured.err
        assert captured.out == ""

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

    def test_grid_above_the_allowed_interval_exits_2(self, tmp_path, capsys):
        # u_2 of (omega, ell) = (1, 1) is classically allowed on
        # [0.558, 5.07]; a grid from x = 7.5 on holds only its tail
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "omega": 1.0, "ell": 1.0, "alpha": 1.0, "case": "fpe", "n": 2,
            "s": 0, "grid": {"x_min": 7.5, "x_max": 9.0}}))
        assert run(["--config", str(config), "verify"]) == 2
        err = capsys.readouterr().err
        assert "config field 'grid.x_min' = 7.5 lies above x = 5.06839" in err
        assert "solution state (n=2, s=0) for omega=1, ell=1" in err

    @pytest.mark.parametrize("t_min, t_max, nt, t_zero", [
        (0.5, 2.5, 4, "0.5"), (1.0, 2.5, 4, "1.5"), (1.0, 1.04, 20, "1.04")],
        ids=["every-level", "from-the-second-level", "last-level-of-two-blocks"])
    def test_p_zero_on_a_whole_time_level_exits_2_before_any_oracle(
            self, tmp_path, monkeypatch, capsys, t_min, t_max, nt, t_zero):
        # the grid holds u_0 near t = 1 only: at the other levels it lies
        # near x = 1414 t, off the grid, and P underflows to 0 on every x,
        # where the pde row would pass on zeros
        def no_oracle(*args):
            raise AssertionError("an oracle ran")

        monkeypatch.setattr(verify, "schrodinger_residual", no_oracle)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "omega": 1.0, "ell": 1e6, "alpha": 1.0, "case": "fpe", "s": 0,
            "n": 0, "grid": {"x_min": 1400.0, "x_max": 1430.0,
                             "t_min": t_min, "t_max": t_max, "nt": nt}}))
        assert run(["--config", str(config), "verify"]) == 2
        captured = capsys.readouterr()
        assert ("config field 'grid': P is 0 at every x in [1400, 1430] at "
                f"time level t = {t_zero} ") in captured.err
        assert captured.out == ""

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
