"""Tests of the benchmark's inputs, output checks and tracing.

Run from the repository root:

    python3 -m pytest -q perfbench

Each check must pass on the package's real output and must flag the
output once it is corrupted the way a defect would corrupt it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from susycdr import cdr, cli, quantum, verify

import checks
import inputs
import spans
import workloads

HERE = Path(__file__).resolve().parent


def _configs():
    return inputs.export_sweep(seed=7, per_case=1, nx=40, nt=3)


class TestInputs:
    def test_same_seed_same_inputs(self):
        assert inputs.sweep(3, 2) == inputs.sweep(3, 2)
        assert inputs.sweep(3, 2) != inputs.sweep(4, 2)

    def test_every_seed_has_the_same_shape(self):
        def shape(configs):
            return [(c["case"], c["n"], c.get("m"), c.get("n_prime"))
                    for c in configs]

        for seed in range(50):
            configs = inputs.sweep(seed, 3)
            assert shape(configs) == shape(inputs.sweep(0, 3))
            assert [c["case"] for c in configs] == list(inputs.CASES) * 3
            for c in configs:
                cli.parse_config(c)
                if c["case"] == "case_b":
                    assert c["n_prime"] != c["n"]
                    assert c["n"] + c["s"] == c["n_prime"] + c["s_prime"]


class TestFieldChecks:
    @pytest.mark.parametrize("cfg", _configs(), ids=lambda c: c["case"])
    def test_closed_form_matches_package(self, cfg):
        system = cli.parse_config(cfg).build()
        x = np.linspace(0.1, 7.0, 200)
        for t in (0.4, 1.0, 2.3):
            want = checks.closed_form_fields(cfg, x, t)
            got = cdr.eval_fields(system, x, t)
            for w, g in zip(want, got):
                scale = max(np.max(np.abs(w)), 1e-300)
                assert np.max(np.abs(w - g)) <= checks.FIELD_RTOL * scale

    def _eval(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.run(["--config", str(path), "eval", "--out",
                        str(tmp_path)]) == 0
        system = cli.parse_config(cfg).build()
        return tmp_path / "fields.csv", (
            lambda x, t: cdr.eval_fields(system, x, t))

    def test_real_output_passes(self, tmp_path):
        cfg = _configs()[2]
        csv_path, fields = self._eval(tmp_path, cfg)
        assert checks.check_fields_csv(csv_path, cfg, fields) == []

    def test_lost_digit_breaks_round_trip(self, tmp_path):
        cfg = _configs()[2]
        csv_path, fields = self._eval(tmp_path, cfg)
        lines = csv_path.read_text().splitlines()
        x, t, p, rest = lines[5].split(",", 3)
        lines[5] = ",".join([x, t, format(float(p), ".15g"), rest])
        csv_path.write_text("\n".join(lines) + "\n")
        problems = checks.check_fields_csv(csv_path, cfg, fields)
        assert any("round-trip" in p for p in problems)

    def test_wrong_system_fails_closed_form(self, tmp_path):
        cfg = _configs()[2]
        csv_path, fields = self._eval(tmp_path, cfg)
        problems = checks.check_fields_csv(csv_path, dict(cfg, B=cfg["B"] * 1.01),
                                           fields)
        flagged = {p.split(" ")[1][0] for p in problems}
        assert flagged == {"D", "C", "R"}

    def test_missing_rows_reported(self, tmp_path):
        cfg = _configs()[0]
        csv_path, fields = self._eval(tmp_path, cfg)
        csv_path.write_text("\n".join(csv_path.read_text().splitlines()[:-1]))
        assert "shape" in checks.check_fields_csv(csv_path, cfg, fields)[0]

    def test_figures_swap_antisymmetry(self, tmp_path):
        assert cli.run(["emit-fig", "--out", str(tmp_path)]) == 0
        assert checks.check_figures(tmp_path) == []
        shutil.copy(tmp_path / "fig1_R.csv", tmp_path / "fig2_R.csv")
        assert checks.check_figures(tmp_path) != []


class TestGramCheck:
    @pytest.mark.parametrize("omega,ell,s", [(1.0, 1.0, 0), (0.7, 1.8, 3)])
    def test_gauss_laguerre_gram_is_identity(self, omega, ell, s):
        gram = checks.gauss_laguerre_gram(omega, ell, s, 8)
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-12

    def test_package_gram_passes_and_perturbed_fails(self):
        family = quantum.RadialOscillatorFamily(quantum.OscillatorParams(1.3, 0.8))
        gram = verify.orthonormality_matrix(family, 2, n_max=4)
        assert checks.check_gram(gram, 1.3, 0.8, 2) == []
        gram[1, 3] += 1e-6
        assert checks.check_gram(gram, 1.3, 0.8, 2) != []


class TestVerifyReportCheck:
    def _report(self, tmp_path):
        assert cli.run(["verify", "--out", str(tmp_path)]) == 0
        return json.loads((tmp_path / "verify_report.json").read_text())

    def test_real_report_passes(self, tmp_path):
        assert checks.check_verify_report(self._report(tmp_path), 0) == []

    def test_defects_reported(self, tmp_path):
        report = self._report(tmp_path)
        assert checks.check_verify_report(report, 1) != []
        first_order = json.loads(json.dumps(report))
        entries = first_order["evolve"]["entries"]
        entries[1][2] = entries[0][2] / 2.0
        assert any("order" in p
                   for p in checks.check_verify_report(first_order, 0))
        skewed = dict(report, orthonormality_deviation=1e-6)
        assert checks.check_verify_report(skewed, 0) != []


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_one_round_passes_its_checks(self, name, tmp_path, monkeypatch):
        wl_class = workloads.WORKLOADS[name]
        monkeypatch.setattr(wl_class, "PER_CASE", 1)
        wl = wl_class(seed=5, out_dir=tmp_path)
        assert all(wl.run(i) for i in range(len(wl)))
        assert wl.check(range(len(wl))) == []

    def test_audit_flags_wrong_node_count_and_gram(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workloads.Audit, "PER_CASE", 1)
        monkeypatch.setattr(workloads.Audit, "N_MAX", 3)
        wl = workloads.Audit(seed=2, out_dir=tmp_path)
        assert wl.run(2)
        wl.results[2]["nodes"][0] += 1
        gram = next(iter(wl.results[2]["gram"].values()))
        gram[0, 0] += 1e-6
        problems = wl.check([2])
        assert any("node_count" in p for p in problems)
        assert any("Gram" in p for p in problems)


class TestSpans:
    def _traced_audit_item(self, tmp_path):
        wl = workloads.Audit(seed=1, out_dir=tmp_path)
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            wl.run(0)
        return tracer

    def test_instrument_restores_the_package(self, tmp_path):
        before = (cli.run, verify.eval_fields, verify.integrate,
                  quantum.Eigenstate.__call__, quantum.laguerre_values)
        self._traced_audit_item(tmp_path)
        after = (cli.run, verify.eval_fields, verify.integrate,
                 quantum.Eigenstate.__call__, quantum.laguerre_values)
        assert before == after

    def test_counts_repeat_and_spans_nest(self, tmp_path):
        first = self._traced_audit_item(tmp_path)
        second = self._traced_audit_item(tmp_path)
        a, b = first.summary(), second.summary()
        for name in spans.COUNT_METRICS:
            assert a[name] == b[name], name
        assert a["verify.orthonormality_matrix.entries"] == 81
        assert a["mathfn.integrate.calls"] == 81
        assert a["verify.pde_residual.points"] == 400 * (200 + 20)
        names = [first.names[i] for i in first.name_id]
        parents = list(first.parent)
        for name, parent in zip(names, parents):
            if name.startswith("kernels.laguerre_values"):
                assert names[parent].startswith(("quantum.", "mathfn."))
            if name.startswith("verify."):
                assert parent == -1
        assert set(a) == set(spans.PER_LAYER_UNITS) - {"trace.overhead_s"}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
