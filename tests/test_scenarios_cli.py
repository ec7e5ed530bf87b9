import csv
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from odlab import cli, errors, fileio, propagators
from odlab.cli import main
from odlab.dynamics import OrbitParams, PolarPhaseState, hamiltonian
from odlab.errors import ConfigError
from odlab.scenarios import (ScenarioConfig, builtin_scenarios, desk_case,
                             paper_case, study_cases)


class TestScenarioConfig:
    def test_roundtrip(self):
        sc = builtin_scenarios()[2]
        back = ScenarioConfig.from_dict(sc.to_dict())
        assert back == sc

    def test_unknown_field_rejected(self):
        d = builtin_scenarios()[1].to_dict()
        d["n_sample"] = 99
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(d)
        assert "n_sample" in str(err.value)
        # the semi-major axis is not a scenario field
        d = {**builtin_scenarios()[1].to_dict(), "a": 15945.3425}
        with pytest.raises(ConfigError, match=r"unknown scenario fields: \['a'\]"):
            ScenarioConfig.from_dict(d)

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"name": "x", "phi0": 1.0})
        assert "e0" in str(err.value)

    def test_validation_messages(self):
        base = builtin_scenarios()[1].to_dict()
        for field, bad in [("e0", 1.5), ("delta_phi", -1.0),
                           ("dt_snap", 0.3), ("n_1d", 4),
                           ("method", "euler"), ("rel_tol", 0.0),
                           ("abs_tol", math.inf), ("phi0", math.nan),
                           ("branch_start", math.nan), ("t_final", math.nan),
                           ("t_final", math.inf), ("dt_snap", math.nan),
                           ("C", math.inf), ("n_1d", 41), ("n_grid", 10_001),
                           ("n_bins1", 100_000_000)]:
            with pytest.raises(ConfigError):
                ScenarioConfig.from_dict({**base, field: bad})
        # the size bounds themselves are accepted
        ScenarioConfig.from_dict({**base, "n_1d": 39, "n_grid": 10_000,
                                  "n_bins1": 1000, "n_bins2": 1000})

    def test_builtin_table(self):
        scs = builtin_scenarios()
        assert set(scs) == {1, 2, 3}
        s1, s2, s3 = scs[1], scs[2], scs[3]
        assert (s1.phi0, s1.e0) == (2.2069, 0.145)
        assert s1.delta_phi == math.pi / 8 and s1.delta_e == 0.05
        assert (s1.t_final, s1.dt_snap) == (2.0, 0.5)
        assert (s2.phi0, s2.e0) == (0.5419, 0.095)
        assert s2.t_final == 3.0
        assert (s3.phi0, s3.e0) == (0.3004, 0.23)
        assert s3.branch_start == -math.pi
        for sc in scs.values():
            assert sc.C == 0.15 and sc.W == 0.409

    def test_initial_gaussian_covariance(self):
        sc = builtin_scenarios()[1]
        g = sc.initial_gaussian()
        np.testing.assert_allclose(np.diag(g.cov),
                                   [(sc.delta_phi / 2) ** 2,
                                    (sc.delta_e / 2) ** 2])
        assert g.cov[0, 1] == 0.0

    def test_paper_cases(self):
        base = builtin_scenarios()[1]
        mc = paper_case(base, "mc")
        assert (mc.n_sam, mc.n_bins1) == (100_000, 50)
        d961 = paper_case(base, "dee-961")
        assert (d961.n_sam, d961.n_grid, d961.n_bins1) == (961, 1000, 20)
        assert not d961.jacobian_correction
        d1e5 = paper_case(base, "dee-1e5")
        assert (d1e5.n_sam, d1e5.n_grid) == (100_000, 5000)
        gm = paper_case(base, "gmmut")
        assert gm.n_1d == 39
        assert (gm.rel_tol, gm.abs_tol) == (1e-8, 1e-10)
        for sc in (mc, d961, d1e5):
            assert (sc.rel_tol, sc.abs_tol) == (1e-12, 1e-14)
        with pytest.raises(ConfigError):
            paper_case(base, "dee-962")

    def test_desk_case(self):
        base = builtin_scenarios()[2]
        sc = desk_case(base, "dee")
        assert (sc.n_sam, sc.n_grid, sc.n_bins1) == (10_000, 500, 30)
        assert not sc.jacobian_correction
        assert desk_case(base, "mc").jacobian_correction
        # every desk method integrates at the GMM-UT paper tolerance, so
        # desk and paper mixtures are the same
        paper = paper_case(base, "gmmut")
        assert (paper.rel_tol, paper.abs_tol) == (1e-8, 1e-10)
        for method in ("mc", "dee", "gmmut"):
            sc = desk_case(base, method)
            assert (sc.rel_tol, sc.abs_tol) == (paper.rel_tol, paper.abs_tol)

    def test_zero_horizon_snapshot_times(self):
        sc = ScenarioConfig(name="still", phi0=1.0, e0=0.2, delta_phi=0.1,
                            delta_e=0.01, t_final=0.0, dt_snap=0.5)
        np.testing.assert_array_equal(sc.snapshot_times(), [0.0])

    def test_snapshot_times_exact(self):
        np.testing.assert_array_equal(builtin_scenarios()[1].snapshot_times(),
                                      [0.0, 0.5, 1.0, 1.5, 2.0])


class TestFileio:
    def test_yaml_config(self, tmp_path):
        path = tmp_path / "override.yaml"
        path.write_text("seed: 9\nn_sam: 500\n")
        assert fileio.load_config(path) == {"seed": 9, "n_sam": 500}

    def test_yaml_scenario_block(self, tmp_path):
        path = tmp_path / "nested.yaml"
        path.write_text("scenario:\n  seed: 4\nn_grid: 100\n")
        assert fileio.load_config(path) == {"seed": 4, "n_grid": 100}

    def test_manifest_keys_skipped(self, tmp_path):
        path = tmp_path / "manifest.json"
        fileio.write_manifest(path, builtin_scenarios()[3], command="compare",
                              timings={"total_s": 1.0},
                              extra={"cases": ["MC"]})
        assert fileio.load_config(path) == builtin_scenarios()[3].to_dict()
        # hand-written keys beside the block still reach the field check,
        # write_manifest's own ones too unless command and timings_s are there
        for extra in ('"sed": 5', '"cases": ["MC"]', '"command": "run"'):
            path.write_text('{"scenario": {"seed": 4}, %s}' % extra)
            with pytest.raises(ConfigError, match="unknown scenario fields"):
                ScenarioConfig.from_dict(fileio.load_config(path))
        path.write_text('{"seed": [4}')
        with pytest.raises(ConfigError, match="line 1"):
            fileio.load_config(path)

    def test_floats_without_dot(self, tmp_path):
        # YAML 1.2 floats; YAML 1.1 alone would read these as strings
        path = tmp_path / "tol.yaml"
        path.write_text("rel_tol: 1e-8\nabs_tol: 1E+2\nphi0: -.5e1\nseed: 7\n")
        assert fileio.load_config(path) == {"rel_tol": 1e-8, "abs_tol": 100.0,
                                            "phi0": -5.0, "seed": 7}
        sc = ScenarioConfig.from_dict({**builtin_scenarios()[3].to_dict(),
                                       **fileio.load_config(path)})
        assert sc.rel_tol == 1e-8
        path.write_text("")
        assert fileio.load_config(path) == {}

    def test_yaml_errors(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: [unclosed\n")
        with pytest.raises(ConfigError):
            fileio.load_config(bad)
        notmap = tmp_path / "list.yaml"
        notmap.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            fileio.load_config(notmap)
        with pytest.raises(ConfigError):
            fileio.load_config(tmp_path / "missing.yaml")

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(fileio.ENV_OUT_DIR, str(tmp_path / "envout"))
        assert fileio.output_root(None) == tmp_path / "envout"
        assert fileio.output_root(tmp_path / "explicit") == tmp_path / "explicit"
        monkeypatch.delenv(fileio.ENV_OUT_DIR)
        assert fileio.output_root(None) == Path("out")


@pytest.fixture
def fast_config(tmp_path):
    cfg = tmp_path / "fast.yaml"
    cfg.write_text("n_sam: 300\nn_grid: 60\nn_bins1: 10\nn_bins2: 10\n"
                   "t_final: 0.5\ndt_snap: 0.5\n")
    return cfg


class TestCli:
    def test_run_mc_writes_artifacts(self, tmp_path, fast_config, capsys):
        out = tmp_path / "o1"
        rc = main(["run", "--method", "mc", "--scenario", "1",
                   "--config", str(fast_config), "--out", str(out)])
        assert rc == 0
        root = out / "run-s1-mc"
        assert (root / "moments.csv").exists()
        assert (root / "joint_t0.csv").exists()
        assert (root / "joint_t0.5.csv").exists()
        assert (root / "marginal_phi_t0.5.csv").exists()
        assert (root / "marginal_e_t0.5.csv").exists()
        assert (root / "timing.json").exists()
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["scenario"]["n_sam"] == 300
        captured = capsys.readouterr().out
        assert "mu_phi" in captured and "wrote" in captured

    def test_run_manifest_records_counters(self, tmp_path, fast_config):
        rc = main(["run", "--method", "dee", "--scenario", "1",
                   "--config", str(fast_config), "--out", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "run-s1-dee" / "manifest.json"
        counters = json.loads(path.read_text())["counters"]
        assert set(counters) == {"n_failed", "n_clamped", "steps_accepted",
                                 "steps_rejected"}
        assert counters["steps_accepted"] > 0 and counters["n_failed"] == 0
        # the manifest with its counters still loads back as the config
        sc = ScenarioConfig.from_dict(fileio.load_config(path))
        assert sc.method == "dee" and sc.n_sam == 300

    def test_run_reproducible_bytes(self, tmp_path, fast_config):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(["run", "--method", "dee", "--scenario", "2",
                       "--config", str(fast_config), "--seed", "5",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out / "run-s2-dee")
        for name in ("moments.csv", "joint_t0.5.csv", "marginal_phi_t0.5.csv",
                     "marginal_e_t0.5.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_run_gmmut(self, tmp_path, fast_config):
        out = tmp_path / "g"
        rc = main(["run", "--method", "gmmut", "--scenario", "1",
                   "--config", str(fast_config), "--out", str(out)])
        assert rc == 0
        moments = (out / "run-s1-gmmut" / "moments.csv").read_text()
        first_row = moments.splitlines()[1].split(",")
        assert first_row[0] == "GMM-UT"
        # initial moments echo the scenario Gaussian
        assert abs(float(first_row[2]) - 2.2069) < 1e-3
        assert abs(float(first_row[3]) - math.pi / 16) < 1e-3
        assert abs(float(first_row[4]) - 0.145) < 1e-3
        assert abs(float(first_row[5]) - 0.025) < 1e-3

    @pytest.mark.parametrize("method, label", [("mc", "MC"), ("gmmut", "GMM-UT")])
    def test_run_csv_layout(self, tmp_path, fast_config, method, label):
        assert main(["run", "--method", method, "--scenario", "1",
                     "--config", str(fast_config), "--out", str(tmp_path)]) == 0
        root = tmp_path / f"run-s1-{method}"
        for name, comments, header, n_rows in (
                ("joint_t0.5.csv", ["axes = phi,e"],
                 "phi_center,e_center,phi_lo,phi_hi,e_lo,e_hi,density", 100),
                ("marginal_e_t0.5.csv", [], "e_center,e_lo,e_hi,density", 10)):
            text = (root / name).read_bytes().decode()
            lines = text.split("\n")
            assert lines.pop() == ""
            # comment lines end in \n, csv rows in \r\n
            want = [f"# method = {label}", "# time = 0.5"] + [f"# {c}" for c in comments]
            assert lines[:len(want)] == want
            rows = lines[len(want):]
            assert rows[0] == header + "\r"
            assert len(rows) == 1 + n_rows
            for row in rows[1:]:
                assert row.endswith("\r")
                cells = row[:-1].split(",")
                assert len(cells) == header.count(",") + 1
                assert all(c == format(float(c), ".17g") for c in cells)

    def test_config_cannot_switch_method(self, tmp_path, fast_config, capsys):
        cfg = tmp_path / "dee.yaml"
        cfg.write_text(fast_config.read_text() + "method: dee\n")
        rc = main(["run", "--method", "mc", "--config", str(cfg),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "method" in capsys.readouterr().err
        assert not (tmp_path / "x" / "run-s1-mc").exists()
        rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert not (tmp_path / "x").exists()
        # restating the method of the case being run stays allowed
        rc = main(["run", "--method", "dee", "--config", str(cfg),
                   "--out", str(tmp_path / "y")])
        assert rc == 0
        manifest = json.loads(
            (tmp_path / "y" / "run-s1-dee" / "manifest.json").read_text())
        assert manifest["scenario"]["method"] == "dee"

    def test_compare_writes_errors_and_timing(self, tmp_path, fast_config):
        out = tmp_path / "c"
        rc = main(["compare", "--scenario", "1", "--config", str(fast_config),
                   "--out", str(out)])
        assert rc == 0
        root = out / "compare-s1"
        text = (root / "moments.csv").read_text()
        for label in ("MC", "DEE", "GMM-UT"):
            assert label in text
        errs = (root / "errors.csv").read_text()
        assert "DEE" in errs and "MC" not in errs.splitlines()[1].split(",")[0]
        timing = json.loads((root / "timing.json").read_text())
        assert timing["reference_method"] == "MC"
        methods = {row["method"] for row in timing["cases"]}
        assert methods == {"MC", "DEE", "GMM-UT"}
        for row in timing["cases"]:
            assert row["t_calculation_s"] >= 0.0
            assert row["t_calculation_s"] == pytest.approx(
                row["t_propagation_s"] + row["t_interpolation_s"])
            assert row["propagation_share"] + row["interpolation_share"] \
                == pytest.approx(1.0)
            if row["method"] == "MC":
                assert row["normalized_t_calculation"] == pytest.approx(1.0)
        # per-case counters, each those of a lone run; the manifest still
        # loads back as the MC case's config
        overrides = fileio.load_config(fast_config)
        cases = {label: ScenarioConfig.from_dict({**sc.to_dict(), **overrides})
                 for label, sc in study_cases(builtin_scenarios()[1], paper=False)}
        path = root / "manifest.json"
        counters = json.loads(path.read_text())["counters"]
        assert ScenarioConfig.from_dict(fileio.load_config(path)) == cases["MC"]
        assert list(counters) == ["MC", "DEE", "GMM-UT"]
        for label, case in cases.items():
            assert counters[label] == propagators.run(case).counters()

    def test_portrait_artifacts(self, tmp_path):
        out = tmp_path / "p"
        rc = main(["portrait", "--out", str(out)])
        assert rc == 0
        root = out / "portrait"
        stat = (root / "stationary_points.csv").read_text()
        assert stat.count("saddle") == 2
        assert stat.count("center") == 3
        labels = (root / "labels.csv").read_text()
        for lab in ("SubD1", "SubD2", "SubD3"):
            assert lab in labels
        assert (root / "contours.csv").read_text().count("level") == 1

    @staticmethod
    def assert_contours_on_level(root, params):
        with open(root / "contours.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            level = float(row["level"])
            h = hamiltonian(PolarPhaseState(float(row["phi"]), float(row["e"])),
                            params)
            assert abs(h - level) <= 1e-12 * abs(level)

    def test_portrait_contours_on_level(self, tmp_path):
        assert main(["portrait", "--out", str(tmp_path)]) == 0
        self.assert_contours_on_level(tmp_path / "portrait",
                                      OrbitParams(C=0.15, W=0.409))

    def test_manifest_reruns_case(self, tmp_path):
        args = ["run", "--scenario", "3", "--method", "gmmut"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        first = tmp_path / "a" / "run-s3-gmmut"
        assert main(args + ["--config", str(first / "manifest.json"),
                            "--out", str(tmp_path / "b")]) == 0
        names = sorted(p.name for p in first.glob("*.csv"))
        assert names
        for name in names:
            again = tmp_path / "b" / "run-s3-gmmut" / name
            assert again.read_bytes() == (first / name).read_bytes()

    def test_portrait_without_labels(self, tmp_path, capsys):
        # C = 0.5 has one center at phi = pi and no saddle: the stationary
        # points and level curves are defined, the scenario labels are not
        assert main(["portrait", "--C", "0.5", "--out", str(tmp_path)]) == 0
        root = tmp_path / "portrait"
        assert sorted(p.name for p in root.iterdir()) == ["contours.csv",
                                                          "stationary_points.csv"]
        assert "labels.csv left out" in capsys.readouterr().out
        stat = (root / "stationary_points.csv").read_text()
        assert stat.count("center") == 1 and "saddle" not in stat
        self.assert_contours_on_level(root, OrbitParams(C=0.5, W=0.409))

    def test_portrait_failure_leaves_no_directory(self, tmp_path, capsys):
        # level curves need C > 0, so C = 0 fails before anything is written
        rc = main(["portrait", "--C", "0", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "InvalidParameterError" in err[0]
        assert not (tmp_path / "portrait").exists()

    def test_split_lib_output(self, tmp_path):
        out = tmp_path / "lib"
        rc = main(["split-lib", "--n-components", "3", "--out", str(out)])
        assert rc == 0
        text = (out / "split_library_3.csv").read_text()
        assert len(text.splitlines()) >= 4

    def test_env_out_dir(self, tmp_path, fast_config, monkeypatch):
        monkeypatch.setenv(fileio.ENV_OUT_DIR, str(tmp_path / "fromenv"))
        rc = main(["run", "--method", "mc", "--scenario", "1",
                   "--config", str(fast_config)])
        assert rc == 0
        assert (tmp_path / "fromenv" / "run-s1-mc" / "moments.csv").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("no_such_field: 1\n")
        rc = main(["run", "--method", "mc", "--config", str(cfg),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_values_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad2.yaml"
        cfg.write_text("e0: 2.0\n")
        rc = main(["run", "--method", "mc", "--config", str(cfg),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("line", ["n_sam: 1e5", "seed: 1.5",
                                      "rel_tol: -1.0", "abs_tol: .nan",
                                      "branch_start: .nan", "t_final: .inf",
                                      "dt_snap: .nan", "e0: 0.99",
                                      "delta_e: 0.5", "n_1d: 41",
                                      "n_bins1: 100000000", "t_final: 1.0e-12"])
    def test_mistyped_value_exit_code(self, tmp_path, capsys, monkeypatch,
                                      line):
        # YAML reads 1e5 as a string; a float seed is no seed; tolerances
        # and non-finite values are checked with the config, before any run
        # directory exists, and so are the split-library and size bounds.
        # A positive t_final shorter than one dt_snap (2e-12 of the desk's
        # 0.5) lies within the divisibility slack of 0 but is no horizon.
        # A drawn cloud with samples at e <= 0 or past the disk edge is
        # refused before the integrator starts.
        def no_integration(*args, **kwargs):
            raise AssertionError("integrator called")
        monkeypatch.setattr(propagators, "integrate_batch", no_integration)
        cfg = tmp_path / "typo.yaml"
        cfg.write_text(line + "\n")
        rc = main(["run", "--method", "mc", "--config", str(cfg),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        domain = line.startswith(("e0", "delta_e"))
        assert ("DomainError" if domain else "config error") \
            in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cls", [
        c for _, c in inspect.getmembers(errors, inspect.isclass)
        if issubclass(c, Exception) and c is not ConfigError])
    def test_run_error_one_line(self, tmp_path, capsys, monkeypatch, cls):
        # a run failing with any odlab error prints one line naming the
        # error type, no traceback
        exc = cls("boom")

        def fail(sc):
            raise exc
        monkeypatch.setattr(cli, "run", fail)
        rc = main(["run", "--method", "dee", "--out", str(tmp_path / "x")])
        assert rc != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert cls.__name__ in err[0] and "boom" in err[0]
        assert not (tmp_path / "x").exists()
