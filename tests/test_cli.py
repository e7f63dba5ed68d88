"""Config validation, the experiment runner, and the command-line entry."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oseledets.cli import (
    ConfigError,
    ExperimentConfig,
    list_presets,
    main,
    run,
)


def _spectrum_config(**analysis):
    a = {"task": "spectrum", "n": 60}
    a.update(analysis)
    return {
        "seed": 0,
        "driver": {"kind": "finite_cycle", "period": 1},
        "generator": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
        "analysis": a,
    }


def _ulam_config(**generator):
    g = {"kind": "ulam", "n_bins": 16, "maps": [{"kind": "doubling"}]}
    g.update(generator)
    return {
        "seed": 0,
        "driver": {"kind": "finite_cycle", "period": 1},
        "generator": g,
        "analysis": {"task": "ulam"},
    }


def _malformed(*replacements):
    """An ulam config with fields replaced; replacements alternate a
    dotted field path and its value."""
    raw = _ulam_config(maps=[{"kind": "doubling"}, {"kind": "tripling"}])
    for field, value in zip(replacements[::2], replacements[1::2]):
        *parents, key = field.split(".")
        node = raw
        for part in parents:
            node = node[part]
        node[key] = value
    return raw


# each value is rejected by the constructor it is passed to, or selects a
# state the map list or matrix table does not cover, which the config
# parse reports under the field's path
MALFORMED = {
    "generator.maps[2]": ("driver", {"kind": "bernoulli",
                                     "probs": ["1/3", "1/3", "1/3"]}),
    "generator.matrices[2]": (
        "driver.period", 3,
        "generator", {"kind": "tabulated",
                      "matrices": [[[2.0, 0.0], [0.0, 1.0]],
                                   [[1.0, 0.0], [0.0, 2.0]]]}),
    "driver.probs": ("driver", {"kind": "bernoulli", "probs": [0.3, 0.3]}),
    "driver.angle": ("driver", {"kind": "rotation", "angle": 1.5}),
    "generator.maps[0].rho": ("generator.maps",
                              [{"kind": "sin_doubling", "rho": 0.5}]),
    "generator.maps[0].breakpoints": (
        "generator.maps", [{"kind": "affine_full_branch",
                            "breakpoints": ["0", "1", "1/2"]}]),
    "driver.matrix": ("driver", {"kind": "markov",
                                 "matrix": [[0.5, 0.4], [0.5, 0.5]]}),
    "generator.matrices": ("generator", {"kind": "tabulated",
                                         "matrices": [[[2.0, 0.0], [0.0, 1.0]],
                                                      [[1.0, 0.0]]]}),
    "generator.matrices[1]": ("generator", {
        "kind": "tabulated",
        "matrices": [[[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0]]]}),
    "generator.matrix": ("generator", {"kind": "constant",
                                       "matrix": [[1.0, 2.0]]}),
}


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(list_presets()))
def test_every_preset_runs_and_passes(name, tmp_path, capsys):
    task = list_presets()[name]["config"]["analysis"]["task"]
    rc = main([task, "--preset", name, "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    with open(tmp_path / "report.json") as fh:
        assert json.load(fh, parse_constant=_reject_constant)["passed"] is True


class TestConfigValidation:
    def test_accepts_minimal_spectrum(self):
        cfg = ExperimentConfig(_spectrum_config())
        assert cfg.task == "spectrum"
        assert cfg.analysis["n"] == 60

    def test_rejects_non_object(self):
        with pytest.raises(ConfigError):
            ExperimentConfig([1, 2])

    def test_rejects_bad_seed(self):
        raw = _spectrum_config()
        raw["seed"] = -1
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(raw)
        raw["seed"] = True
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(raw)

    def test_rejects_missing_analysis(self):
        raw = _spectrum_config()
        del raw["analysis"]
        with pytest.raises(ConfigError, match="analysis"):
            ExperimentConfig(raw)

    def test_rejects_unknown_task(self):
        with pytest.raises(ConfigError, match="analysis.task"):
            ExperimentConfig(_spectrum_config(task="eigen"))

    def test_rejects_missing_driver(self):
        raw = _spectrum_config()
        del raw["driver"]
        with pytest.raises(ConfigError, match="driver"):
            ExperimentConfig(raw)

    def test_rejects_unknown_driver_kind(self):
        raw = _spectrum_config()
        raw["driver"] = {"kind": "quasiperiodic"}
        with pytest.raises(ConfigError, match="driver.kind"):
            ExperimentConfig(raw)

    def test_rejects_unknown_generator_kind(self):
        raw = _spectrum_config()
        raw["generator"] = {"kind": "random"}
        with pytest.raises(ConfigError, match="generator.kind"):
            ExperimentConfig(raw)

    @pytest.mark.parametrize("driver, generator, field", [
        ({"kind": "rotation"},
         {"kind": "tabulated", "matrices": {"0": [[1.0]], "2": [[2.0]]}},
         "generator.matrices.1"),
        ({"kind": "markov", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
         {"kind": "ulam", "n_bins": 8, "maps": [{"kind": "doubling"}]},
         "generator.maps[1]"),
    ], ids=["rotation-dict-table", "markov-one-map"])
    def test_alphabet_names_missing_entry(self, driver, generator, field):
        raw = dict(_spectrum_config(), driver=driver, generator=generator)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(raw)
        assert exc.value.path == field

    def test_rejects_small_ulam_grid(self):
        raw = _spectrum_config()
        raw["generator"] = {"kind": "ulam", "n_bins": 1,
                            "maps": [{"kind": "doubling"}]}
        with pytest.raises(ConfigError, match="generator.n_bins"):
            ExperimentConfig(raw)

    def test_diagnose_requires_p_above_one(self):
        raw = {
            "seed": 0,
            "driver": {"kind": "finite_cycle", "period": 1},
            "generator": {"kind": "ulam", "n_bins": 16,
                          "maps": [{"kind": "doubling"}]},
            "analysis": {"task": "diagnose", "p": 1, "t": 0.25},
        }
        with pytest.raises(ConfigError, match="analysis.p"):
            ExperimentConfig(raw)

    def test_diagnose_requires_matching_t(self):
        raw = {
            "seed": 0,
            "driver": {"kind": "finite_cycle", "period": 1},
            "generator": {"kind": "ulam", "n_bins": 16,
                          "maps": [{"kind": "doubling"}]},
            "analysis": {"task": "diagnose", "p": 2, "t": 0.6},
        }
        with pytest.raises(ConfigError, match="analysis.t"):
            ExperimentConfig(raw)

    def test_diagnose_rejects_ulam_free_generator(self):
        raw = _spectrum_config(task="diagnose", p=2, t=0.25)
        del raw["analysis"]["n"]
        with pytest.raises(ConfigError, match="generator.kind"):
            ExperimentConfig(raw)

    def test_diagnose_caps_composition_length(self):
        raw = {
            "seed": 0,
            "driver": {"kind": "finite_cycle", "period": 1},
            "generator": {"kind": "ulam", "n_bins": 16,
                          "maps": [{"kind": "doubling"}]},
            "analysis": {"task": "diagnose", "p": 2, "t": 0.25, "n": 40},
        }
        with pytest.raises(ConfigError, match="analysis.n"):
            ExperimentConfig(raw)

    def test_rational_strings_accepted(self):
        raw = {
            "seed": 0,
            "driver": {"kind": "finite_cycle", "period": 1},
            "generator": {"kind": "ulam", "n_bins": 16,
                          "maps": [{"kind": "affine_full_branch",
                                    "breakpoints": ["0", "3/10", "1"]}]},
            "analysis": {"task": "diagnose", "p": 2, "t": "1/4"},
        }
        cfg = ExperimentConfig(raw)
        assert cfg.analysis["t"] == 0.25

    def test_rejects_unparseable_rational(self):
        raw = _spectrum_config()
        raw["generator"] = {"kind": "ulam", "n_bins": 16,
                            "maps": [{"kind": "affine_full_branch",
                                      "breakpoints": ["0", "a/b", "1"]}]}
        with pytest.raises(ConfigError, match="breakpoints"):
            ExperimentConfig(raw)

    def test_rejects_boolean_number(self):
        raw = {
            "seed": 0,
            "driver": {"kind": "finite_cycle", "period": 1},
            "generator": {"kind": "ulam", "n_bins": 16,
                          "maps": [{"kind": "doubling"}]},
            "analysis": {"task": "diagnose", "p": True, "t": 0.25},
        }
        with pytest.raises(ConfigError, match="analysis.p"):
            ExperimentConfig(raw)

    def test_splitting_levels_validation(self):
        raw = _spectrum_config(task="splitting", levels=2)
        del raw["analysis"]["n"]
        assert ExperimentConfig(raw).analysis["levels"] == 2
        raw["analysis"]["levels"] = 0
        with pytest.raises(ConfigError, match="analysis.levels"):
            ExperimentConfig(raw)

    def test_sobolev_grid_power_of_two(self):
        raw = {"seed": 0, "analysis": {"task": "sobolev", "p": 2, "t": 0.5,
                                       "grid": 100}}
        with pytest.raises(ConfigError, match="analysis.grid"):
            ExperimentConfig(raw)

    def test_sobolev_needs_no_driver(self):
        raw = {"seed": 0, "analysis": {"task": "sobolev", "p": 2, "t": 0.5}}
        cfg = ExperimentConfig(raw)
        assert cfg.task == "sobolev"
        assert cfg.analysis["grid"] == 256


class TestPresets:
    def test_catalogue_contents(self):
        cat = list_presets()
        assert "buzzi_swap" in cat
        assert len(cat) == 7
        for entry in cat.values():
            assert entry["description"]

    def test_every_preset_validates(self):
        for name, entry in list_presets().items():
            cfg = ExperimentConfig(entry["config"])
            assert cfg.task == entry["config"]["analysis"]["task"], name


class TestRun:
    def test_spectrum_run_and_outputs(self, tmp_path):
        cfg = ExperimentConfig(_spectrum_config())
        report = run(cfg, tmp_path)
        assert report["passed"]
        assert (tmp_path / "report.json").is_file()
        assert (tmp_path / "trace_spectrum.csv").is_file()
        top = report["results"]["spectrum"]["exponents"][0]
        assert top == pytest.approx(math.log(2), abs=1e-9)

    def test_report_json_matches_returned_report(self, tmp_path):
        cfg = ExperimentConfig(_spectrum_config())
        report = run(cfg, tmp_path)
        with open(tmp_path / "report.json", encoding="utf-8") as fh:
            on_disk = json.load(fh)
        for key in ("config", "task", "results", "checks", "passed"):
            assert on_disk[key] == report[key]

    def test_returned_report_equals_strict_file(self, tmp_path):
        # a dead column's exponent is -inf, written as the string "-inf"
        raw = _spectrum_config()
        raw["generator"]["matrix"] = [[2.0, 0.0], [0.0, 0.0]]
        report = run(ExperimentConfig(raw), tmp_path)
        with open(tmp_path / "report.json", encoding="utf-8") as fh:
            on_disk = json.load(fh, parse_constant=_reject_constant)
        assert on_disk == {k: v for k, v in report.items() if k != "traces"}
        assert "-inf" in on_disk["results"]["spectrum"]["raw_exponents"]

    def test_deterministic_given_seed(self, tmp_path):
        raw = {
            "seed": 3,
            "driver": {"kind": "bernoulli", "probs": [0.5, 0.5]},
            "generator": {"kind": "ulam", "n_bins": 16,
                          "maps": [{"kind": "doubling"},
                                   {"kind": "tripling"}]},
            "analysis": {"task": "spectrum", "n": 80, "norm": "l1"},
        }
        a, b = tmp_path / "a", tmp_path / "b"
        run(ExperimentConfig(raw), a)
        run(ExperimentConfig(raw), b)
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        ra.pop("timings"), rb.pop("timings")
        assert ra == rb
        assert (a / "trace_spectrum.csv").read_bytes() == \
            (b / "trace_spectrum.csv").read_bytes()

    def test_failing_check_reported_not_raised(self, tmp_path):
        # unresolved gap at a tiny step budget: converged=False is a
        # reported verdict, not an exception
        raw = {
            "seed": 0,
            "driver": {"kind": "finite_cycle", "period": 1},
            "generator": {"kind": "constant",
                          "matrix": [[math.exp(0.06), 0.0], [0.0, 1.0]]},
            "analysis": {"task": "splitting", "n_max": 8, "n": 32,
                         "tol": 1e-9},
        }
        report = run(ExperimentConfig(raw), tmp_path)
        assert not report["passed"]
        names = {c["name"]: c for c in report["checks"]}
        assert not names["splitting_converged"]["passed"]


class TestSplittingTrace:
    def test_verdict_recomputable_from_trace(self, tmp_path):
        rc = main(["splitting", "--preset", "constant-2x2-eigen",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        with open(tmp_path / "trace_splitting.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        lvl1 = [r for r in rows if r["level"] == "1"]
        # the stored rate is the least-squares slope of the logged distances
        ns = np.array([float(r["n"]) for r in lvl1])
        ds = np.array([float(r["distance"]) for r in lvl1])
        keep = ds > 1e-13
        slope = np.polyfit(ns[keep], np.log(ds[keep]), 1)[0]
        cauchy = [c for c in report["checks"] if c["name"] == "cauchy_rate"]
        assert cauchy and cauchy[0]["passed"]
        assert -slope == pytest.approx(cauchy[0]["value"], rel=1e-9)
        assert float(lvl1[-1]["alpha_fit"]) == cauchy[0]["value"]
        # the convergence verdict matches the final logged distance
        tol = report["config"]["analysis"]["tol"]
        assert (ds[-1] <= tol) == bool(
            [c for c in report["checks"]
             if c["name"] == "splitting_converged"][0]["passed"])


class TestMain:
    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "buzzi_swap" in out
        assert len(out.strip().splitlines()) == 7

    def test_exit_zero_and_check_lines(self, tmp_path, capsys):
        path = _write(tmp_path, "cfg.json", _spectrum_config())
        rc = main(["spectrum", "--config", path,
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "[ok]" in capsys.readouterr().out

    def test_exit_one_on_failing_check(self, tmp_path, capsys):
        raw = {
            "seed": 0,
            "driver": {"kind": "finite_cycle", "period": 1},
            "generator": {"kind": "constant",
                          "matrix": [[math.exp(0.06), 0.0], [0.0, 1.0]]},
            "analysis": {"task": "splitting", "n_max": 8, "n": 32,
                         "tol": 1e-9},
        }
        path = _write(tmp_path, "cfg.json", raw)
        rc = main(["splitting", "--config", path,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        raw = {
            "seed": 0,
            "driver": {"kind": "finite_cycle", "period": 1},
            "generator": {"kind": "ulam", "n_bins": 16,
                          "maps": [{"kind": "doubling"}]},
            "analysis": {"task": "diagnose", "p": 1, "t": 0.25},
        }
        path = _write(tmp_path, "cfg.json", raw)
        rc = main(["diagnose", "--config", path,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "analysis.p" in capsys.readouterr().err

    def test_exit_two_on_task_mismatch(self, tmp_path, capsys):
        path = _write(tmp_path, "cfg.json", _spectrum_config())
        rc = main(["splitting", "--config", path,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_exit_two_on_unknown_preset(self, tmp_path, capsys):
        rc = main(["spectrum", "--preset", "nope", "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_exit_two_without_config_or_preset(self, tmp_path, capsys):
        assert main(["spectrum", "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_exit_two_on_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["spectrum", "--config", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        capsys.readouterr()

    def test_seed_override_echoed(self, tmp_path, capsys):
        path = _write(tmp_path, "cfg.json", _spectrum_config())
        rc = main(["spectrum", "--config", path, "--seed", "5",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["seed"] == 5

    def test_out_defaults_to_config_field(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        raw = dict(_spectrum_config(), out="from_config")
        path = _write(tmp_path, "cfg.json", raw)
        assert main(["spectrum", "--config", path]) == 0
        assert (tmp_path / "from_config" / "report.json").exists()
        assert not (tmp_path / "out").exists()
        assert main(["spectrum", "--config", path, "--out", "explicit"]) == 0
        assert (tmp_path / "explicit" / "report.json").exists()
        path = _write(tmp_path, "plain.json", _spectrum_config())
        assert main(["spectrum", "--config", path]) == 0
        assert (tmp_path / "out" / "report.json").exists()
        capsys.readouterr()

    def test_out_must_be_a_path(self, tmp_path, capsys):
        path = _write(tmp_path, "cfg.json", dict(_spectrum_config(), out=3))
        assert main(["spectrum", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        assert "config field 'out'" in capsys.readouterr().err

    def test_ulam_task_writes_matrix_trace(self, tmp_path, capsys):
        raw = {
            "seed": 0,
            "driver": {"kind": "finite_cycle", "period": 1},
            "generator": {"kind": "ulam", "n_bins": 16,
                          "maps": [{"kind": "doubling"}]},
            "analysis": {"task": "ulam"},
        }
        path = _write(tmp_path, "cfg.json", raw)
        rc = main(["ulam", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        capsys.readouterr()
        trace = tmp_path / "out" / "trace_ulam_matrix_0.csv"
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        # sparse: one (row, col, value) triplet per nonzero, two per row
        assert rows[0] == ["row", "col", "value"]
        assert len(rows) == 1 + 2 * 16
        sums = np.zeros(16)
        for i, j, value in rows[1:]:
            assert 0 <= int(j) < 16
            sums[int(i)] += float(value)
        assert np.allclose(sums, 1.0, atol=1e-15)

    def test_diagnose_preset_certifies_doubling(self, tmp_path, capsys):
        rc = main(["diagnose", "--preset", "doubling-diagnose",
                   "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "report.json").read_text())
        ks = report["results"]["kappa_star"]
        assert ks["certified"] is True
        assert ks["bound"] == -0.25 * math.log(2)
        assert (tmp_path / "trace_diagnose.csv").is_file()

    def test_sobolev_preset_trace(self, tmp_path, capsys):
        rc = main(["sobolev", "--preset", "sobolev-probe",
                   "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        with open(tmp_path / "trace_sobolev.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        norms = [float(r["norm"]) for r in rows]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_batch_runs_numbered_experiments(self, tmp_path, capsys):
        batch = {"experiments": [
            _spectrum_config(),
            {
                "seed": 0,
                "driver": {"kind": "finite_cycle", "period": 1},
                "generator": {"kind": "ulam", "n_bins": 8,
                              "maps": [{"kind": "doubling"}]},
                "analysis": {"task": "ulam"},
            },
        ]}
        path = _write(tmp_path, "batch.json", batch)
        rc = main(["batch", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exp_000 [spectrum] passed=True" in out
        assert "exp_001 [ulam] passed=True" in out
        assert (tmp_path / "out" / "exp_000" / "report.json").is_file()
        assert (tmp_path / "out" / "exp_001" / "report.json").is_file()

    def test_batch_survives_failing_experiment(self, tmp_path, capsys):
        # l1 splitting of a 16-bin Ulam mixture without "levels": its
        # spectrum is the full pass, level 3 (multiplicity 6 in R^16) is
        # too wide for the exact l1 sup and the stage fails
        failing = {
            "seed": 7,
            "driver": {"kind": "bernoulli", "probs": [0.5, 0.5]},
            "generator": {"kind": "ulam", "n_bins": 16,
                          "maps": [{"kind": "affine_full_branch",
                                    "breakpoints": ["0", "3/10", "1"]},
                                   {"kind": "affine_full_branch",
                                    "breakpoints": ["0", "2/5", "1"]}]},
            "analysis": {"task": "splitting", "n_max": 16, "n": 32,
                         "tol": 1e-6, "norm": "l1"},
        }
        ulam = {
            "seed": 0,
            "driver": {"kind": "finite_cycle", "period": 1},
            "generator": {"kind": "ulam", "n_bins": 16,
                          "maps": [{"kind": "doubling"}]},
            "analysis": {"task": "ulam"},
        }
        path = _write(tmp_path, "batch.json",
                      {"experiments": [failing, ulam]})
        rc = main(["batch", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "exp_000 [splitting] error: stage 'splitting' failed" in out
        assert "exp_001 [ulam] passed=True" in out
        assert not (tmp_path / "out" / "exp_000").exists()
        with open(tmp_path / "out" / "exp_001" / "report.json") as fh:
            assert json.load(fh)["passed"] is True

    @pytest.mark.parametrize("path", sorted(MALFORMED))
    def test_constructor_rejection_is_config_error(self, path, tmp_path,
                                                   capsys):
        cfg = _write(tmp_path, "cfg.json", _malformed(*MALFORMED[path]))
        rc = main(["ulam", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config field {path!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad, path", [
        (_malformed("generator.maps", [{"kind": "quadrupling"}]),
         "experiments[1].generator.maps[0].kind"),
        (_malformed(*MALFORMED["driver.probs"]),
         "experiments[1].driver.probs"),
    ], ids=["unknown-map-kind", "bad-probs"])
    def test_batch_rejects_bad_entry_before_any_work(self, bad, path,
                                                     tmp_path, capsys):
        cfg = _write(tmp_path, "batch.json",
                     {"experiments": [_ulam_config(), bad, _ulam_config()]})
        rc = main(["batch", "--config", cfg, "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert rc == 2
        assert f"config field {path!r}" in err
        assert "Traceback" not in err and not out
        assert not list(tmp_path.glob("out/exp_*"))

    def test_batch_requires_config(self, capsys):
        assert main(["batch", "--out", "unused"]) == 2
        capsys.readouterr()

    def test_batch_rejects_empty_list(self, tmp_path, capsys):
        path = _write(tmp_path, "batch.json", {"experiments": []})
        assert main(["batch", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
        capsys.readouterr()


class TestProcess:
    """The command line as a separate process, as a user runs it."""

    @staticmethod
    def _cli(*args):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run([sys.executable, "-m", "oseledets.cli", *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    def test_presets(self):
        proc = self._cli("presets")
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.strip().splitlines()) == 7

    def test_malformed_config_exits_two(self, tmp_path):
        cfg = _write(tmp_path, "cfg.json",
                     _malformed(*MALFORMED["driver.probs"]))
        proc = self._cli("ulam", "--config", cfg, "--out",
                         str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "config field 'driver.probs'" in proc.stderr
        assert "Traceback" not in proc.stderr
