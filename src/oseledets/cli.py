"""Config-driven experiment runner.

A config is a JSON document with driver, generator and analysis blocks;
numbers may be written as decimals or exact rationals "num/den" (the
exact Ulam path keeps rational endpoints exact).  ``ExperimentConfig``
reads a config in one pass: it checks every field and builds the driver,
the maps and any constant or tabulated matrices, reporting a rejected
value as a ``ConfigError`` that names its field.  Each run writes
report.json plus trace_*.csv files into the output directory and returns
a report dict; the ulam task's trace of each matrix lists its nonzeros as
row, col, value triplets.  report.json is strict JSON: a non-finite float (a dead
column's exponent, say) is written as the string "inf", "-inf" or "nan".

Subcommands: spectrum, splitting, ulam, diagnose, sobolev, batch, presets.
Exit status: 0 every check passed; 1 a check or a batch entry failed;
2 a config or stage error.  ``batch`` reads every entry before it runs
any, so a malformed entry stops it before any work.  The output directory
is ``--out``, else the config's ``out``, else ``out``; ``batch`` writes
``exp_NNN/`` under ``--out`` or ``out``.

Run with ``OPENBLAS_NUM_THREADS=1``: the blocked QR pass works on matrices
too small for BLAS threads to pay, and on a 2-core machine OpenBLAS's
default of two threads made a 400-step spectrum of a 256-bin Ulam mixture
1.1 to 1.5 times slower (measured with per-step QR).
"""

import argparse
import csv
import json
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from .base import (BernoulliShift, FiniteCycle, IrrationalRotation,
                   MarkovShift, ParameterError, generate_orbit, shift_view)
from .cocycle import CocycleGenerator
from .grassmann import NORM_TAGS
from .spectrum import hennion_kappa_bound, lyapunov_exponents
from .splitting import check_equivariance, compute_splitting
from .transfer import (PiecewisePolynomial, RandomLYSystem,
                       buzzi_swap_cocycle, continuity_probe, doubling_map,
                       full_branch_affine, kappa_star_bound, ly_bound_B,
                       perturbed_doubling, random_ulam_cocycle, sin_doubling,
                       tripling_map, ulam_matrix)

__all__ = ["ConfigError", "ExperimentConfig", "run", "list_presets", "main"]

TASKS = ("spectrum", "splitting", "ulam", "diagnose", "sobolev")

_EPILOG = ("exit status: 0 every check passed; 1 a check or a batch entry "
           "failed; 2 a config or stage error.  batch reads every entry "
           "before it runs any.  A spectrum reports the levels above its "
           "cut: report.json gives the columns the QR pass kept as 'cut' "
           "and, when the exponents go on below them, the top rate of the "
           "open cluster they end in as 'below_cut', an estimate "
           "(below_cut_label) of the largest unreported exponent, not a "
           "certified bound (null when every exponent is reported).  Set "
           "OPENBLAS_NUM_THREADS=1: BLAS threads slow the blocked QR pass "
           "down.")


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"config field {path!r}: {message}")
        self.path = path
        self.message = message


class StageError(RuntimeError):
    def __init__(self, stage, exc):
        super().__init__(f"stage {stage!r} failed: {exc}")
        self.stage = stage
        self.cause = exc


@contextmanager
def _field(path):
    """Report a constructor's ParameterError as a ConfigError at path."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(path, str(exc)) from None


def _required(d, key, path):
    if key not in d:
        raise ConfigError(f"{path}.{key}" if path else key,
                          "missing required field")
    return d[key]


def _number(value, path):
    """Decimal or exact-rational ("num/den") number."""
    if isinstance(value, bool):
        raise ConfigError(path, "expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(path, f"cannot parse number {value!r}") from None
    raise ConfigError(path, f"expected a number, got {type(value).__name__}")


def _numbers(value, path):
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty list of numbers")
    return [_number(x, path) for x in value]


def _matrix(value, path):
    """A list of equal-length rows of numbers, as a float array."""
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list of rows")
    rows = [[float(x) for x in _numbers(row, path)] for row in value]
    if len({len(row) for row in rows}) > 1:
        raise ConfigError(path, "rows differ in length")
    return np.array(rows, dtype=float)


def _positive_int(value, path, minimum=1):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(path, f"expected an integer >= {minimum}")
    return value


def _object(value, path):
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    return value


def _parse_map(spec, path):
    spec = _object(spec, path)
    kind = _required(spec, "kind", path)
    if kind == "doubling":
        return doubling_map()
    if kind == "tripling":
        return tripling_map()
    if kind == "affine_full_branch":
        field = f"{path}.breakpoints"
        pts = _numbers(_required(spec, "breakpoints", path), field)
        with _field(field):
            return full_branch_affine(pts)
    if kind == "perturbed_doubling":
        field = f"{path}.delta"
        delta = _number(_required(spec, "delta", path), field)
        with _field(field):
            return perturbed_doubling(delta)
    if kind == "sin_doubling":
        field = f"{path}.rho"
        rho = float(_number(_required(spec, "rho", path), field))
        with _field(field):
            return sin_doubling(rho)
    raise ConfigError(f"{path}.kind", f"unknown map kind {kind!r}")


def _parse_driver(spec):
    spec = _object(spec, "driver")
    kind = _required(spec, "kind", "driver")
    if kind == "finite_cycle":
        return FiniteCycle(_positive_int(
            _required(spec, "period", "driver"), "driver.period"))
    if kind == "bernoulli":
        probs = _numbers(_required(spec, "probs", "driver"), "driver.probs")
        with _field("driver.probs"):
            return BernoulliShift([float(p) for p in probs])
    if kind == "markov":
        M = _matrix(_required(spec, "matrix", "driver"), "driver.matrix")
        with _field("driver.matrix"):
            driver = MarkovShift(M)
        if spec.get("initial") is not None:
            initial = [float(p) for p in
                       _numbers(spec["initial"], "driver.initial")]
            with _field("driver.initial"):
                driver = MarkovShift(M, initial=initial)
        return driver
    if kind == "rotation":
        angle = spec.get("angle")
        if angle is None or angle == "golden":
            return IrrationalRotation()
        with _field("driver.angle"):
            return IrrationalRotation(float(_number(angle, "driver.angle")))
    raise ConfigError("driver.kind", f"unknown driver kind {kind!r}")


def _check_alphabet(driver, entries, path):
    """Every state the driver can emit must select one of ``entries`` (a
    list, or a dict keyed by state); the error names the first missing
    entry.  A rotation's point theta in [0, 1) selects entry round(theta)."""
    if isinstance(driver, FiniteCycle):
        states = range(driver.period)
    elif isinstance(driver, BernoulliShift):
        states = range(driver.alphabet_size)
    elif isinstance(driver, MarkovShift):
        states = range(driver.matrix.shape[0])
    else:
        states = range(2)
    keyed = isinstance(entries, dict)
    for state in states:
        if state not in (entries if keyed else range(len(entries))):
            field = f"{path}.{state}" if keyed else f"{path}[{state}]"
            raise ConfigError(field, f"the driver can emit state {state}, "
                                     f"which selects no entry of {path}")


class ExperimentConfig:
    """One experiment, read in a single pass; carries the raw dict for
    echoing.

    Every field is checked here and the stateless objects are built: the
    driver, the map list with its ``RandomLYSystem``, and the generator of
    a constant or tabulated cocycle.  ``run`` builds only the Ulam
    generators, whose stores of assembled states (nonzeros, and a window
    of dense matrices) hold per-run state.
    """

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("", "config must be a JSON object")
        self.raw = raw
        self.seed = raw.get("seed", 0)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ConfigError("seed", "expected a non-negative integer")
        self.out = raw.get("out")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out", "expected a directory path string")
        self.analysis = self._parse_analysis(_required(raw, "analysis", ""))
        self.task = self.analysis["task"]
        self.driver = self.generator = self.system = None
        self.generator_kind = self.maps = self.n_bins = None
        if self.task == "sobolev":
            return
        self.driver = _parse_driver(_required(raw, "driver", ""))
        self._parse_generator(_required(raw, "generator", ""))
        if self.task in ("ulam", "diagnose") and self.generator_kind != "ulam":
            raise ConfigError("generator.kind",
                              f"{self.task} requires an 'ulam' generator")

    def _parse_generator(self, spec):
        spec = _object(spec, "generator")
        kind = self.generator_kind = _required(spec, "kind", "generator")
        if kind == "constant":
            M = _matrix(_required(spec, "matrix", "generator"),
                        "generator.matrix")
            with _field("generator.matrix"):
                self.generator = CocycleGenerator.constant(M)
        elif kind == "tabulated":
            mats = _required(spec, "matrices", "generator")
            if isinstance(mats, dict):
                if not all(k.isdigit() for k in mats):
                    raise ConfigError("generator.matrices",
                                      "state keys must be integers >= 0")
                mats = {int(k): _matrix(v, f"generator.matrices.{k}")
                        for k, v in mats.items()}
            elif isinstance(mats, list) and mats:
                mats = [_matrix(m, f"generator.matrices[{i}]")
                        for i, m in enumerate(mats)]
            else:
                raise ConfigError("generator.matrices",
                                  "expected a non-empty list or object")
            with _field("generator.matrices"):
                self.generator = CocycleGenerator.from_table(mats)
            _check_alphabet(self.driver, mats, "generator.matrices")
        elif kind in ("ulam", "buzzi_swap"):
            self.n_bins = _positive_int(
                _required(spec, "n_bins", "generator"),
                "generator.n_bins", minimum=2)
            if kind == "ulam":
                maps = _required(spec, "maps", "generator")
                if not isinstance(maps, list) or not maps:
                    raise ConfigError("generator.maps", "expected a map list")
                self.maps = [_parse_map(m, f"generator.maps[{i}]")
                             for i, m in enumerate(maps)]
                _check_alphabet(self.driver, self.maps, "generator.maps")
                with _field("generator.maps"):
                    self.system = RandomLYSystem(self.driver, self.maps)
        else:
            raise ConfigError("generator.kind",
                              f"unknown generator kind {kind!r}")

    @staticmethod
    def _parse_analysis(spec):
        spec = _object(spec, "analysis")
        task = _required(spec, "task", "analysis")
        if task not in TASKS:
            raise ConfigError("analysis.task",
                              f"unknown task {task!r}; expected one of {TASKS}")
        out = {"task": task}
        if task in ("spectrum", "splitting"):
            out["gap_threshold"] = float(_number(
                spec.get("gap_threshold", 0.05), "analysis.gap_threshold"))
            if out["gap_threshold"] <= 0:
                raise ConfigError("analysis.gap_threshold", "must be > 0")
            norm = spec.get("norm", "l2")
            if norm not in NORM_TAGS:
                raise ConfigError("analysis.norm",
                                  f"expected one of {NORM_TAGS}")
            out["norm"] = norm
        if task == "spectrum":
            out["n"] = _positive_int(spec.get("n", 1000), "analysis.n",
                                     minimum=10)
        if task == "splitting":
            out["n_max"] = _positive_int(spec.get("n_max", 128),
                                         "analysis.n_max", minimum=8)
            out["n"] = _positive_int(spec.get("n", 4 * out["n_max"]),
                                     "analysis.n", minimum=10)
            out["tol"] = float(_number(spec.get("tol", 1e-6), "analysis.tol"))
            if out["tol"] <= 0:
                raise ConfigError("analysis.tol", "must be > 0")
            out["levels"] = None
            if spec.get("levels") is not None:
                out["levels"] = _positive_int(spec["levels"],
                                              "analysis.levels")
        if task in ("diagnose", "sobolev"):
            p = _number(_required(spec, "p", "analysis"), "analysis.p")
            if not float(p) > 1:
                raise ConfigError("analysis.p", "must be > 1")
            t = _number(_required(spec, "t", "analysis"), "analysis.t")
            out["p"], out["t"] = float(p), float(t)
        if task == "diagnose":
            if not 0 < out["t"] < 1.0 / out["p"]:
                raise ConfigError("analysis.t",
                                  "must satisfy 0 < t < 1/p")
            out["C_R"] = float(_number(spec.get("C_R", 1), "analysis.C_R"))
            if out["C_R"] < 0:
                raise ConfigError("analysis.C_R", "must be >= 0")
            out["n"] = _positive_int(spec.get("n", 6), "analysis.n")
            if out["n"] > 16:
                raise ConfigError(
                    "analysis.n",
                    "composition partitions grow exponentially; n <= 16")
        if task == "sobolev":
            if out["t"] < 0:
                raise ConfigError("analysis.t", "must be >= 0")
            grid = _positive_int(spec.get("grid", 256), "analysis.grid",
                                 minimum=2)
            if grid & (grid - 1):
                raise ConfigError("analysis.grid", "must be a power of two")
            out["grid"] = grid
            out["k_max"] = _positive_int(spec.get("k_max", 10),
                                         "analysis.k_max")
        return out


# ---------------------------------------------------------------------------
# runner


def _check(name, passed, value, tolerance, **extra):
    entry = {"name": name, "passed": bool(passed), "value": value,
             "tolerance": tolerance}
    entry.update(extra)
    return entry


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _run_spectrum(cfg, gen, timings):
    a = cfg.analysis
    t0 = time.perf_counter()
    orbit = generate_orbit(cfg.driver, cfg.seed, 0, a["n"] + 1)
    spec = lyapunov_exponents(gen, orbit, a["n"],
                              gap_threshold=a["gap_threshold"],
                              norm=a["norm"])
    timings["spectrum_s"] = time.perf_counter() - t0
    checks = []
    if spec.mle_agreement is not None:
        checks.append(_check("mle_agreement",
                             spec.mle_agreement <= a["gap_threshold"],
                             spec.mle_agreement, a["gap_threshold"]))
    if cfg.generator_kind in ("ulam", "buzzi_swap"):
        lam1 = spec.exponents[0] if spec.exponents else math.inf
        checks.append(_check("ulam_top_exponent_zero", abs(lam1) <= 1e-6,
                             float(lam1), 1e-6))
    hist_n, hist_vals = spec.convergence_history
    traces = {"trace_spectrum.csv": (
        ["n"] + [f"exp_{i + 1}" for i in range(spec.cut)],
        [[n] + [float(v) for v in vals] for n, vals in
         zip(hist_n, hist_vals)])}
    return {"spectrum": spec.to_dict()}, checks, traces


def _run_splitting(cfg, gen, timings):
    a = cfg.analysis
    n_orbit = max(a["n"], 2 * a["n_max"])
    t0 = time.perf_counter()
    orbit = generate_orbit(cfg.driver, cfg.seed, a["n_max"] + 1, n_orbit + 2)
    spec = lyapunov_exponents(gen, orbit, a["n"],
                              gap_threshold=a["gap_threshold"],
                              norm=a["norm"])
    timings["spectrum_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = compute_splitting(gen, orbit, spec, a["n_max"], a["tol"],
                               norm=a["norm"], levels=a["levels"])
    result_next = compute_splitting(gen, orbit, spec, a["n_max"], a["tol"],
                                    offset=1, norm=a["norm"],
                                    levels=a["levels"])
    timings["splitting_s"] = time.perf_counter() - t0
    equi = check_equivariance(gen, orbit, result, result_next, tol=a["tol"])
    checks = [
        _check("splitting_converged", result.converged,
               int(result.converged), a["tol"]),
        _check("equivariance",
               equi["passed"], max(equi["distances"]), 10 * a["tol"]),
    ]
    if len(spec.exponents) >= 2:
        gap = spec.exponents[0] - spec.exponents[1]
        alpha = result.convergence[0].alpha_fit
        checks.append(_check("cauchy_rate",
                             (not math.isnan(alpha)) and alpha >= gap - 0.1,
                             alpha, gap - 0.1, gap=gap))
    rows = [(lev, n, float(dist), float(af))
            for (lev, n, dist, af) in result.convergence_rows()]
    traces = {"trace_splitting.csv":
              (["level", "n", "distance", "alpha_fit"], rows)}
    results = {"spectrum": spec.to_dict(), "splitting": result.to_dict(),
               "equivariance_distances":
               [float(x) for x in equi["distances"]]}
    return results, checks, traces


def _run_ulam(cfg, gen, timings):
    t0 = time.perf_counter()
    ops = [ulam_matrix(T, cfg.n_bins) for T in cfg.maps]
    timings["ulam_s"] = time.perf_counter() - t0
    checks = []
    traces = {}
    for i, op in enumerate(ops):
        sums = op.row_sums()
        err = float(np.abs(sums - 1.0).max())
        exact_ok = True
        if op.exact:
            exact_ok = all(s == 1 for s in op.exact_row_sums())
        checks.append(_check(f"row_stochastic_map_{i}",
                             err <= 1e-12 and exact_ok, err, 1e-12,
                             exact=op.exact))
        # the nonzeros as (row, col, value) triplets, row-major
        r, c, vals = op._nonzeros
        traces[f"trace_ulam_matrix_{i}.csv"] = (
            ["row", "col", "value"],
            list(zip(r.tolist(), c.tolist(), vals.tolist())))
    results = {"ulam": [{"n_bins": op.n_bins, "exact": op.exact}
                        for op in ops]}
    return results, checks, traces


def _run_diagnose(cfg, gen, timings):
    a = cfg.analysis
    system = cfg.system
    n_spec = 400
    t0 = time.perf_counter()
    orbit = generate_orbit(cfg.driver, cfg.seed, 0, max(a["n"], n_spec) + 2)
    b_vals, kappas = [], []
    for k in range(1, a["n"] + 1):
        b_vals.append(ly_bound_B(system, orbit, k, a["p"], a["t"], a["C_R"]))
        kappas.append(kappa_star_bound(system, orbit, k, a["p"], a["t"]))
    kappa = kappas[-1]
    hennion = hennion_kappa_bound(
        lambda k: ly_bound_B(system, shift_view(orbit, k), 1, a["p"], a["t"],
                             a["C_R"]),
        a["n"])
    timings["diagnose_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    spec = lyapunov_exponents(gen, orbit, n_spec, norm="l1")
    timings["spectrum_s"] = time.perf_counter() - t0
    lam1 = spec.exponents[0] if spec.exponents else -math.inf
    checks = [
        _check("quasi_compact", kappa.certified, float(kappa.bound), 0.0),
        _check("kappa_leq_lambda1", kappa.bound <= lam1 + 1e-9,
               float(kappa.bound - lam1), 1e-9),
    ]
    results = {"kappa_star": kappa.to_dict(),
               "hennion_log_B_average": float(hennion),
               "B_series": [float(b) for b in b_vals],
               "lambda_1": float(lam1)}
    traces = {"trace_diagnose.csv": (
        ["n", "B_n", "kappa_bound_n"],
        [(k + 1, float(b), float(kb.bound))
         for k, (b, kb) in enumerate(zip(b_vals, kappas))])}
    return results, checks, traces


def _run_sobolev(cfg, gen, timings):
    a = cfg.analysis
    T = doubling_map()
    perturbs = [perturbed_doubling(Fraction(1, 2 ** k))
                for k in range(1, a["k_max"] + 1)]
    f = PiecewisePolynomial.ramp()
    t0 = time.perf_counter()
    pairs = continuity_probe(T, perturbs, f, a["p"], a["t"], n_grid=a["grid"])
    timings["probe_s"] = time.perf_counter() - t0
    norms = [nrm for _, nrm in pairs]
    decreasing = all(u > v for u, v in zip(norms, norms[1:]))
    final_small = norms[-1] < 1e-3 * norms[0] if norms[0] > 0 else False
    checks = [
        _check("probe_strictly_decreasing", decreasing,
               float(min(np.diff(norms))) if len(norms) > 1 else 0.0, 0.0),
        _check("probe_final_small", final_small,
               float(norms[-1] / norms[0]) if norms[0] else math.inf, 1e-3),
    ]
    rows = [(k + 1, float(2.0 ** -(k + 1)), float(dist), float(nrm))
            for k, (dist, nrm) in enumerate(pairs)]
    results = {"probe": {"distances": [float(d) for d, _ in pairs],
                         "norms": [float(n) for n in norms],
                         "p": a["p"], "t": a["t"], "grid": a["grid"]}}
    return results, checks, {"trace_sobolev.csv":
                             (["k", "delta", "distance", "norm"], rows)}


_RUNNERS = {"spectrum": _run_spectrum, "splitting": _run_splitting,
            "ulam": _run_ulam, "diagnose": _run_diagnose,
            "sobolev": _run_sobolev}


def run(config, out_dir=None):
    """Execute one parsed config; returns the report dict, which equals
    report.json apart from its "traces" entry.

    Builds the Ulam generator, whose stores of assembled states are
    per-run state, then runs the task; any failure is raised as a ``StageError``.
    Deterministic given the seed: rerunning produces a byte-identical
    report.json apart from the "timings" object.
    """
    timings = {}
    try:
        t0 = time.perf_counter()
        gen = config.generator
        if config.generator_kind == "ulam":
            gen = random_ulam_cocycle(config.system, config.n_bins)
        elif config.generator_kind == "buzzi_swap":
            gen = buzzi_swap_cocycle(config.n_bins)
        timings["setup_s"] = time.perf_counter() - t0
        results, checks, traces = _RUNNERS[config.task](config, gen, timings)
    except Exception as exc:
        raise StageError(config.task, exc) from exc
    report = {
        "config": config.raw,
        "task": config.task,
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "timings": timings,
    }
    # strict JSON: each non-finite float becomes the string "inf", "-inf" or
    # "nan", and the round trip makes the returned report equal the file
    report = json.loads(json.dumps(report),
                        parse_constant=lambda name: str(float(name)))
    target = out_dir or config.out
    if target is not None:
        target = Path(target)
        target.mkdir(parents=True, exist_ok=True)
        with open(target / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        for name, (header, rows) in traces.items():
            _write_csv(target / name, header, rows)
    report["traces"] = traces
    return report


# ---------------------------------------------------------------------------
# presets


def list_presets():
    """Built-in experiment catalogue; every entry validates as a config."""
    cat = {
        "constant-2x2-eigen": {
            "description": "constant [[2,1],[0,1/2]] cocycle; exponents "
                           "+-log 2 and eigen-space splitting",
            "config": {
                "seed": 0,
                "driver": {"kind": "finite_cycle", "period": 1},
                "generator": {"kind": "constant",
                              "matrix": [[2.0, 1.0], [0.0, 0.5]]},
                "analysis": {"task": "splitting", "n_max": 64, "n": 128,
                             "tol": 1e-8, "norm": "l2"},
            },
        },
        "period2-noninvertible": {
            "description": "alternating singular pair; period-product "
                           "eigenvector recovery",
            "config": {
                "seed": 0,
                "driver": {"kind": "finite_cycle", "period": 2},
                "generator": {"kind": "tabulated",
                              "matrices": [[[1.0, 1.0], [0.0, 0.0]],
                                           [[1.0, 0.0], [1.0, 0.0]]]},
                "analysis": {"task": "splitting", "n_max": 64, "n": 64,
                             "tol": 1e-6, "norm": "l2"},
            },
        },
        "doubling-ulam-64": {
            "description": "doubling map Ulam cocycle at 64 bins; top "
                           "exponent 0",
            "config": {
                "seed": 0,
                "driver": {"kind": "finite_cycle", "period": 1},
                "generator": {"kind": "ulam", "n_bins": 64,
                              "maps": [{"kind": "doubling"}]},
                "analysis": {"task": "spectrum", "n": 400, "norm": "l1"},
            },
        },
        "buzzi_swap": {
            "description": "two-interval doubling-and-swap; top exponent 0 "
                           "with multiplicity 2",
            "config": {
                "seed": 0,
                "driver": {"kind": "finite_cycle", "period": 1},
                "generator": {"kind": "buzzi_swap", "n_bins": 128},
                "analysis": {"task": "splitting", "n_max": 32, "n": 64,
                             "tol": 1e-6, "norm": "l2"},
            },
        },
        "bernoulli_mixture": {
            "description": "Bernoulli mixture of two full-branch affine "
                           "maps; Cauchy-rate testbed",
            "config": {
                "seed": 7,
                "driver": {"kind": "bernoulli", "probs": [0.5, 0.5]},
                "generator": {"kind": "ulam", "n_bins": 32,
                              "maps": [{"kind": "affine_full_branch",
                                        "breakpoints": ["0", "3/10", "1"]},
                                       {"kind": "affine_full_branch",
                                        "breakpoints": ["0", "2/5", "1"]}]},
                "analysis": {"task": "splitting", "n_max": 256, "n": 800,
                             "tol": 1e-6, "norm": "l1", "levels": 2},
            },
        },
        "doubling-diagnose": {
            "description": "Lasota-Yorke bounds for the doubling map; "
                           "quasi-compactness certificate",
            "config": {
                "seed": 0,
                "driver": {"kind": "finite_cycle", "period": 1},
                "generator": {"kind": "ulam", "n_bins": 64,
                              "maps": [{"kind": "doubling"}]},
                "analysis": {"task": "diagnose", "p": 2, "t": 0.25,
                             "C_R": 1, "n": 4},
            },
        },
        "sobolev-probe": {
            "description": "transfer-operator continuity probe along dyadic "
                           "slope perturbations of doubling",
            "config": {
                "seed": 0,
                "analysis": {"task": "sobolev", "p": 2, "t": 0.5,
                             "grid": 256, "k_max": 10},
            },
        },
    }
    return cat


# ---------------------------------------------------------------------------
# command line


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from None


def _load_config(args):
    if args.preset is not None:
        cat = list_presets()
        if args.preset not in cat:
            raise ConfigError("preset",
                              f"unknown preset {args.preset!r}; see 'presets'")
        raw = json.loads(json.dumps(cat[args.preset]["config"]))
    elif args.config is not None:
        raw = _load_json(args.config)
    else:
        raise ConfigError("", "provide --config or --preset")
    if args.seed is not None and isinstance(raw, dict):
        raw["seed"] = args.seed
    return ExperimentConfig(raw)


def _load_batch(path):
    """Every entry of a batch file, parsed before any of them runs."""
    raw = _load_json(path)
    experiments = raw.get("experiments") if isinstance(raw, dict) else None
    if not isinstance(experiments, list) or not experiments:
        raise ConfigError("experiments", "expected a non-empty list")
    configs = []
    for i, entry in enumerate(experiments):
        try:
            configs.append(ExperimentConfig(entry))
        except ConfigError as exc:
            path = f"experiments[{i}]" + (f".{exc.path}" if exc.path else "")
            raise ConfigError(path, exc.message) from None
    return configs


def _add_common(sub):
    sub.add_argument("--config", default=None, help="path to a JSON config")
    sub.add_argument("--preset", default=None, help="built-in preset name")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sub.add_argument("--out", default=None,
                     help="output directory (default: the config's 'out', "
                          "else 'out'; batch: 'out')")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="oseledets",
        description="Cocycle spectrum/splitting experiments and "
                    "transfer-operator diagnostics.",
        epilog=_EPILOG)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in TASKS:
        sub = subs.add_parser(name, help=f"run a {name} experiment")
        _add_common(sub)
    sub = subs.add_parser("batch", help="run a list of configs")
    _add_common(sub)
    subs.add_parser("presets", help="list built-in presets")
    args = parser.parse_args(argv)

    if args.command == "presets":
        for name, entry in sorted(list_presets().items()):
            print(f"{name}: {entry['description']}")
        return 0

    try:
        if args.command == "batch":
            if args.config is None:
                raise ConfigError("", "batch requires --config")
            ok = True
            for i, cfg in enumerate(_load_batch(args.config)):
                try:
                    rep = run(cfg, Path(args.out or "out") / f"exp_{i:03d}")
                except StageError as exc:
                    ok = False
                    print(f"exp_{i:03d} [{cfg.task}] error: {exc}")
                    continue
                ok = ok and rep["passed"]
                print(f"exp_{i:03d} [{cfg.task}] passed={rep['passed']}")
            return 0 if ok else 1
        cfg = _load_config(args)
        if cfg.task != args.command:
            raise ConfigError("analysis.task",
                              f"config task {cfg.task!r} does not match "
                              f"subcommand {args.command!r}")
        report = run(cfg, args.out or cfg.out or "out")
        for c in report["checks"]:
            status = "ok" if c["passed"] else "FAIL"
            print(f"[{status}] {c['name']}: value={c['value']} "
                  f"tol={c['tolerance']}")
        return 0 if report["passed"] else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
