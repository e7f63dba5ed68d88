"""Benchmark of the oseledets package through its public Python API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run sets up once, then repeats
whole rounds of the workload's operations, closed loop in one process,
until the next round would end past ``--seconds``.  It checks every
round's outputs against properties and against the computations in
``reference.py``, and prints one JSON object as its last line.

``--trace 0`` reports the end-to-end metrics: the median round time
(``wall_s``), the median set-up time over this process and
``SETUP_PROBES`` fresh processes (``setup_s``), and this process's peak
resident memory (``peak_rss_mib``).  ``--trace 1`` alternates untraced
and traced rounds and reports the per-layer metrics of ``spans.py``;
its spans go to ``perfbench-out/``.
"""

import os

# one BLAS thread: on a 2-core machine OpenBLAS's default 2 threads make
# the N = 128 spectrum about 2x slower and far less steady.  This must be
# set before numpy is first imported, by this process or a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench-out")
sys.path.insert(0, os.path.join(ROOT, "src"))
# numpy, scipy, the package and this directory's modules that use them are
# imported inside functions, so that set-up timing sees their import cost

SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60

# mixture: Bernoulli(1/2, 1/2) over the full-branch affine maps with these
# breakpoints; continuum: perturbed_doubling(theta / 2) over the golden
# rotation, theta the rotation state as an exact binary fraction
MIXTURE_BREAKPOINTS = (Fraction(3, 10), Fraction(2, 5))
MIXTURE_BINS = 256
CONTINUUM_BINS = 128
SPECTRUM_STEPS = 400
SPLIT = {"n_bins": 128, "n": 800, "n_max": 256, "tol": 1e-6, "levels": 2}

LAMBDA1_TOL = 1e-6
LAMBDA2_TOL = 0.01
SINE_TOL = 1e-8

WORKLOADS = ("mixture-spectrum", "continuum-spectrum", "mixture-splitting",
             "geometry")


def continuum_delta(theta):
    """delta(theta) = theta / 2, exact in the float state theta."""
    return Fraction(float(theta)) / 2


# ---------------------------------------------------------------------------
# set-up: everything from before the first ``import oseledets`` to the
# first round


def setup(workload, seed, after_import=None):
    """Returns (state, timings); ``after_import`` runs before the build."""
    t0 = time.perf_counter()
    import oseledets as ose
    t1 = time.perf_counter()
    if after_import is not None:
        after_import()
    t2 = time.perf_counter()
    if workload == "geometry":
        import geometry
        state = geometry.build(ose, seed)
    elif workload == "continuum-spectrum":
        driver = ose.IrrationalRotation()
        state = {
            "system": ose.RandomLYSystem(
                driver, lambda th: ose.perturbed_doubling(continuum_delta(th))),
            "orbit": ose.generate_orbit(driver, seed, 0, SPECTRUM_STEPS + 1),
        }
    else:
        driver = ose.BernoulliShift([0.5, 0.5])
        system = ose.RandomLYSystem(
            driver, [ose.full_branch_affine([0, q, 1])
                     for q in MIXTURE_BREAKPOINTS])
        if workload == "mixture-spectrum":
            n_bins = MIXTURE_BINS
            orbit = ose.generate_orbit(driver, seed, 0, SPECTRUM_STEPS + 1)
        else:
            n_bins = SPLIT["n_bins"]
            orbit = ose.generate_orbit(
                driver, seed, SPLIT["n_max"] + 1,
                max(SPLIT["n"], 2 * SPLIT["n_max"]) + 2)
        gen = ose.random_ulam_cocycle(system, n_bins)
        for symbol in range(len(MIXTURE_BREAKPOINTS)):
            gen(symbol)        # assemble each distinct map's matrix once
        state = {"gen": gen, "orbit": orbit}
    t3 = time.perf_counter()
    state["ose"] = ose
    return state, {"import_s": t1 - t0, "build_s": t3 - t2,
                   "setup_s": (t1 - t0) + (t3 - t2)}


# ---------------------------------------------------------------------------
# rounds: the timed operations, identical in every round of a run


def run_round(workload, state):
    ose = state["ose"]
    if workload == "geometry":
        import geometry
        return geometry.run(ose, state)
    if workload == "mixture-spectrum":
        return {"spectrum": ose.lyapunov_exponents(
            state["gen"], state["orbit"], SPECTRUM_STEPS, norm="l1")}
    if workload == "continuum-spectrum":
        # a new generator per round: every state is new, and a warm cache
        # would turn later rounds into lookups
        gen = ose.random_ulam_cocycle(state["system"], CONTINUUM_BINS)
        return {"spectrum": ose.lyapunov_exponents(
            gen, state["orbit"], SPECTRUM_STEPS, norm="l1")}
    gen, orbit = state["gen"], state["orbit"]
    spec = ose.lyapunov_exponents(gen, orbit, SPLIT["n"], norm="l1")
    kw = {"norm": "l1", "levels": SPLIT["levels"]}
    r0 = ose.compute_splitting(gen, orbit, spec, SPLIT["n_max"], SPLIT["tol"],
                               offset=0, **kw)
    r1 = ose.compute_splitting(gen, orbit, spec, SPLIT["n_max"], SPLIT["tol"],
                               offset=1, **kw)
    equi = ose.check_equivariance(gen, orbit, r0, r1, tol=SPLIT["tol"])
    return {"spectrum": spec, "splittings": (r0, r1), "equivariance": equi}


# ---------------------------------------------------------------------------
# checks: (attempted, failed, problems) per round; a problem makes the run
# incorrect, a failed operation does not


def _spectrum_problems(spec, orbit, c_of_state):
    import reference
    lam = spec.exponents
    if len(lam) < 2:
        return [f"spectrum resolved {len(lam)} exponents, expected >= 2"]
    out = []
    if abs(lam[0]) > LAMBDA1_TOL:
        out.append(f"lambda_1 = {lam[0]:.3e}, expected 0 within {LAMBDA1_TOL}")
    states = orbit.states_array(spec.n_used - spec.window, spec.window)
    ref = reference.window_mean_log(c_of_state, states)
    if abs(lam[1] - ref) > LAMBDA2_TOL:
        out.append(f"lambda_2 = {lam[1]:.6f}, closed form {ref:.6f}")
    return out


def _mixture_c(symbol):
    import reference
    return reference.affine_contraction(MIXTURE_BREAKPOINTS[int(symbol)])


def _continuum_c(theta):
    import reference
    return reference.affine_contraction(1 / (2 + continuum_delta(theta)))


def check_round(workload, state, out, refs):
    if workload == "geometry":
        import geometry
        return geometry.check(state, out, refs)
    orbit = state["orbit"]
    if workload == "continuum-spectrum":
        return 1, 0, _spectrum_problems(out["spectrum"], orbit, _continuum_c)
    if workload == "mixture-spectrum":
        return 1, 0, _spectrum_problems(out["spectrum"], orbit, _mixture_c)
    import reference
    spec = out["spectrum"]
    problems = _spectrum_problems(spec, orbit, _mixture_c)
    lam = spec.exponents
    gap = lam[0] - lam[1] if len(lam) >= 2 else math.nan
    for offset, res in enumerate(out["splittings"]):
        if not res.converged:
            problems.append(f"splitting at offset {offset} did not converge")
        sine = reference.sine_to_constant(res.spaces[0].basis[:, 0])
        if not sine <= SINE_TOL:
            problems.append(f"offset {offset}: sine(Y_1, 1) = {sine:.3e}")
        alpha = res.convergence[0].alpha_fit
        if not alpha >= gap - 0.1:
            problems.append(f"offset {offset}: level-1 Cauchy rate {alpha} "
                            f"below gap {gap:.4f} - 0.1")
    dist = out["equivariance"]["distances"]
    if not max(dist) < 10 * SPLIT["tol"]:
        problems.append(f"equivariance distances {dist}")
    return 4, 0, problems


# ---------------------------------------------------------------------------
# the run


def measure_rounds(workload, state, seconds, tracer=None):
    """Closed-loop rounds until the next one would end past ``seconds``.

    With a tracer, every second round (from the second on) runs with the
    tracer installed, and at least one does.  Returns the outputs, the
    untraced and traced round times, and the (start, end) tracer marks of
    each traced round.
    """
    outputs, untraced, traced, marks = [], [], [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(outputs) % 2 == 1
        if trace_this:
            before = tracer.mark()
            tracer.install()
        t = time.perf_counter()
        outputs.append(run_round(workload, state))
        dt = time.perf_counter() - t
        if trace_this:
            tracer.uninstall()
            marks.append((before, tracer.mark()))
            traced.append(dt)
        else:
            untraced.append(dt)
        typical = statistics.median(untraced + traced)
        elapsed = time.perf_counter() - start
        if elapsed + typical > seconds and (traced or tracer is None):
            return outputs, untraced, traced, marks


def setup_probe(workload, seed):
    """Set-up time of a fresh interpreter, measured by that interpreter."""
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def check_all(workload, state, outputs):
    refs = None
    if workload == "geometry":
        import geometry
        refs = geometry.references(state)
    attempted = failed = 0
    problems = []
    for i, out in enumerate(outputs):
        a, f, p = check_round(workload, state, out, refs)
        attempted += a
        failed += f
        problems += [f"round {i + 1}: {msg}" for msg in p]
    return attempted, failed, problems


# per-layer metric -> (span name, field) of the traced set-up plus round;
# a field of None reads the tracer counter of that name instead
LAYER_METRICS = {
    "base.generate_orbit_s": ("base.generate_orbit", "total_s", "s"),
    "transfer.ulam_matrix_calls": ("transfer.ulam_matrix", "calls", "count"),
    "transfer.ulam_matrix_s": ("transfer.ulam_matrix", "total_s", "s"),
    "cocycle.matrix_at_calls": ("cocycle.matrix_at", "calls", "count"),
    "cocycle.matrix_at_self_s": ("cocycle.matrix_at", "self_s", "s"),
    "spectrum.lyapunov_exponents_self_s":
        ("spectrum.lyapunov_exponents", "self_s", "s"),
    "spectrum.filtration_at_calls": ("spectrum.filtration_at", "calls", "count"),
    "spectrum.filtration_at_steps":
        ("spectrum.filtration_at_steps", None, "count"),
    "spectrum.filtration_at_s": ("spectrum.filtration_at", "total_s", "s"),
    "splitting.compute_splitting_self_s":
        ("splitting.compute_splitting", "self_s", "s"),
    "splitting.pushforward_space_calls":
        ("splitting.pushforward_space", "calls", "count"),
    "splitting.pushforward_steps": ("splitting.pushforward_steps", None, "count"),
    "splitting.pushforward_space_s":
        ("splitting.pushforward_space", "total_s", "s"),
    "splitting.depths": ("splitting.depths", None, "count"),
    "splitting.check_equivariance_s":
        ("splitting.check_equivariance", "total_s", "s"),
    "grassmann.grassmann_distance_calls":
        ("grassmann.grassmann_distance", "calls", "count"),
    "grassmann.grassmann_distance_s":
        ("grassmann.grassmann_distance", "total_s", "s"),
    "grassmann.good_complement_s": ("grassmann.good_complement", "total_s", "s"),
    "grassmann.linprog_calls": ("grassmann.linprog", "calls", "count"),
    "grassmann.linprog_s": ("grassmann.linprog", "total_s", "s"),
    "grassmann.minimize_calls": ("grassmann.minimize", "calls", "count"),
    "grassmann.minimize_s": ("grassmann.minimize", "total_s", "s"),
    "linalg.qr_calls": ("linalg.qr", "calls", "count"),
    "linalg.qr_s": ("linalg.qr", "total_s", "s"),
    "linalg.qr_gflop_computed": ("linalg.qr_gflop_computed", None, "GFLOP"),
    "linalg.svd_calls": ("linalg.svd", "calls", "count"),
    "linalg.svd_s": ("linalg.svd", "total_s", "s"),
}


def layer_metrics(tracer, setup_marks, round_marks, timings, overhead_s):
    """Per-layer metrics: the traced set-up plus the mean traced round."""
    parts = [tracer.summary(*setup_marks)]
    rounds = [tracer.summary(*m) for m in round_marks]

    def read(part, name, field):
        spans, counters = part
        if field is None:
            return counters.get(name, 0.0)
        return spans.get(name, {}).get(field, 0.0)

    def value(name, field):
        return read(parts[0], name, field) + \
            sum(read(r, name, field) for r in rounds) / len(rounds)

    at_calls = sum(read(r, "cocycle.matrix_at", "calls") for r in rounds)
    misses = sum(read(r, "transfer.ulam_matrix", "calls") for r in rounds)
    out = {
        "setup.import_s": (timings["import_s"], "s"),
        "setup.build_s": (timings["build_s"], "s"),
        "transfer.cache_hit_ratio":
            ((at_calls - misses) / at_calls if at_calls else 0.0, "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for metric, (name, field, unit) in LAYER_METRICS.items():
        out[metric] = (value(name, field), unit)
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def print_layer_table(tracer, since, until):
    spans, _ = tracer.summary(since, until)
    print(f"{'span':42s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:42s} {row['calls']:9d} {row['total_s']:10.4f} "
              f"{row['self_s']:10.4f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _, timings = setup(args.workload, args.seed)
        print(json.dumps(timings))
        return 0

    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        setup_mark = tracer.mark()
        state, timings = setup(args.workload, args.seed,
                               after_import=tracer.install)
        tracer.uninstall()
        setup_marks = (setup_mark, tracer.mark())
        outputs, untraced, traced, marks = measure_rounds(
            args.workload, state, args.seconds, tracer=tracer)
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics = layer_metrics(tracer, setup_marks, marks, timings, overhead)
        print_layer_table(tracer, setup_mark, tracer.mark())
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"),
            {"workload": args.workload, "seed": args.seed,
             "untraced_round_s": untraced, "traced_round_s": traced})
    else:
        state, timings = setup(args.workload, args.seed)
        outputs, rounds, _, _ = measure_rounds(
            args.workload, state, args.seconds)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [timings["setup_s"]] + [
            setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics = {
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        }
        print(f"rounds {len(rounds)}: " + " ".join(f"{t:.3f}" for t in rounds)
              + "; set-ups: " + " ".join(f"{t:.3f}" for t in setups))

    attempted, failed, problems = check_all(args.workload, state, outputs)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
