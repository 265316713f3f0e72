"""moncap benchmark: fixed solve workloads through the public library API.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload suite-order-N48 --seed 7 --seconds 45 --trace 0

``--trace 0`` repeats plain passes of the workload for about ``--seconds``
seconds and prints the end-to-end metrics; ``--trace 1`` alternates plain and
traced passes and prints the per-layer metrics.  Every pass is checked for
correctness.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every check passed.  See benchmarks/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the OpenBLAS pool size alone moved the N = 256 solve by
# up to 1.45x between processes.  Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

MIN_PASSES = 3          # plain passes per plain run, whatever --seconds says
MIN_TRACED_PASSES = 2   # the exact-count check compares two traced passes
SETUP_SAMPLES = 5       # fresh interpreters per setup_s measurement
SETUP_TIMEOUT_S = 120

# s-grid of configs/sweep-flat-core.json, copied so the workload is fixed
SWEEP_S_GRID = (-4.0, -3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0)
SUITE_INSTANCES = 70


# ---------------------------------------------------------------------------
# workloads: prepare() is the set-up a user pays before the first solve,
# solve() the work; a pass runs both.


@dataclass
class PassOutput:
    fingerprint: list     # exact outputs; equal for equal input seeds
    misses: int           # outputs of sound solves that miss their reference
    problems: list        # why the pass is not correct


def _ref(name):
    with open(HERE / "references.json") as fh:
        return json.load(fh)[name]


def _within(value, ref, tol) -> bool:
    return abs(value - ref) <= tol


def _sound(report) -> bool:
    """A solve the call probe does not already count as failed."""
    return report.converged and report.three_formula_ok


def prepare_solve(seed):
    from moncap import flux, mesh
    m = mesh.build_mesh(256)
    e = mesh.rasterize(mesh.disk(0.5, 0.5, 0.1), m, "E")
    f = mesh.rasterize(mesh.disk(0.5, 0.5, 0.4), m, "F")
    return m, flux.p_laplacian(3.0), e, f


def run_solve(inputs, jobs) -> PassOutput:
    from moncap import capacity
    from moncap.errors import SolverDiverged
    try:
        report, _ = capacity.compute_capacity(*inputs)
    except SolverDiverged as exc:
        return PassOutput([], 0, [f"diverged: {exc}"])
    ref = _ref("solve-N256-p3")["c_inner"]
    ok = _within(report.c_inner, ref, report.tol_cap)
    problems = [] if ok else [
        f"c_inner {report.c_inner!r} misses {ref!r} by more than "
        f"tol_cap {report.tol_cap:.3e}"]
    fp = [float(report.c_inner).hex(), float(report.c_energy).hex(),
          float(report.c_outer).hex()]
    return PassOutput(fp, int(not ok and _sound(report)), problems)


def prepare_suite(seed):
    from moncap import mesh, properties
    return mesh.build_mesh(48), properties.default_flux_family(), seed


def run_suite(inputs, jobs) -> PassOutput:
    from moncap import properties
    m, family, seed = inputs
    report = properties.run_order_suite(m, family, SUITE_INSTANCES, seed,
                                        jobs=jobs)
    problems = []
    if not report.passed:
        problems.append(f"order suite failed: {report.summary_line()}")
    if report.skipped:
        problems.append(f"order suite skipped {report.skipped} instances")
    bad = [r for r in report.records
           if r["violation"] or not r.get("three_formula_ok", False)]
    if bad:
        problems.append(f"{len(bad)} records violate order or three-formula")
    fp = [(r["index"], r["check"], float(r["value"]).hex(),
           float(r["margin"]).hex()) for r in report.records]
    misses = sum(1 for r in bad if r.get("three_formula_ok", False))
    return PassOutput(fp, misses, problems)


def prepare_sweep(seed):
    from moncap import flux, mesh
    m = mesh.build_mesh(128)
    e = mesh.rasterize(mesh.disk(0.5, 0.5, 0.12), m, "E")
    f = mesh.rasterize(mesh.disk(0.5, 0.5, 0.38), m, "F")
    return m, flux.flat_core_p(2.0, 3.0), e, f


def run_sweep(inputs, jobs) -> PassOutput:
    from moncap import capacity
    results = capacity.sweep_s(*inputs, SWEEP_S_GRID)
    recorded = _ref("sweep-flatcore-N128")
    refs = recorded["c_inner"]
    problems, misses, fp = [], 0, []
    if recorded["s"] != list(SWEEP_S_GRID):
        problems.append("sweep s-grid differs from the reference s-grid")
    for (s, report), ref in zip(results, refs):
        if report is None:
            problems.append(f"s={s}: no report")
            fp.append(None)
            continue
        fp.append(float(report.c_inner).hex())
        if not _within(report.c_inner, ref, report.tol_cap):
            misses += _sound(report)
            problems.append(f"s={s}: c_inner {report.c_inner!r} misses "
                            f"{ref!r} by more than tol_cap {report.tol_cap:.3e}")
    if len(results) != len(refs):
        problems.append(f"{len(results)} sweep points, expected {len(refs)}")
    return PassOutput(fp, misses, problems)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable
    solve: Callable
    jobs: int = 1
    suite: bool = False   # seeded instances, solved through the task pool


# suite-order-N48-jobs2 and sweep-flatcore-N128 are run by hand only, not
# from BENCHMARK.json: on a shared 2-CPU machine their run medians spread
# 21-33% and 23-26% between quartiles, wider than any allowed bound (see
# README.md).  The traced run of either suite measures jobs=1 against jobs=2.
WORKLOADS = {w.name: w for w in (
    Workload("solve-N256-p3", prepare_solve, run_solve),
    Workload("suite-order-N48", prepare_suite, run_suite, suite=True),
    Workload("suite-order-N48-jobs2", prepare_suite, run_suite, jobs=2,
             suite=True),
    Workload("sweep-flatcore-N128", prepare_sweep, run_sweep),
)}


# ---------------------------------------------------------------------------
# passes


def pass_seed(seed, k) -> int:
    """Input seed of pass k.  Plain passes of a suite run draw a new
    instance set each, so one set's mix of cheap and costly solves moves the
    run's medians less; every other pass uses k = 0."""
    import numpy as np    # after moncap, so set-up time includes numpy
    return int(np.random.SeedSequence([seed % 2**63, k]).generate_state(1)[0])


@dataclass
class Pass:
    input_seed: int
    wall_s: float
    output: PassOutput
    spans: list           # compute_capacity spans only, or every layer's


def run_pass(workload, seed, jobs, bindings) -> Pass:
    with tr.Tracer(bindings) as tracer:
        t0 = perf_counter()
        output = workload.solve(workload.prepare(seed), jobs)
        wall = perf_counter() - t0
    if not tracer.originals_in_place():
        output.problems.append("a traced binding was not restored")
    return Pass(seed, wall, output, tracer.spans)


def measure_setup(workload, seed) -> list[float]:
    """Set-up time in fresh interpreters: import moncap, then prepare."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload.name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _quantile(values, q) -> float:
    """The q-th of 100 cut points (inclusive method); the value itself for
    a single sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _loop(seconds, minimum, step: Callable[[], float]):
    """Call step() at least ``minimum`` times, and again while the median
    step still fits in ``seconds``."""
    t0 = perf_counter()
    walls = []
    while len(walls) < minimum or (
            perf_counter() - t0 + statistics.median(walls) <= seconds):
        walls.append(step())


def plain_run(workload, seed, seconds):
    setup = measure_setup(workload, seed)
    passes: list[Pass] = []

    def step():
        k = len(passes) if workload.suite else 0
        passes.append(run_pass(workload, pass_seed(seed, k), workload.jobs,
                               tr.CALLS))
        return passes[-1].wall_s
    _loop(seconds, MIN_PASSES, step)

    latencies, rates = [], []
    for p in passes:
        calls = tr.solve_calls(p.spans)
        latencies += [1e3 * s.duration for s in calls]
        rates.append(len(calls) / p.wall_s)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "solves_per_s": statistics.median(rates),
        "solve_ms_p50": statistics.median(latencies),
        "solve_ms_p95": _quantile(latencies, 95),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       * 1024 / 1e6,
    }
    notes = [f"passes {len(passes)}", f"solve latency samples {len(latencies)}",
             f"setup samples {len(setup)}"]
    return passes, [], metrics, notes


def traced_run(workload, seed, seconds):
    seed = pass_seed(seed, 0)
    other, other_jobs = None, 2 if workload.jobs == 1 else 1
    if workload.suite:
        other = run_pass(workload, seed, other_jobs, tr.CALLS)
    plain: list[Pass] = []
    traced: list[Pass] = []

    def step():
        plain.append(run_pass(workload, seed, workload.jobs, tr.CALLS))
        traced.append(run_pass(workload, seed, workload.jobs, tr.LAYERS))
        return plain[-1].wall_s + traced[-1].wall_s
    _loop(seconds, MIN_TRACED_PASSES, step)

    per_pass = [tr.layer_metrics(p.spans) for p in traced]
    problems = []
    for name in tr.EXACT_COUNTS:
        seen = {m[name] for m in per_pass}
        if len(seen) > 1:
            problems.append(f"{name} differs across traced passes: {sorted(seen)}")
    metrics = {name: per_pass[0][name] if name in tr.EXACT_COUNTS
               else statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    plain_wall = statistics.median(p.wall_s for p in plain)
    # wall at jobs=1 over wall at jobs=2; 1 for workloads without a task pool
    speedup = 1.0
    if other is not None:
        walls = {workload.jobs: plain_wall, other_jobs: other.wall_s}
        speedup = walls[1] / walls[2]
    metrics["properties.parallel_speedup"] = speedup
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced) - plain_wall)

    SPANS_DIR.mkdir(exist_ok=True)
    tr.dump(traced[-1].spans, SPANS_DIR / f"spans-{workload.name}-{seed}.jsonl")
    passes = plain + traced + ([other] if other else [])
    notes = [f"plain passes {len(plain)}", f"traced passes {len(traced)}"]
    return passes, problems, metrics, notes


# ---------------------------------------------------------------------------
# reporting


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _blas_pool_sizes() -> dict:
    """Threads of each OpenBLAS loaded by numpy and scipy, asked of the
    libraries themselves."""
    import ctypes
    import glob
    import numpy
    import scipy
    sizes = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    sizes[Path(path).name] = fn()
                    break
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "moncap").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": BLAS_THREADS,
        "blas_pool_sizes": _blas_pool_sizes(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def _import_moncap():
    """Import moncap from this checkout's src/, never from elsewhere."""
    if not (SRC / "moncap" / "__init__.py").is_file():
        sys.exit(f"benchmark: no moncap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import moncap
    if SRC not in Path(moncap.__file__).resolve().parents:
        sys.exit(f"benchmark: imported moncap from {moncap.__file__}, "
                 f"not from {SRC}")
    return moncap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        t0 = perf_counter()
        _import_moncap()
        workload.prepare(pass_seed(args.seed, 0))
        print(repr(perf_counter() - t0))
        return 0

    _import_moncap()
    run = traced_run if args.trace else plain_run
    passes, problems, metrics, notes = run(workload, args.seed, args.seconds)
    units = {m["name"]: m["unit"]
             for m in _spec()["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")

    attempted = failed = 0
    outputs = {}
    for p in passes:
        calls = tr.solve_calls(p.spans)
        attempted += len(calls)
        failed += sum(s.count for s in calls) + p.output.misses
        problems += p.output.problems
        if outputs.setdefault(p.input_seed, p.output.fingerprint) != \
                p.output.fingerprint:
            problems.append("outputs differ between passes of one seed")
    problems = list(dict.fromkeys(problems))
    correct = failed == 0 and not problems

    print(f"# workload {workload.name} seed {args.seed} "
          f"trace {args.trace}: " + ", ".join(notes))
    for name, value in metrics.items():
        print(f"{name:30s} {value:.6g} {units.get(name, '?')}")
    print(f"{'failed_frac':30s} {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} solves)")
    for problem in problems:
        print(f"# problem: {problem}")
    print("# provenance " + json.dumps(provenance(), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
