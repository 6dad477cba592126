"""Benchmark for tbi: one workload per run, result as the last stdout line.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
measures half the budget untraced and half with every public function of the
library wrapped (see tracer.py), and reports the per-layer metrics, each
module's self time and the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it list every metric by name and unit, the sample
counts, and the environment.  Results and spans are also written under
``.bench_out/``.

The benchmark needs the library's sources at ``src/tbi`` next to this
directory and exits with status 2, printing no result, when they are missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9
MIN_COLD_CALLS = 150  # p90 with ten samples beyond it, and steady across runs
COLD_SHARE = 0.6  # share of a cli-small run spent on cold processes, at least

END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "request_ms.p50": ("ms", "lower"),
    "request_ms.p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_rate": ("ratio", "higher"),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, os.path.dirname(os.path.abspath(__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds():
    """Wall time of the harness's own imports in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); "
            "import numpy, tbi, tbi.cli, check, members, workloads, tracer, layers; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def environment(seed):
    import numpy as np
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{config.get('name')} {config.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "machine": platform.machine(),
    }


def blas_threads():
    """OpenBLAS's own thread count, read through its C API; the environment
    setting (or "default") when the library cannot be asked."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle
                if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return os.environ.get("OPENBLAS_NUM_THREADS", "default")


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def timed_passes(workloads, workload, state, expected, budget, min_passes,
                 tracer=None, clock=None, request_clock=None):
    results = []
    deadline = time.perf_counter() + budget
    while time.perf_counter() < deadline or len(results) < min_passes:
        results.append(workloads.run_pass(workload, state, expected, tracer, clock,
                                          request_clock))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-small", "tables-large", "sample-group"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tbi", "__init__.py")):
        print(f"error: no library sources at {SRC}/tbi", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tbi
    if not os.path.abspath(tbi.__file__).startswith(SRC + os.sep):
        print(f"error: tbi imported from {tbi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import check
    import layers
    import tracer as tracing
    import workloads

    expected = check.load_expected()
    problems = [f"checker self-test: {p}" for p in check.self_test(expected)]
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    work = os.path.join(run_dir, "inputs")
    clock = calibrate.Clock("numeric" if args.workload == "tables-large" else "small_calls")
    # tbi sample requests run on a two-thread pool: they get a probe of that shape.
    request_clock = calibrate.Clock("threaded") if args.workload == "sample-group" else clock
    try:
        setups, imports = [], []
        for _ in range(SETUP_REPEATS):
            clock.probe()
            start = time.perf_counter()
            state = workloads.setup(args.workload, args.seed, work)
            setups.append(clock.scale(time.perf_counter() - start))
            clock.probe()
            imports.append(clock.scale(import_seconds()))
        setup_s = statistics.median(imports) + statistics.median(setups)
        workloads.warm_up(args.workload, state, expected)
        if args.trace:
            metrics, extra, attempted, failed, unexpected = traced_run(
                args, state, expected, workloads, tracing, layers, run_dir)
        else:
            metrics, extra, attempted, failed, unexpected = plain_run(
                args, state, expected, workloads, clock, request_clock)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra["setup_s.imports"] = statistics.median(imports)
        extra["setup_s.inputs"] = statistics.median(setups)
        extra["speed_factor"] = clock.run_factor()
        if request_clock is not clock:
            extra["speed_factor.requests"] = request_clock.run_factor()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += unexpected
    env = environment(args.seed)
    units = layers.PER_LAYER if args.trace else END_TO_END
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {units[name][0]}")
    for name, value in extra.items():
        print(f"  {name:42s} {value:.6g}" if isinstance(value, float) else f"  {name:42s} {value}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print("env: " + json.dumps(env))
    result = {
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(result, env=env, extra=extra, problems=problems), handle, indent=1)
    print(json.dumps(result))
    return 0


def plain_run(args, state, expected, workloads, clock, request_clock):
    """Untraced measurement of the end-to-end metrics, in calibrated time."""
    import calibrate
    extra = {}
    attempted = failed = 0
    unexpected = []
    latencies = []
    budget = args.seconds
    if args.workload == "cli-small":
        cold_clock = calibrate.Clock("cold")  # fresh processes: start-up and imports
        start = time.perf_counter()
        cold, cold_raw = [], []
        while time.perf_counter() - start < COLD_SHARE * budget or len(cold) < MIN_COLD_CALLS:
            doc = state[len(cold) % len(state)]
            # The probe is a fresh process too: one every other call halves its cost.
            raw, elapsed, doc_problems = workloads.cold_call(ROOT, doc, expected, cold_clock,
                                                             probe=len(cold) % 2 == 0)
            cold.append(elapsed)
            cold_raw.append(raw)
            attempted += 1
            failed += bool(doc_problems)
            unexpected += doc_problems
        latencies = cold
        budget *= 1 - COLD_SHARE
        extra["cold_ms.p50"] = 1e3 * percentile(cold, 50)
        extra["cold_ms.p90"] = 1e3 * percentile(cold, 90)
        extra["cold_ms.p50.raw"] = 1e3 * percentile(cold_raw, 50)
        extra["cold_ms.samples"] = len(cold)
        extra["speed_factor.cold"] = cold_clock.run_factor()
    passes = timed_passes(workloads, args.workload, state, expected, budget, 3,
                          clock=clock, request_clock=request_clock)
    # A pass repeats the same requests in the same order: its time is the sum
    # of each request's median over the run, which one slow sample cannot move.
    per_request = list(zip(*(p.latencies for p in passes)))
    pass_s = sum(statistics.median(times) for times in per_request)
    if args.workload == "sample-group":
        pass_s += statistics.median(p.group_seconds for p in passes)
    extra["pass_s.raw"] = statistics.median(p.raw_seconds for p in passes)
    for p in passes:
        attempted += p.attempted
        failed += p.failed
        unexpected += p.unexpected
    if args.workload == "sample-group":
        latencies = [t for times in per_request for t in times]
    elif args.workload == "tables-large":
        # Six heavy requests a pass: percentiles over the members' medians.
        latencies = [statistics.median(times) for times in per_request]
    extra["passes"] = len(passes)
    extra["requests_per_pass"] = passes[0].requests
    extra["request_ms.samples"] = len(latencies)
    if args.workload == "cli-small":
        extra["warm_docs_per_s"] = passes[0].attempted / pass_s
    if args.workload == "sample-group":
        extra["sample_calls_per_s"] = (sum(p.requests for p in passes)
                                       / sum(p.sample_seconds for p in passes))
        extra["group_ops_per_s"] = (sum(p.group_ops for p in passes)
                                    / sum(p.group_seconds for p in passes))
        extra["group.error_rate"] = (sum(p.group_failed for p in passes)
                                     / sum(p.group_ops for p in passes))
    extra["error_rate"] = failed / attempted if attempted else 0.0
    metrics = {
        "pass_s": pass_s,
        "request_ms.p50": 1e3 * percentile(latencies, 50),
        "request_ms.p90": 1e3 * percentile(latencies, 90),
        "ok_rate": 1.0 - failed / attempted if attempted else 0.0,
    }
    return metrics, extra, attempted, failed, unexpected


def traced_run(args, state, expected, workloads, tracing, layers, run_dir):
    """Half the budget untraced, half traced; per-layer metrics from spans."""
    half = args.seconds / 2
    plain = timed_passes(workloads, args.workload, state, expected, half, 1)
    with tracing.Tracer(observers=layers.OBSERVERS) as tracer:
        traced = timed_passes(workloads, args.workload, state, expected, half, 1, tracer)
    tracer.write(os.path.join(run_dir, "spans.jsonl"))
    metrics = layers.span_metrics(tracer.spans, len(traced))
    metrics["cohomology.alloc_peak_mb"] = alloc_peak_mb(args.workload, state)
    metrics.update(layers.import_times(child_env()))
    plain_s = statistics.median(p.seconds for p in plain)
    traced_s = statistics.median(p.seconds for p in traced)
    per_pass = plain[0].attempted
    metrics["trace.overhead_pass_s"] = traced_s - plain_s
    metrics["trace.overhead_requests_per_s"] = per_pass / traced_s - per_pass / plain_s
    everything = plain + traced
    extra = {"passes.untraced": len(plain), "passes.traced": len(traced),
             "pass_s.untraced": plain_s, "pass_s.traced": traced_s,
             "spans": len(tracer.spans)}
    return (metrics, extra, sum(p.attempted for p in everything),
            sum(p.failed for p in everything), [u for p in everything for u in p.unexpected])


def alloc_peak_mb(workload, state):
    """tracemalloc peak over one leray_table + tangent_table call per datum,
    largest over the workload's data; 0 when the workload builds no tables."""
    import tracemalloc
    import tbi
    if workload == "cli-small":
        data = [doc.datum for doc in state]
    elif workload == "tables-large":
        data = [member.datum for member in state]
    else:
        return 0.0
    peak = 0
    tracemalloc.start()
    try:
        for datum in data:
            fresh = tbi.BundleDatum(datum.form, datum.base, datum.fibre, tol=datum.tol)
            fresh.split  # the split is not part of the table builders
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tbi.tangent_table(fresh, tbi.leray_table(fresh))
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


if __name__ == "__main__":
    sys.exit(main())
