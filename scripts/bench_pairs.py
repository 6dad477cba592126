"""Compare this checkout's benchmark against another's in alternating pairs.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py OTHER_CHECKOUT --workload W --pairs N [--seconds S]

Each pair runs ``python3 bench/run.py --workload W --seed 1 --seconds S
--trace 0`` once in each checkout, one after the other; the side that runs
first alternates from pair to pair, so a drift of the host's speed falls on
both sides alike.  The run length S is BENCHMARK.json's run_seconds unless
--seconds is given.  Each run's result is the JSON object on the last line of
its stdout.

For every end-to-end metric of this checkout's BENCHMARK.json the script
prints the median on each side, the other side's interquartile range as a
share of its median, and in how many of the N pairs this side was better
(strictly, by the metric's "better" direction), then every run of each side
in pair order.  A metric is marked unresolved where that share is wider than
the metric's bound: its median can then move past the bound with no change to
the code.  Each side's failed and attempted operation counts are printed last.
The script edits nothing; bench/run.py writes its own results under each
checkout's .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README_SEED = 1  # the seed of every command in bench/README.md


def run_bench(checkout, workload, seconds):
    """The result object of one bench/run.py run in checkout."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(README_SEED),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"bench/run.py failed in {checkout} (exit {done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def spread(values):
    """Median and interquartile range (0 for a single value)."""
    if len(values) < 2:
        return values[0], 0.0
    low, middle, high = statistics.quantiles(values, n=4, method="inclusive")
    return middle, high - low


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    sides = {"this": ROOT, "other": os.path.abspath(args.other)}

    results = {"this": [], "other": []}
    for pair in range(args.pairs):
        order = ("other", "this") if pair % 2 == 0 else ("this", "other")
        for side in order:
            results[side].append(run_bench(sides[side], args.workload, seconds))
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"workload {args.workload}, seed {README_SEED}, {seconds:g} s runs, {args.pairs} pairs")
    print(f"{'metric':16s} {'this':>11s} {'other':>11s} {'change':>8s} "
          f"{'other IQR':>9s} {'bound':>6s} {'wins':>6s}")
    for metric in benchmark["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        mine = [result["metrics"][name]["value"] for result in results["this"]]
        theirs = [result["metrics"][name]["value"] for result in results["other"]]
        my_median = statistics.median(mine)
        their_median, their_iqr = spread(theirs)
        if their_median:
            share = their_iqr / abs(their_median)
            change = (my_median - their_median) / abs(their_median)
        else:
            share = 0.0 if their_iqr == 0 else float("inf")
            change = 0.0
        wins = sum(a < b if lower else a > b for a, b in zip(mine, theirs))
        print(f"{name:16s} {my_median:11.5g} {their_median:11.5g} {change:+8.1%} "
              f"{share:9.1%} {bound:6.0%} {wins:3d}/{args.pairs}"
              + ("  unresolved" if share > bound else ""))
        print(f"  this:  {' '.join(f'{value:.5g}' for value in mine)}")
        print(f"  other: {' '.join(f'{value:.5g}' for value in theirs)}")
    for side in ("this", "other"):
        failed = sum(result["failed"] for result in results[side])
        attempted = sum(result["attempted"] for result in results[side])
        correct = sum(bool(result["correct"]) for result in results[side])
        print(f"{side}: {failed} failed of {attempted} attempted; "
              f"{correct}/{args.pairs} runs correct")
    return 0


if __name__ == "__main__":
    sys.exit(main())
