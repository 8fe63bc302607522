"""Alternating benchmark runs of a parent and a change, summarized per metric.

Usage:

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload toy \
        --pairs 10 --seconds 25 --seed-base 100

Pair i runs `perfbench/run.py --workload W --seed B+i --seconds S --trace 0`
once in each checkout, one process at a time; even pairs run the parent
first, odd pairs the change.  For each end-to-end metric of the change's
BENCHMARK.json it prints the median of each side, the parent's quartiles,
the number of pairs the change wins and every pair's values; then the
failed and attempted operations of each side.  A claimed gain holds when
the change wins at least 9 of 10 pairs and the medians differ by more
than the parent's interquartile range.  Each metric also gets a
regression verdict against its `bound` (`regression_verdict`): worse by
more than the bound, within bound, or unresolved when the parent's runs
spread wider than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """The result object that one benchmark run prints last."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def regression_verdict(parent, change, better, bound):
    """Regression verdict of one metric from the parent's and the change's
    values, `better` "lower" or "higher", `bound` a fraction of the
    parent's median:

    * "worse by more than the bound": the change's median is worse than
      the parent's by more than bound x the parent's median;
    * "unresolved": otherwise, when the parent's interquartile range is
      wider than that and the change's median does not beat every parent
      run, so the runs cannot tell a change within the bound from noise;
    * "within bound": otherwise.
    """
    p_med, c_med = statistics.median(parent), statistics.median(change)
    allowed = bound * abs(p_med)
    worse = (c_med - p_med) if better == "lower" else (p_med - c_med)
    if worse > allowed:
        return "worse by more than the bound"
    q1, q3 = quartiles(parent)
    beats_all = all((c_med < p) if better == "lower" else (c_med > p) for p in parent)
    if q3 - q1 > allowed and not beats_all:
        return "unresolved"
    return "within bound"


def summarize(spec, parent, change):
    """One line for an end-to-end metric over the paired results."""
    name = spec["name"]
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    lower = spec["better"] == "lower"
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    p_med, c_med = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    gain = (p_med - c_med) if lower else (c_med - p_med)
    verdict = "gain" if wins >= 0.9 * len(p) and gain > q3 - q1 else "no gain"
    regression = regression_verdict(p, c, spec["better"], spec["bound"])
    pairs = " ".join(f"{pv:.4g}/{cv:.4g}" for pv, cv in zip(p, c))
    rel = (c_med - p_med) / p_med if p_med else float("nan")
    return (f"{name} [{spec['unit']}, {spec['better']} is better]: parent median {p_med:.4g} "
            f"(q1 {q1:.4g}, q3 {q3:.4g}), change median {c_med:.4g} ({rel:+.1%}), "
            f"change wins {wins}/{len(p)}: {verdict}; bound {spec['bound']:g}: {regression}"
            f"\n  pairs parent/change: {pairs}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        specs = json.load(fh)["end_to_end"]

    results = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed_base + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            checkout = getattr(args, side)
            results[side].append(run_once(checkout, args.workload, seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs} seed {seed}: {side} done", file=sys.stderr,
                  flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs")
    for spec in specs:
        print(summarize(spec, results["parent"], results["change"]))
    for side in SIDES:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"{side}: {failed}/{attempted} operations failed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
