"""Benchmark of the blaq lab: time to result of its CLI experiments.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload toy --seed 1 --seconds 20 --trace 0

Workloads: toy, theory, mnist-k1, mnist-k2 (see README.md for why each
exists).  The package is imported from ``src/`` of the checkout and driven
in-process through ``blaq.cli.main``.  A run repeats the workload until
`--seconds` have passed (at least MIN_REPS times); every repetition
re-imports the package, regenerates its inputs from the seed, calls the
CLI, then gates the outputs and compares their SHA-256 with the first
repetition's.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of traced repetitions, which
alternate with untraced ones so that the tracing overhead is measured in
the same run.  Details of each run (machine, per-repetition times,
digests, problems) go to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import tracing
import workloads

BLAS_THREADS = 1
MIN_REPS = 3
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
# The step latency tail reported on every workload.  It is the highest
# percentile with at least ten samples beyond it on theory and mnist; on
# toy, higher percentiles measure the host's CPU stalls (README.md).
TAIL_PERCENTILE = 90.0


def pin_blas_threads():
    """Fix the BLAS thread count; only effective before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def machine_info():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def fresh_import():
    """Import blaq from the checkout anew; returns its modules by name."""
    for name in [m for m in sys.modules if m == "blaq" or m.startswith("blaq.")]:
        del sys.modules[name]
    cli = importlib.import_module("blaq.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"blaq was imported from {cli.__file__}, not from {SRC}")
    return {m: mod for m, mod in sys.modules.items() if m == "blaq" or m.startswith("blaq.")}


def percentile_rank(n, p):
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def digest(out_dir):
    h = hashlib.sha256()
    for base, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_rep(plan, traced):
    """One repetition of a workload.

    Returns its timings and per-call outcomes, and the instrument that
    watched it.
    """
    for call in plan.calls:
        shutil.rmtree(call.out_dir, ignore_errors=True)
    gc.collect()

    t0, cpu0 = time.perf_counter(), time.process_time()
    modules = fresh_import()
    if plan.make_inputs:
        plan.make_inputs(modules)
    if traced:
        instrument = tracing.Tracer()
    else:
        instrument = tracing.StepClock(plan.step_start, plan.step_end, plan.counted)
    instrument.install()
    cli = modules["blaq.cli"]
    runner, first_call = cli.run, []

    def hooked(cfg):
        if not first_call:
            first_call.append(time.perf_counter())
        return runner(cfg)
    cli.run = hooked

    outcomes = []
    for call in plan.calls:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(call.argv)
            problem = None if code == 0 else f"exit code {code}: {err.getvalue().strip()}"
        except Exception:    # the run goes on; the call counts as failed
            problem = "raised " + traceback.format_exc(limit=-3).strip()
        outcomes.append(problem)
    t_end = time.perf_counter()

    start = first_call[0] if first_call else t_end
    # cpu_s falls short of setup_s + wall_s by the time the host took the CPU away
    rep = {"traced": traced, "setup_s": start - t0, "wall_s": t_end - start,
           "cpu_s": time.process_time() - cpu0}
    if traced:
        rep["layers"] = instrument.layer_metrics()
        rep["steps"] = rep["layers"]["optimizers.steps"]
        rep["origin"] = start
    else:
        rep["steps"] = instrument.steps
        rep["latencies"] = instrument.latencies
    dirs = {c.name: c.out_dir for c in plan.calls}
    for i, call in enumerate(plan.calls):
        if outcomes[i] is None:
            try:
                outcomes[i] = call.gate(dirs)
            except Exception:    # unreadable or malformed outputs fail the gate
                outcomes[i] = "gate raised " + traceback.format_exc(limit=-1).strip()
    rep["digests"] = [digest(c.out_dir) if os.path.isdir(c.out_dir) else None
                      for c in plan.calls]
    rep["problems"] = outcomes
    return rep, instrument


def measure(workload, seed, seconds, trace, tiny=False, min_reps=MIN_REPS):
    """Run one benchmark and return (result object, run record)."""
    pin_blas_threads()
    os.makedirs(RUNS, exist_ok=True)
    work = os.path.join(RUNS, f"{workload}-seed{seed}")
    plan = workloads.build(workload, seed, work, tiny)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    machine = machine_info()

    reps = []
    tracer = None     # spans of the last traced repetition only
    min_reps = max(min_reps, 2 if trace else 1)
    began = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - began < seconds:
        rep, instrument = run_rep(plan, traced=bool(trace) and len(reps) % 2 == 1)
        reps.append(rep)
        if rep["traced"]:
            tracer = instrument

    attempted = failed = 0
    problems = []
    first = reps[0]["digests"]
    for r, rep in enumerate(reps):
        for i, call in enumerate(plan.calls):
            problem = rep["problems"][i]
            if problem is None and rep["digests"][i] != first[i]:
                problem = "outputs differ from the first repetition of this seed"
            attempted += 1
            if problem is not None:
                failed += 1
                problems.append(f"rep {r} {call.name}: {problem}")

    plain = [rep for rep in reps if not rep["traced"]]
    wall = statistics.median(rep["wall_s"] for rep in plain)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine, "step_kind": plan.step_kind,
        "reps": [{k: rep[k] for k in ("traced", "setup_s", "wall_s", "cpu_s", "steps")}
                 for rep in reps],
        "digests": dict(zip((c.name for c in plan.calls), first)),
        "problems": problems,
    }
    if trace:
        traced = [rep for rep in reps if rep["traced"]]
        metrics = {name: statistics.median(rep["layers"][name] for rep in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = statistics.median(rep["wall_s"] for rep in traced) - wall
        units = tracing.LAYER_UNITS
        spans = os.path.join(RUNS, f"{workload}-seed{seed}-spans.csv")
        tracer.write_spans(spans, traced[-1]["origin"])
        record["spans_file"] = spans
    else:
        # a run whose calls all failed may have no steps; it reads 0 there
        latencies = sorted(x for rep in plain for x in rep["latencies"]) or [0.0]
        tail_rank = percentile_rank(len(latencies), TAIL_PERCENTILE)
        metrics = {
            "setup_s": statistics.median(rep["setup_s"] for rep in reps),
            "wall_s": wall,
            "steps_per_s": statistics.median(rep["steps"] / rep["wall_s"] if rep["wall_s"] else 0.0
                                             for rep in plain),
            "step_ms_p50": 1e3 * statistics.median(latencies),
            "step_ms_tail": 1e3 * latencies[tail_rank - 1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        record["step_samples"] = len(latencies)
        record["step_ms_tail_percentile"] = TAIL_PERCENTILE
        record["step_samples_beyond_tail"] = len(latencies) - tail_rank
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "blaq", "__init__.py")):
        print(f"error: no blaq package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    path = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
