"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root (it is not part of the package's tests):

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os

import pytest

import run
import tracing
import workloads


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, record = run.measure(workload, seed=3, seconds=0, trace=trace,
                                 tiny=True, min_reps=2)
    units = tracing.LAYER_UNITS if trace else run.E2E_UNITS
    assert units == _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] == 2 * len(record["digests"])
    # one epoch of laq at k=2 need not beat chance; every other gate holds
    if workload != "mnist-k2":
        assert result["correct"] and result["failed"] == 0, record["problems"]
    json.dumps(result, allow_nan=False)


def _failing_call(call):
    call.gate = lambda dirs: "forced failure"


def _raising_gate(call):
    call.gate = lambda dirs: {}["missing output"]


def _bad_config(call):
    call.argv = ["theory-check", "--bitwidth", "0", "--output-dir", call.out_dir]


def _diverging_run(call):
    call.argv = ["toy2d", "--omega0", "[1e308,1]", "--output-dir", call.out_dir]


@pytest.mark.parametrize("break_call", [_failing_call, _raising_gate, _bad_config,
                                        _diverging_run])
def test_a_failure_is_counted_not_raised(monkeypatch, break_call):
    build = workloads.build

    def broken(*args, **kwargs):
        plan = build(*args, **kwargs)
        break_call(plan.calls[0])
        return plan

    monkeypatch.setattr(workloads, "build", broken)
    result, record = run.measure("theory", seed=3, seconds=0, trace=0, tiny=True, min_reps=2)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 2)
    assert len(record["problems"]) == 2
    json.dumps(result, allow_nan=False)
