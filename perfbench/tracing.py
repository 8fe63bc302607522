"""Outside-in instrumentation of the blaq package.

Nothing here edits the package: wrappers replace public functions and
methods after import.  A module-level function is replaced in every blaq
module namespace that holds it (``project`` lives in ``quantizer`` but is
also imported into ``optimizers``, ``training`` and the package root), so
a call is caught whichever name the caller used.  A method is replaced
once on its class.

Two instruments use this:

* ``StepClock`` -- the untraced runs.  It times the one step kind a
  workload reports latency for and counts optimizer steps; every other
  call runs unwrapped.
* ``Tracer`` -- the traced runs.  One span per wrapped call (target,
  start, end, parent span), kept in memory and turned into per-layer
  calls and self times when the repetition ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import NamedTuple


class Target(NamedTuple):
    metric: str     # per-layer metric prefix the span counts toward
    module: str
    attr: str       # "function" or "Class.method"
    kind: str = ""  # "step": count grad evaluations; "write": count bytes


# Public functions of each layer.  The metric prefix groups the calls whose
# self time one layer metric reports.
TARGETS = (
    Target("autodiff.forward", "blaq.autodiff", "Graph.forward"),
    Target("autodiff.backward", "blaq.autodiff", "Graph.backward"),
    Target("models.eval", "blaq.models", "ToyObjective.loss_at"),
    Target("models.eval", "blaq.models", "ToyObjective.grad_at"),
    Target("models.eval", "blaq.models", "MlpClassifier.eval_batch"),
    Target("models.eval", "blaq.models", "MlpClassifier.accuracy"),
    Target("quantizer.project", "blaq.quantizer", "project"),
    Target("quantizer.nearest_level", "blaq.quantizer", "nearest_level"),
    Target("curvature.update", "blaq.curvature", "CurvatureState.update"),
    Target("curvature.copy", "blaq.curvature", "CurvatureState.copy"),
    Target("optimizers.step", "blaq.optimizers", "laq_step", "step"),
    Target("optimizers.step", "blaq.optimizers", "blaq_step", "step"),
    Target("optimizers.step", "blaq.optimizers", "full_precision_step", "step"),
    Target("metrics.append", "blaq.metrics", "TrajectoryRecord.append"),
    Target("metrics.diagnostics", "blaq.metrics", "flip_count"),
    Target("metrics.diagnostics", "blaq.metrics", "oscillation_amplitude"),
    Target("metrics.diagnostics", "blaq.metrics", "direction_change_count"),
    Target("metrics.diagnostics", "blaq.metrics", "steps_to_tolerance"),
    Target("theory.instance", "blaq.theory", "check_instance"),
    Target("theory.loss_floor", "blaq.theory", "quantized_loss_floor"),
    Target("theory.bound_check", "blaq.theory", "count_bound_violations"),
    Target("training.loop", "blaq.training", "train_classifier"),
    Target("experiments.write", "blaq.experiments", "write_json", "write"),
    Target("experiments.write", "blaq.experiments", "write_trajectory_csv", "write"),
    Target("experiments.write", "blaq.experiments", "write_training_csv", "write"),
    Target("experiments.runner", "blaq.experiments", "run"),
    Target("mnist.load", "blaq.mnist", "load_mnist"),
)

# Per-layer metrics of a traced run, with their units.  The same names are
# reported on every workload; a layer a workload never enters reads 0.
LAYER_UNITS = {
    "autodiff.forward.calls": "count",
    "autodiff.forward.self_s": "s",
    "autodiff.backward.calls": "count",
    "autodiff.backward.self_s": "s",
    "models.eval.self_s": "s",
    "quantizer.project.calls": "count",
    "quantizer.project.self_s": "s",
    "quantizer.nearest_level.calls": "count",
    "quantizer.nearest_level.self_s": "s",
    "quantizer.iters_per_project": "ratio",
    "curvature.update.calls": "count",
    "curvature.update.self_s": "s",
    "curvature.copy.self_s": "s",
    "optimizers.steps": "count",
    "optimizers.step.self_s": "s",
    "optimizers.grad_evals_per_step": "ratio",
    "metrics.append.self_s": "s",
    "metrics.diagnostics.self_s": "s",
    "theory.instance.self_s": "s",
    "theory.loss_floor.self_s": "s",
    "theory.bound_check.self_s": "s",
    "training.loop.self_s": "s",
    "experiments.write.self_s": "s",
    "experiments.bytes_written": "bytes",
    "experiments.runner.self_s": "s",
    "mnist.load.self_s": "s",
    "trace.overhead_s": "s",
}


def patch(module, attr, make_wrapper):
    """Replace module.attr by make_wrapper(original) wherever it is bound."""
    owner = sys.modules[module]
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        cls = getattr(owner, cls_name)
        setattr(cls, name, make_wrapper(cls.__dict__[name]))
        return
    original = getattr(owner, name)
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "blaq" or mod_name.startswith("blaq."):
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapper)


class StepClock:
    """Latency of one step kind and the optimizer step count, untraced.

    A step starts at the first call of `start` since the previous step
    ended, and ends when a call of `end` returns; with start == end that
    is the duration of each call.  Steps are counted as calls of
    `counted`.
    """

    def __init__(self, start, end, counted):
        self.start, self.end, self.counted = start, end, counted
        self.latencies = []
        self.steps = 0
        self._open = None

    def install(self):
        clock = time.perf_counter

        def make_start(fn):
            @functools.wraps(fn)
            def started(*args, **kwargs):
                if self._open is None:
                    self._open = clock()
                return fn(*args, **kwargs)
            return started

        def make_end(fn):
            @functools.wraps(fn)
            def ended(*args, **kwargs):
                if self._open is None:
                    self._open = clock()
                result = fn(*args, **kwargs)
                self.latencies.append(clock() - self._open)
                self._open = None
                return result
            return ended

        def make_counter(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.steps += 1
                return fn(*args, **kwargs)
            return counted

        for module, attr in self.counted:
            patch(module, attr, make_counter)
        if self.start != self.end:
            patch(*self.start, make_start)
        patch(*self.end, make_end)


class Tracer:
    """In-memory spans around every target; per-layer totals on demand."""

    def __init__(self):
        self.spans = []       # [target index, start, end, parent span or -1]
        self._stack = []
        self.grad_evals = 0   # gradient callbacks invoked inside optimizer steps
        self.bytes_written = 0

    def install(self):
        for index, target in enumerate(TARGETS):
            patch(target.module, target.attr,
                  functools.partial(self._wrap, index, target.kind))

    def _count_grads(self, grad_at):
        def counted(w):
            self.grad_evals += 1
            return grad_at(w)
        return counted

    def _wrap(self, index, kind, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kind == "step":
                args = (args[0], self._count_grads(args[1])) + args[2:]
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if kind == "write":
                self.bytes_written += os.path.getsize(args[0])
            return result
        return traced

    def layer_metrics(self):
        """Calls, self times and ratios per layer (trace.overhead_s aside)."""
        calls = {t.metric: 0 for t in TARGETS}
        self_s = {t.metric: 0.0 for t in TARGETS}
        covered = [0.0] * len(self.spans)
        loop = next(i for i, t in enumerate(TARGETS) if t.metric == "training.loop")
        training_steps = training_grads = 0
        # children follow their parent in the list, so a reverse pass sees
        # every child before its parent
        for i in range(len(self.spans) - 1, -1, -1):
            index, start, end, parent = self.spans[i]
            metric = TARGETS[index].metric
            duration = end - start
            calls[metric] += 1
            self_s[metric] += duration - covered[i]
            if parent >= 0:
                covered[parent] += duration
                if self.spans[parent][0] == loop:
                    attr = TARGETS[index].attr
                    training_steps += attr == "TrajectoryRecord.append"
                    training_grads += attr == "MlpClassifier.eval_batch"
        steps = calls["optimizers.step"] + training_steps
        out = {
            "optimizers.steps": steps,
            "optimizers.grad_evals_per_step":
                (self.grad_evals + training_grads) / steps if steps else 0.0,
            "quantizer.iters_per_project":
                calls["quantizer.nearest_level"] / calls["quantizer.project"]
                if calls["quantizer.project"] else 0.0,
            "experiments.bytes_written": self.bytes_written,
        }
        for name in LAYER_UNITS:
            prefix, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls[prefix]
            elif field == "self_s":
                out[name] = self_s[prefix]
        return out

    def write_spans(self, path, origin):
        """CSV of every span, times in seconds from `origin`."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (index, start, end, parent) in enumerate(self.spans):
                t = TARGETS[index]
                fh.write(f"{i},{parent},{t.module}.{t.attr},"
                         f"{start - origin:.9f},{end - origin:.9f}\n")
