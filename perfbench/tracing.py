"""Layer tracing from outside the program: wrappers patched where callers bind.

``from module import name`` copies the binding into the caller's namespace,
so each wrapper is installed on the module that *calls* the function (for
example ``fedclf.server.client_update``, not ``fedclf.client.client_update``).
Spans (name, start, end, parent, experiment) are kept in memory and written
out when the benchmark ends.  ``model.gradient`` and ``model.parse_shape_tag``
run about 11k times per experiment, so they are counted (and ``gradient``
timed) without spans.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict
from time import perf_counter_ns

import fedclf.cli
import fedclf.client
import fedclf.model
import fedclf.server

# Span name -> (module that binds the name, attribute).
SPANNED = {
    "server.build_experiment": (fedclf.server, "build_experiment"),
    "dataset.make_synthetic": (fedclf.server, "make_synthetic"),
    "dataset.split_train_test": (fedclf.server, "split_train_test"),
    "dataset.partition": (fedclf.server, "partition"),
    "server.run_round": (fedclf.server.Experiment, "run_round"),
    "selection.select": (fedclf.server, "select"),
    "selection.update": (fedclf.server, "update_after_round"),
    "client.update": (fedclf.server, "client_update"),
    "client.evaluate": (fedclf.client, "evaluate"),
    "model.sgd": (fedclf.client, "sgd_epochs"),
    "server.aggregate": (fedclf.server, "aggregate"),
    "server.test_eval": (fedclf.server, "evaluate"),
    "cli.cell": (fedclf.cli, "run_experiment"),
}

NAME, START, END, PARENT, EXPERIMENT = range(5)


@contextlib.contextmanager
def patched(target, attr, make_wrapper):
    """Replace ``target.attr`` with ``make_wrapper(original)`` for the block."""
    original = getattr(target, attr)
    setattr(target, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(target, attr, original)


class Tracer:
    """In-memory span recorder plus call counters for the hottest functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.experiment = ""
        self.gradient_calls = 0
        self.gradient_ns = 0
        self.gradient_samples = 0
        self.parse_calls = 0

    def span(self, name: str):
        """Return a factory that wraps a function in a ``name`` span."""

        def make(fn):
            spans, stack = self.spans, self.stack

            def traced(*args, **kwargs):
                # The slot is reserved now and filled with a tuple of atoms at
                # the end, which the cyclic GC stops tracking; a growing list
                # of mutable records would slow every later collection.
                index = len(spans)
                parent = stack[-1] if stack else -1
                spans.append(None)
                stack.append(index)
                started = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans[index] = (name, started, perf_counter_ns(), parent, self.experiment)
                    stack.pop()

            return traced

        return make

    def _count_gradient(self, fn):
        def gradient(params, data):
            started = perf_counter_ns()
            try:
                return fn(params, data)
            finally:
                self.gradient_ns += perf_counter_ns() - started
                self.gradient_calls += 1
                self.gradient_samples += data.num_samples

        return gradient

    def _count_parse(self, fn):
        def parse_shape_tag(tag):
            self.parse_calls += 1
            return fn(tag)

        return parse_shape_tag

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced binding for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for name, (target, attr) in SPANNED.items():
                stack.enter_context(patched(target, attr, self.span(name)))
            stack.enter_context(
                patched(fedclf.model, "gradient", self._count_gradient)
            )
            stack.enter_context(
                patched(fedclf.model, "parse_shape_tag", self._count_parse)
            )
            yield self

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,experiment\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[EXPERIMENT]}\n")

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed duration (s), summed self time (s), calls."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s, children in zip(self.spans, child_ns):
            duration = s[END] - s[START]
            total[s[NAME]] += duration / 1e9
            self_time[s[NAME]] += (duration - children) / 1e9
            calls[s[NAME]] += 1
        return total, self_time, calls

    def durations(self, name: str) -> list[float]:
        return [(s[END] - s[START]) / 1e9 for s in self.spans if s[NAME] == name]


def train_flops_per_sample(shape_tag: str, num_features: int, num_classes: int) -> int:
    """Matmul FLOPs of one forward+backward pass per sample, from shapes.

    softmax: ``x@W`` and ``x.T@delta`` give 4FC.  mlp: forward 2FH+2HC,
    backward 2HC (W2 grad) + 2HC (delta@W2.T) + 2FH (W1 grad).
    """
    f, c = num_features, num_classes
    if shape_tag == "softmax":
        return 4 * f * c
    hidden = int(shape_tag.split(":")[1])
    return 4 * f * hidden + 6 * hidden * c


def layer_metrics(
    tracer: Tracer,
    flops_per_sample: int,
    overhead_pct: float,
) -> dict[str, float]:
    """Per-layer metrics from a traced run.

    ``*_ms`` of round-loop layers are milliseconds per simulated round;
    ``*_calls`` are calls per experiment; dataset timings are per call;
    ``cli.*`` are per battery command and 0 on workloads that run none.
    ``model.train_gflop_per_s`` is computed from shapes, not counted.
    """
    total, self_time, calls = tracer.totals()
    rounds = max(calls["server.run_round"], 1)
    experiments = max(calls["server.build_experiment"], 1)

    def per_round(seconds: float) -> float:
        return seconds * 1e3 / rounds

    def per_call(name: str) -> float:
        return total[name] * 1e3 / calls[name] if calls[name] else 0.0

    gradient_s = tracer.gradient_ns / 1e9
    sgd_s = total["model.sgd"]
    cells = tracer.durations("cli.cell")
    battery_s = total["cli.battery"]
    return {
        "dataset.make_synthetic_ms": per_call("dataset.make_synthetic"),
        "dataset.split_train_test_ms": per_call("dataset.split_train_test"),
        "dataset.partition_ms": per_call("dataset.partition"),
        "selection.select_ms": per_round(total["selection.select"]),
        "selection.select_calls": calls["selection.select"] / experiments,
        "selection.update_ms": per_round(total["selection.update"]),
        "selection.resample_ratio": calls["selection.select"] / rounds,
        "client.update_ms": per_round(total["client.update"]),
        "client.update_calls": calls["client.update"] / experiments,
        "client.self_ms": per_round(self_time["client.update"]),
        "client.evaluate_ms": per_round(total["client.evaluate"]),
        "client.evaluate_calls": calls["client.evaluate"] / experiments,
        "model.sgd_ms": per_round(sgd_s),
        "model.sgd_self_ms": per_round(sgd_s - gradient_s),
        "model.gradient_ms": per_round(gradient_s),
        "model.gradient_calls": tracer.gradient_calls / experiments,
        "model.parse_shape_tag_calls": tracer.parse_calls / experiments,
        "model.train_gflop_per_s": (
            tracer.gradient_samples * flops_per_sample / sgd_s / 1e9 if sgd_s else 0.0
        ),
        "server.round_ms": per_round(total["server.run_round"]),
        "server.test_eval_ms": per_round(total["server.test_eval"]),
        "server.aggregate_ms": per_round(total["server.aggregate"]),
        "server.round_self_ms": per_round(self_time["server.run_round"]),
        "cli.cell_s.p50": statistics.median(cells) if cells else 0.0,
        "cli.cell_busy_share": sum(cells) / battery_s if battery_s else 0.0,
        "cli.self_ms": (
            self_time["cli.battery"] * 1e3 / calls["cli.battery"]
            if calls["cli.battery"]
            else 0.0
        ),
        "trace.overhead_pct": overhead_pct,
    }
