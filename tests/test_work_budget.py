"""Work budgets: exact counts of the expensive calls in four small runs.

A change that does more or less work per run, such as an extra evaluation,
a round run twice or a partition built per cell, moves a count here even
when every output stays the same.  The counts are committed in
``work_budget.json``.  After a deliberate change, record them again with::

    PYTHONPATH=src python tests/test_work_budget.py > tests/work_budget.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import fedclf.client
import fedclf.dataset
import fedclf.model
import fedclf.server
from fedclf.cli import main
from fedclf.dataset import PartitionSpec, Shards, SplitMode, make_synthetic
from fedclf.model import TrainConfig, init_params, mlp_tag, param_count
from fedclf.server import ExperimentConfig, run_experiment

BUDGET = Path(__file__).resolve().parent / "work_budget.json"

# Count name -> (owner, attribute) of the binding its callers reach.
COUNTED = {
    "Experiment.run_round": (fedclf.server.Experiment, "run_round"),
    "build_partition": (fedclf.server, "build_partition"),
    "client_update": (fedclf.server, "client_update"),
    "measure_utilities": (fedclf.server, "measure_utilities"),
    "server.evaluate": (fedclf.server, "evaluate"),
    "client.evaluate": (fedclf.client, "evaluate"),
    "model.gradient": (fedclf.model, "gradient"),
    "select": (fedclf.server, "select"),
}
# Count name -> (the ``COUNTED`` binding, what one of its calls adds).  The
# models each gradient call steps catch a model trained an extra step even
# when the number of stacked gradient calls stays the same.
TALLIED = {
    "model.gradient.models": ("model.gradient", lambda params, data: len(data.sizes)),
}

# Shaped like the paper default: softmax, feedback on, equal shards.
PAPER_DEFAULT = ExperimentConfig(
    num_clients=20,
    select_k=2,
    rounds=40,
    learning_rate=0.01,
    seed=1,
    synthetic_shape=(10, 8, 2400),
    partition=PartitionSpec(50, SplitMode.EQUAL, 20),
)
# Shaped like many-clients: feedback off, small nonequal shards.
MANY_CLIENTS = replace(
    PAPER_DEFAULT,
    num_clients=100,
    select_k=10,
    feedback_enabled=False,
    partition=PartitionSpec(10, SplitMode.NONEQUAL, 100),
)
BATTERY_SPEC = (
    "clients=8\nselect_k=2\nrounds=6\nlr=0.1\nbatch=16\nwindow=3\nsynthetic=4x3x480\n"
    "strategies=fedclf,rawloss,random,oort,newt,gradnorm\n"
    "datasets=s1-equal,s10-nonequal\nseeds=1,2\n"
)
# The same battery, and again in compound mode, whose round-1 anchors are
# the initial model's test metrics.
BATTERY_SPECS = {
    "battery": BATTERY_SPEC,
    "battery-compound": BATTERY_SPEC + "compound_factors=1\n",
}


def run_battery(spec_text: str) -> None:
    with tempfile.TemporaryDirectory(prefix="fedclf-budget-") as tmp:
        spec = Path(tmp) / "battery.conf"
        spec.write_text(spec_text)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["battery", str(spec), "--out", str(Path(tmp) / "out")])
        if code != 0:
            raise RuntimeError("battery failed")


RUNS = {
    "paper-default": lambda: run_experiment(PAPER_DEFAULT),
    "many-clients": lambda: run_experiment(MANY_CLIENTS),
    **{name: partial(run_battery, spec) for name, spec in BATTERY_SPECS.items()},
}


def count_work(run) -> dict[str, int]:
    """Calls of each ``COUNTED`` binding, and each ``TALLIED`` sum over
    them, while ``run()`` runs."""
    counts = dict.fromkeys([*COUNTED, *TALLIED], 0)
    originals = {name: getattr(*where) for name, where in COUNTED.items()}

    def counting(name):
        real = originals[name]

        def counted(*args, **kwargs):
            counts[name] += 1
            for tally, (of, units) in TALLIED.items():
                if of == name:
                    counts[tally] += units(*args, **kwargs)
            return real(*args, **kwargs)

        return counted

    try:
        for name, (owner, attr) in COUNTED.items():
            setattr(owner, attr, counting(name))
        run()
    finally:
        for name, (owner, attr) in COUNTED.items():
            setattr(owner, attr, originals[name])
    return counts


@pytest.mark.parametrize("run", sorted(RUNS))
def test_work_counts_match_the_budget(run):
    expected = json.loads(BUDGET.read_text())[run]
    counts = count_work(RUNS[run])
    changed = [
        f"{name}: {expected.get(name)} -> {counts.get(name)}"
        for name in sorted(expected.keys() | counts.keys())
        if expected.get(name) != counts.get(name)
    ]
    assert not changed, f"{run} work counts changed:\n" + "\n".join(changed)


def traced_peak(call) -> int:
    """The ``tracemalloc`` peak, in bytes, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


STEADY_ROUND = 30  # past the warmup: rounds 1 to 29 run untraced first


@pytest.mark.parametrize("cfg", [PAPER_DEFAULT, MANY_CLIENTS], ids=["paper-default", "many-clients"])
def test_build_and_round_peaks_stay_within_their_shape_bounds(cfg):
    # A build holds one copy of the features, one chunk of normals (the
    # whole draw here, where a build is smaller than one chunk) and a few
    # int64 row indices per sample.  A round's largest arrays are the test
    # split's per-class rows in evaluation and the cohort's rows in training.
    num_classes, num_features, num_samples = cfg.synthetic_shape
    feature_bytes = 8 * num_samples * num_features
    cycle_bytes = 8 * num_features * num_classes
    chunk_bytes = min(feature_bytes, max(fedclf.dataset._CHUNK_BYTES, cycle_bytes))
    build_bound = feature_bytes + chunk_bytes + 10 * 8 * num_samples

    fedclf.server.build_partition(cfg)  # modules that a build imports are not counted
    built = []
    build_peak = traced_peak(lambda: built.append(fedclf.server.build_partition(cfg)))
    experiment = fedclf.server.Experiment(cfg, *built.pop())
    for round_index in range(1, STEADY_ROUND):
        experiment.run_round(round_index)
    test_rows = experiment.test_stack.num_samples
    cohort_rows = cfg.select_k * int(experiment.shards.n_k.max())
    round_bound = 8 * (6 * test_rows * num_classes + 2 * cohort_rows * (num_features + num_classes))
    round_peak = traced_peak(lambda: experiment.run_round(STEADY_ROUND))

    over = [
        f"{name} peak {peak} B > bound {bound} B"
        for name, peak, bound in (("build", build_peak, build_bound), ("round", round_peak, round_bound))
        if peak > bound
    ]
    assert not over, "\n".join(over)


def test_a_cohort_step_holds_one_gradient_block_beside_the_start_stack():
    # An mlp-wide-shaped cohort at a batch of 2, where one (g, P) block of
    # parameters outweighs a step's activations.  client_update holds the
    # start stack, which it trains in place, and each step one gradient
    # block, scaled and subtracted in place; the weight change after
    # training takes the gradient's place.  Besides them: the rows gathered
    # for every step (features, one-hot targets, and a label, a row index and
    # a schedule entry in int64), each batch's schedule slice (an array view
    # of under 512 B) and a step's activations (five hidden-width and four
    # class-width float64 arrays per row of the step).
    clients, rows, batch, features, hidden, classes = 20, 20, 2, 32, 64, 10
    tag = mlp_tag(features, hidden, classes)
    data = make_synthetic(clients * rows, features, classes, seed=1)
    shards = Shards(data, np.arange(0, clients * rows + 1, rows))
    cfg = TrainConfig(epochs=1, learning_rate=0.01, batch_size=batch)
    ids, seeds = list(range(clients)), list(range(100, 100 + clients))
    update = partial(fedclf.client.client_update, shards, ids, init_params(tag, seed=1), cfg, seeds)
    update()  # modules and caches that a first call fills are not counted

    block_bytes = 8 * clients * param_count(tag)
    gathered = clients * rows * cfg.epochs
    rows_bytes = 8 * gathered * (features + classes + 3) + 512 * gathered // batch
    step_bytes = 8 * clients * batch * (5 * hidden + 4 * classes)
    bound = 2 * block_bytes + rows_bytes + step_bytes
    peak = traced_peak(update)
    assert peak <= bound, f"client_update peak {peak} B > bound {bound} B, {block_bytes} B a block"


if __name__ == "__main__":
    budget = {run: count_work(RUNS[run]) for run in sorted(RUNS)}
    sys.stdout.write(json.dumps(budget, indent=2) + "\n")
