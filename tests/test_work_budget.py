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
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

import fedclf.client
import fedclf.model
import fedclf.server
from fedclf.cli import main
from fedclf.dataset import PartitionSpec, SplitMode
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
    """Calls of each ``COUNTED`` binding while ``run()`` runs."""
    counts = dict.fromkeys(COUNTED, 0)
    originals = {name: getattr(*where) for name, where in COUNTED.items()}

    def counting(name):
        real = originals[name]

        def counted(*args, **kwargs):
            counts[name] += 1
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


if __name__ == "__main__":
    budget = {run: count_work(RUNS[run]) for run in sorted(RUNS)}
    sys.stdout.write(json.dumps(budget, indent=2) + "\n")
