"""Whole runs and battery cells against the reference simulator in
``reference.py``, which shares no round loop with ``src/``."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedclf.cli
from fedclf.dataset import PartitionSpec, SplitMode
from fedclf.selection import FactorMode, Strategy
from fedclf.server import ExperimentConfig, run_experiment
from reference import reference_run
from test_server import cell_outputs
from test_work_budget import BATTERY_SPECS, run_battery


PARTITIONS = {
    "s1-equal": (1, SplitMode.EQUAL),
    "s10-nonequal": (10, SplitMode.NONEQUAL),
    "s25-equal": (25, SplitMode.EQUAL),
}


@st.composite
def small_configs(draw):
    num_clients = draw(st.integers(3, 8))
    shard_size, split_mode = PARTITIONS[draw(st.sampled_from(sorted(PARTITIONS)))]
    return ExperimentConfig(
        num_clients=num_clients,
        select_k=draw(st.integers(1, min(3, num_clients))),
        rounds=draw(st.integers(1, 9)),
        epochs=draw(st.integers(1, 2)),
        learning_rate=draw(st.sampled_from([0.05, 0.3])),
        batch_size=draw(st.sampled_from([8, 32])),
        shape_tag=draw(st.sampled_from(["softmax", "mlp:3"])),
        strategy=draw(st.sampled_from(Strategy)),
        factor_mode=draw(st.sampled_from(FactorMode)),
        feedback_enabled=draw(st.booleans()),
        partition=PartitionSpec(shard_size, split_mode, num_clients),
        moving_avg_window=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**16)),
        synthetic_shape=(3, 3, 240),
        warmup_enabled=draw(st.booleans()),
        compound_factors=draw(st.booleans()),
    )


def example_config(**overrides):
    base = dict(
        num_clients=8, select_k=3, rounds=9, learning_rate=0.3, batch_size=8, seed=0,
        synthetic_shape=(3, 3, 240), moving_avg_window=3,
        partition=PartitionSpec(10, SplitMode.NONEQUAL, 8),
    )
    return ExperimentConfig(**{**base, **overrides})


@settings(max_examples=200, deadline=None)
@given(cfg=small_configs())
@example(cfg=example_config(compound_factors=True))
@example(cfg=example_config(compound_factors=True, factor_mode=FactorMode.ACC_RATIO))
@example(cfg=example_config(strategy=Strategy.GRAD_NORM, warmup_enabled=False))
@example(cfg=example_config(strategy=Strategy.NEWT_LIKE, shape_tag="mlp:3"))
def test_a_run_equals_the_reference_simulator(cfg):
    assert cell_outputs(cfg, run_experiment(cfg)) == cell_outputs(cfg, reference_run(cfg))


@pytest.mark.parametrize("battery", sorted(BATTERY_SPECS))
def test_every_battery_cell_equals_its_reference_run(battery, monkeypatch):
    # The cells run as a battery runs them, grouped and forked; the wrapper
    # keeps each cell's config and history.
    cells = []
    real_run = fedclf.cli.run_experiment

    def keep_cell(cfg):
        cells.append((cfg, real_run(cfg)))
        return cells[-1][1]

    monkeypatch.setattr(fedclf.cli, "run_experiment", keep_cell)
    run_battery(BATTERY_SPECS[battery])
    assert len(cells) == 24
    for cfg, history in cells:
        assert cell_outputs(cfg, history) == cell_outputs(cfg, reference_run(cfg)), cfg
