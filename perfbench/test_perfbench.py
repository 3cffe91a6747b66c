"""The benchmark's correctness gate: a wrong or missing reference, or an
experiment that raises, is counted as failed.  And its reference clock."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fedclf.server  # noqa: E402
from fedclf.dataset import PartitionSpec, SplitMode  # noqa: E402
from refclock import REFERENCE_S, RefClock  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Stats,
    battery_hashes,
    run_battery,
    run_experiment,
    run_hash,
)

# Small enough to run in well under a second, large enough for S=60 to
# yield K shards in the battery's nonequal partition.
TINY = replace(
    WORKLOADS["paper-default"].config,
    num_clients=5,
    select_k=2,
    rounds=4,
    synthetic_shape=(4, 3, 1200),
    partition=PartitionSpec(shard_size=50, split_mode=SplitMode.EQUAL, num_clients=5),
    seed=5,
)
TRUE_HASH = run_hash(fedclf.server.run_experiment(TINY))


@pytest.mark.parametrize(
    "cfg, references, failed",
    [
        (TINY, {"5": TRUE_HASH}, 0),
        (TINY, {"5": "0" * 64}, 1),
        (TINY, {}, 1),
        (replace(TINY, select_k=6), {"5": TRUE_HASH}, 1),  # raises: k > K
    ],
    ids=["match", "wrong-reference", "missing-reference", "raises"],
)
def test_experiment_gate(cfg, references, failed):
    stats = Stats()
    run_experiment(cfg, stats, references)
    assert (stats.attempted, stats.failed) == (1, failed)
    assert len(stats.final_ma) == 1 - failed


def test_battery_gate_counts_each_wrong_cell(tmp_path):
    references = battery_hashes(TINY, [5], tmp_path)
    assert len(references) == 12
    matching = Stats()
    run_battery(TINY, [5], 3, tmp_path, matching, references)
    assert (matching.attempted, matching.failed) == (12, 0)

    references["5/s1-equal/oort"] = "0" * 64
    one_wrong = Stats()
    run_battery(TINY, [5], 3, tmp_path, one_wrong, references)
    assert (one_wrong.attempted, one_wrong.failed) == (12, 1)


def test_reference_time_scales_each_segment_by_its_calibrations():
    clock = RefClock()
    clock.points = [0.0, 1.0, 2.0]
    clock.loop_s = [REFERENCE_S, 3 * REFERENCE_S, REFERENCE_S]
    # Between two calibrations the factor is REFERENCE_S over their mean
    # (here 1/2); beyond either end it is that of the nearest one (here 1).
    assert clock.reference_s(0.5, 1.5) == pytest.approx(0.5)
    assert clock.reference_s(-1.0, 3.0) == pytest.approx(1 + 0.5 + 0.5 + 1)
    assert RefClock(None).reference_s(1.0, 3.5) == 2.5


def test_calibration_is_left_out_of_clock_time():
    clock = RefClock()
    started = clock.now()
    clock.calibrate()
    assert clock.now() - started < clock.loop_s[0] / 2
    assert clock.points == [pytest.approx(started, abs=clock.loop_s[0] / 2)]
