"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Desk-scale protocol: synthetic 10-class / 8-feature data, 6,000 train and
1,200 test samples, K=50 clients, k=5 per round, R=100 rounds, E=1 local
epoch, softmax model.  Local steps use the full local batch (the exact
one-gradient-step-per-epoch reading of the update rule); the learning rate
and cluster spread were fixed once from a tuning study and are not adjusted
per seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import fedclf.server
from fedclf.cli import main as cli_main
from fedclf.client import client_update, measure_utilities
from fedclf.dataset import (
    PartitionSpec,
    SplitMode,
    make_synthetic,
    partition,
    partition_report,
)
from fedclf.model import (
    ModelParams,
    evaluate,
    init_params,
    mlp_tag,
    softmax_tag,
)
from fedclf.selection import (
    FactorMode,
    GlobalTrend,
    Strategy,
    make_selector,
    select,
    utilities,
)
from fedclf.server import (
    ExperimentConfig,
    aggregate,
    deterministic_csv_payload,
    moving_average,
    run_experiment,
)
from test_dataset import shards_of
from test_model import grad_check

SEEDS = tuple(range(1, 11))

# Frozen desk-scale run configuration (see module docstring).
BASE_RUN = ExperimentConfig(
    num_clients=50,
    select_k=5,
    rounds=100,
    epochs=1,
    learning_rate=0.01,
    batch_size=120,
    cluster_spread=2.0,
    moving_avg_window=30,
    synthetic_shape=(10, 8, 7200),
    partition=PartitionSpec(shard_size=50, split_mode=SplitMode.EQUAL, num_clients=50),
)
S_HIGH = 60  # per-client label support ~2 classes at 120 samples per client
S_IID = 1


def _line(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def _config(shard_size: int, strategy: Strategy, seed: int) -> ExperimentConfig:
    return replace(
        BASE_RUN,
        seed=seed,
        strategy=strategy,
        feedback_enabled=strategy is Strategy.FEDCLF,
        partition=replace(BASE_RUN.partition, shard_size=shard_size),
    )


@pytest.fixture(scope="module")
def directional_runs():
    """All 100-round runs shared by criteria 6, 7 and 8."""
    runs = {}
    for seed in SEEDS:
        for name, shard_size, strategy in (
            ("high-fedclf", S_HIGH, Strategy.FEDCLF),
            ("high-random", S_HIGH, Strategy.RANDOM),
            ("iid-fedclf", S_IID, Strategy.FEDCLF),
            ("iid-random", S_IID, Strategy.RANDOM),
            ("mid-fedclf", 50, Strategy.FEDCLF),
        ):
            cfg = _config(shard_size, strategy, seed)
            runs[(name, seed)] = (cfg, run_experiment(cfg))
    return runs


# ----------------------------------------------------------- criterion 1


def test_criterion_1_aggregation_oracle():
    rng = np.random.default_rng(101)
    tag = softmax_tag(6, 5)  # 35 parameters
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        count = int(rng.integers(1, 7))
        rows, n_k = [], []
        for _ in range(count):
            rows.append(rng.normal(scale=3.0, size=35))
            n_k.append(int(rng.integers(1, 500)))
        out = aggregate(ModelParams(np.stack(rows), tag), n_k).values
        total = sum(n_k)
        for j in range(35):
            expected = sum(n * float(row[j]) for n, row in zip(n_k, rows))
            expected /= total
            worst = max(worst, abs(float(out[j]) - expected))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    _line(1, ok, f"1000 instances, max |error|={worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


# ----------------------------------------------------------- criterion 2


def test_criterion_2_gradient_check():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        f = int(rng.integers(2, 6))
        c = int(rng.integers(2, 5))
        data = make_synthetic(10, f, c, seed=int(rng.integers(1 << 30)))
        if trial % 2 == 0:
            params = init_params(softmax_tag(f, c), seed=trial)
        else:
            h = int(rng.integers(3, 7))
            params = init_params(mlp_tag(f, h, c), seed=trial)
        worst = max(worst, grad_check(params, data, epsilon=1e-5))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 10.0
    _line(2, ok, f"20 instances, max rel err={worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-4
    assert elapsed < 10.0


# ----------------------------------------------------------- criterion 3


def test_criterion_3_loss_utility_and_calibration():
    rng = np.random.default_rng(303)

    # n_k * RMS identity against an independent recomputation.
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 40))
        client = make_synthetic(n, 4, 3, seed=trial)
        params = init_params(softmax_tag(4, 3), seed=trial)
        [utility], _ = measure_utilities(shards_of([client]), [0], params)
        losses = evaluate(params, client).per_sample_losses
        expected = n * math.sqrt(sum(v * v for v in losses) / n)
        worst = max(worst, abs(float(utility) - expected))
    rms_ok = worst <= 1e-9

    # Unit correction factor is the identity.
    unit = GlobalTrend(acc_prev=0.5, acc_prev2=0.5, loss_prev=1.3, loss_prev2=1.3)
    stale = [0.0, 0.37, 12.5]
    clients = np.full(4, 2)  # four clients' sample counts
    identity_ok = True
    for mode in FactorMode:
        state = make_selector(Strategy.FEDCLF, clients, 1, rng_seed=0, factor_mode=mode)
        state.loss_utility[:] = [*stale, 1.0]
        state.last_round_selected[3] = True
        identity_ok &= utilities(state, unit, 40)[:3].tolist() == stale

    # Calibrated selection equals raw-loss selection under a unit factor.
    set_matches = 0
    for trial in range(100):
        size = int(rng.integers(3, 30))
        k = int(rng.integers(1, size + 1))
        clients = np.full(size, 2)
        values = [float(rng.uniform(0.05, 20.0)) for _ in range(size)]
        last = {int(c) for c in rng.choice(size, size=k, replace=False)}
        pair = []
        for strategy in (Strategy.FEDCLF, Strategy.RAW_LOSS):
            state = make_selector(strategy, clients, k, rng_seed=trial)
            state.loss_utility[:] = values
            state.sampled_once[:] = True
            state.last_round_selected[list(last)] = True
            pair.append(select(state, 40, unit))
        set_matches += pair[0] == pair[1]
    selection_ok = set_matches == 100

    ok = rms_ok and identity_ok and selection_ok
    _line(
        3,
        ok,
        f"rms max err={worst:.2e}, unit-factor identity={identity_ok}, "
        f"set equality {set_matches}/100",
    )
    assert rms_ok and identity_ok and selection_ok


# ----------------------------------------------------------- criterion 4


def test_criterion_4_unique_sampling_coverage():
    failures = 0
    for seed in range(20):
        state = make_selector(Strategy.FEDCLF, np.full(50, 2), 5, rng_seed=seed)
        rounds = [select(state, r, GlobalTrend.empty()) for r in range(1, 11)]
        disjoint = all(
            not (rounds[i] & rounds[j])
            for i in range(10)
            for j in range(i + 1, 10)
        )
        covered = set().union(*rounds) == set(range(50))
        if not (disjoint and covered):
            failures += 1
    ok = failures == 0
    _line(4, ok, f"20 seeds, {20 - failures}/20 with disjoint full coverage")
    assert ok


# ----------------------------------------------------------- criterion 5


def test_criterion_5_emd_ladder():
    # The shard ladder includes S=200, which needs at least K shards, so this
    # runs on a larger synthetic set than the training runs use (20,000
    # samples gives 100 shards at S=200 for K=50).
    ladder = (1, 5, 50, 200)
    totals = {s: [] for s in ladder}
    seedwise_ok = True
    for seed in SEEDS:
        ds = make_synthetic(20_000, 8, 10, seed=seed)
        values = {}
        for shard_size in ladder:
            spec = PartitionSpec(
                shard_size=shard_size,
                split_mode=SplitMode.EQUAL,
                num_clients=50,
                seed=seed,
            )
            report = partition_report(partition(ds, spec))
            values[shard_size] = float(report.splitlines()[-1].rpartition(",")[2])
            totals[shard_size].append(values[shard_size])
        if not values[200] > values[50] > values[5] > values[1]:
            seedwise_ok = False
    means = {s: float(np.mean(v)) for s, v in totals.items()}
    averaged_ok = means[200] > means[50] > means[5] > means[1]
    ok = averaged_ok and seedwise_ok
    _line(
        5,
        ok,
        "seed-averaged EMD "
        + " > ".join(f"S{s}={means[s]:.3f}" for s in (200, 50, 5, 1))
        + f", every-seed ordering={seedwise_ok}",
    )
    assert ok


# ----------------------------------------------------------- criterion 6


def test_criterion_6_feedback_reduces_sampling(directional_runs):
    fractions = []
    for seed in SEEDS:
        _, history = directional_runs[("mid-fedclf", seed)]
        fractions.append(sum(r.selection_ran for r in history) / len(history))
    mean_fraction = float(np.mean(fractions))
    ok = mean_fraction <= 0.70
    _line(
        6,
        ok,
        f"selection in {mean_fraction:.0%} of rounds (seed-averaged, S=50), "
        f"bound 70%",
    )
    assert ok


# ----------------------------------------------------------- criterion 7


def test_criterion_7_directional_accuracy_gap(directional_runs):
    def mean_gap(partition_name):
        gaps = []
        for seed in SEEDS:
            fed = directional_runs[(f"{partition_name}-fedclf", seed)][1]
            rnd = directional_runs[(f"{partition_name}-random", seed)][1]
            gaps.append(fed[-1].ma_accuracy - rnd[-1].ma_accuracy)
        return float(np.mean(gaps))

    gap_high = mean_gap("high")
    gap_iid = mean_gap("iid")
    ok = gap_high >= 0.0 and gap_high >= gap_iid - 0.01
    _line(
        7,
        ok,
        f"gap(S={S_HIGH})={gap_high:+.4f} gap(S=1)={gap_iid:+.4f} "
        f"(need gap_high >= 0 and >= gap_iid - 0.01)",
    )
    assert ok


# ----------------------------------------------------------- criterion 8


def test_criterion_8_gate_soundness_audit(directional_runs):
    violations = 0
    audited = 0
    for (name, _seed), (cfg, history) in directional_runs.items():
        warmup = math.ceil(cfg.num_clients / cfg.select_k)
        for record in history:
            r = record.round_index
            if not record.selection_ran:
                if record.selected_ids != history[r - 2].selected_ids:
                    violations += 1
            if cfg.feedback_enabled and r >= 3 and r > warmup:
                audited += 1
                declined = (
                    history[r - 2].test_accuracy < history[r - 3].test_accuracy
                )
                if record.selection_ran != declined:
                    violations += 1
            elif not cfg.feedback_enabled and not record.selection_ran:
                violations += 1
    ok = violations == 0
    _line(8, ok, f"{audited} gated rounds audited across 50 runs, {violations} violations")
    assert ok


# ----------------------------------------------------------- criterion 9


def test_criterion_9_moving_average_oracle():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(1, 120))
        history = rng.uniform(size=length).tolist()
        for window in (1, 5, 30):
            for r in range(1, length + 1):
                lo = max(0, r - window)
                expected = sum(history[lo:r]) / (r - lo)
                got = moving_average(history, r, window)
                worst = max(worst, abs(got - expected))
    ok = worst <= 1e-12
    _line(9, ok, f"100 histories x N in {{1,5,30}}, max |error|={worst:.2e}")
    assert ok


# ---------------------------------------------------------- criterion 10


def test_criterion_10_determinism(tmp_path, monkeypatch):
    args = [
        "run", "--rounds", "12", "--clients", "10", "--select-k", "2",
        "--synthetic", "4x4x600", "--S", "10", "--lr", "0.05", "--seed", "21",
    ]
    payloads, selections = [], []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        payloads.append(deterministic_csv_payload((out / "run.csv").read_text()))
        selections.append((out / "selection.csv").read_bytes())
    rerun_ok = payloads[0] == payloads[1] and selections[0] == selections[1]

    cfg = replace(
        _config(S_HIGH, Strategy.FEDCLF, seed=3), rounds=12, num_clients=10,
        select_k=3, synthetic_shape=(4, 4, 600),
        partition=replace(BASE_RUN.partition, shard_size=10),
        batch_size=32,
    )
    stacked = run_experiment(cfg)

    def one_at_a_time(shards, ids, params, cfg, seeds):
        """Reference dispatch: each client trains alone; rows are restacked."""
        singles = [
            client_update(shards_of([shards[c]]), [0], params, cfg, [s]) for c, s in zip(ids, seeds)
        ]
        return (
            ModelParams(np.concatenate([s[0].values for s in singles]), params.shape_tag),
            np.concatenate([s[1] for s in singles]),
        )

    monkeypatch.setattr(fedclf.server, "client_update", one_at_a_time)
    per_client = run_experiment(cfg)
    strip = lambda history: [replace(r, wall_time=0.0) for r in history]
    schedule_ok = strip(stacked) == strip(per_client)

    ok = rerun_ok and schedule_ok
    _line(
        10,
        ok,
        f"identical rerun payloads={rerun_ok}, stacked==per-client records={schedule_ok}",
    )
    assert ok
