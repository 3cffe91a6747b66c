"""Round loop: aggregation, feedback gate, moving average, full runs."""

from __future__ import annotations

import math
import sys
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedclf.server
from fedclf.client import NonFiniteUpdateError, client_update, measure_utilities
from fedclf.dataset import (
    ClientDataset,
    LabeledDataset,
    PartitionSpec,
    SplitMode,
    make_synthetic,
)
from fedclf.model import ModelParams, TrainConfig, softmax_tag
from fedclf.seeds import split_seed
from fedclf.selection import FactorMode, Strategy
from fedclf.server import (
    Experiment,
    ExperimentConfig,
    RoundRecord,
    aggregate,
    build_experiment,
    build_partition,
    deterministic_csv_payload,
    feedback_gate,
    moving_average,
    run_experiment,
    run_log_csv,
    selection_log_csv,
    summary_text,
)


def stack_of(*rows, tag=None):
    """A ``(g, P)`` parameter stack, one row per trained client."""
    return ModelParams(np.array(rows, dtype=float), tag or softmax_tag(2, 2))


def record(r, acc, selection_ran=True, ids=(0,)):
    return RoundRecord(
        round_index=r,
        test_accuracy=acc,
        test_loss=1.0 - acc,
        ma_accuracy=acc,
        selection_ran=selection_ran,
        selected_ids=tuple(ids),
        wall_time=0.0,
    )


def small_config(**overrides):
    base = ExperimentConfig(
        num_clients=8,
        select_k=2,
        rounds=12,
        learning_rate=0.1,
        seed=5,
        synthetic_shape=(4, 3, 480),
        partition=PartitionSpec(
            shard_size=10, split_mode=SplitMode.EQUAL, num_clients=8
        ),
        moving_avg_window=5,
    )
    return replace(base, **overrides)


# -------------------------------------------------------------- aggregate


def test_aggregate_single_client_is_identity():
    trained = stack_of([1.0, 2.0, 3.0, 4.0, 0.0, 0.5])
    out = aggregate(trained, [7])
    assert np.array_equal(out.values, trained.values[0])


def test_aggregate_equal_weights_cancel_opposites():
    v = [1.0, -2.0, 3.0, 4.0, 5.0, -6.0]
    out = aggregate(stack_of(v, [-x for x in v]), [3, 3])
    assert out.values == pytest.approx(np.zeros(6), abs=1e-15)


def test_aggregate_weighted_example():
    tag = softmax_tag(1, 2)  # 4 parameters
    out = aggregate(stack_of([1.0] * 4, [4.0] * 4, tag=tag), [1, 3])
    assert out.values == pytest.approx([3.25, 3.25, 3.25, 3.25], abs=1e-12)
    assert out.shape_tag == tag


def test_aggregate_matches_elementwise_oracle():
    rng = np.random.default_rng(17)
    tag = softmax_tag(3, 2)
    for _ in range(50):
        count = int(rng.integers(1, 6))
        rows = [rng.normal(size=8) for _ in range(count)]
        n_k = [int(rng.integers(1, 50)) for _ in range(count)]
        out = aggregate(stack_of(*rows, tag=tag), n_k)
        total = sum(n_k)
        for j in range(8):
            expected = sum(n * row[j] for n, row in zip(n_k, rows)) / total
            assert abs(out.values[j] - expected) < 1e-9
        # Bitwise: weighted rows are summed one by one, in row order.
        in_order = np.zeros(8)
        for n, row in zip(n_k, rows):
            in_order += (n / total) * row
        assert out.values.tobytes() == in_order.tobytes()


def test_aggregate_rejects_empty_and_miscounted_rows():
    empty = ModelParams(np.zeros((0, 6)), softmax_tag(2, 2))
    with pytest.raises(ValueError, match="zero results"):
        aggregate(empty, [])
    with pytest.raises(ValueError, match=r"\(2, 6\) parameter stack for 3 sample counts"):
        aggregate(stack_of([0.0] * 6, [1.0] * 6), [1, 2, 3])
    with pytest.raises(ValueError, match="for 1 sample counts"):
        aggregate(stack_of([0.0] * 6, [1.0] * 6), [4])
    with pytest.raises(ValueError, match=r"\(6,\) parameter stack"):
        aggregate(ModelParams(np.zeros(6), softmax_tag(2, 2)), [1] * 6)


# ---------------------------------------------------------- feedback_gate


def test_gate_improvement_keeps_cohort():
    history = [record(1, 0.40), record(2, 0.45)]
    assert feedback_gate(history, 3) is False


def test_gate_decline_resamples():
    history = [record(1, 0.45), record(2, 0.40)]
    assert feedback_gate(history, 3) is True


def test_gate_equality_keeps_cohort():
    history = [record(1, 0.40), record(2, 0.40)]
    assert feedback_gate(history, 3) is False


def test_gate_first_two_rounds_always_sample():
    assert feedback_gate([], 1) is True
    assert feedback_gate([record(1, 0.9)], 2) is True


def test_gate_warmup_overrides():
    history = [record(r, 0.1 * r) for r in range(1, 6)]  # improving
    assert feedback_gate(history, 6, warmup=10) is True
    assert feedback_gate(history, 6, warmup=2) is False


def test_gate_disabled_always_samples():
    history = [record(1, 0.40), record(2, 0.45)]
    assert feedback_gate(history, 3, enabled=False) is True


# --------------------------------------------------------- moving_average


def test_moving_average_constant_series():
    history = [0.37] * 40
    for r in (1, 5, 40):
        assert moving_average(history[:r], r, 30) == pytest.approx(0.37)


def test_moving_average_truncated_window():
    assert moving_average([0.2, 0.4, 0.6], 3, 2) == pytest.approx(0.5)
    assert moving_average([0.2, 0.4, 0.6], 2, 2) == pytest.approx(0.3)


def test_moving_average_matches_bruteforce():
    rng = np.random.default_rng(23)
    history = rng.uniform(size=100).tolist()
    for window in (1, 5, 30):
        for r in range(1, 101):
            expected = sum(history[max(0, r - window) : r]) / min(window, r)
            assert abs(moving_average(history, r, window) - expected) < 1e-12


# -------------------------------------------------------------- run_round


def test_first_round_always_selects():
    experiment = build_experiment(small_config(rounds=1))
    rec = experiment.run_round(1)
    assert rec.selection_ran is True
    assert len(rec.selected_ids) == 2


def test_each_round_reduces_the_test_accuracy_once(monkeypatch):
    # A round evaluates the test split once, on the one-block stack the
    # experiment built over the split's own arrays (the same object every
    # round, so no round rebuilds it); its record holds the means of that
    # call's per-row hits and losses.
    cfg = small_config(rounds=2)
    clients, test = build_partition(cfg)
    experiment = Experiment(cfg, clients, test)
    stack = experiment.test_stack
    assert stack.features is test.features and stack.labels is test.labels
    assert stack.sizes == (test.num_samples,)
    calls = []
    real_evaluate = fedclf.server.evaluate

    def recorded_evaluate(params, data):
        calls.append((data, real_evaluate(params, data)))
        return calls[-1][1]

    monkeypatch.setattr(fedclf.server, "evaluate", recorded_evaluate)
    for round_index in (1, 2):
        record = experiment.run_round(round_index)
        [(data, result)] = calls
        calls.clear()
        assert data is stack
        assert result.per_sample_hits.shape == (data.num_samples,)
        read = [
            (record.test_accuracy, result.per_sample_hits),
            (record.test_loss, result.per_sample_losses),
        ]
        for value, per_row in read:
            assert type(value) is float
            assert value.hex() == float(np.mean(per_row)).hex()


@pytest.mark.parametrize("done, bad", [([1], 1), ([1], 3), ([], 2), ([1, 2], 0)])
def test_out_of_order_round_raises_and_changes_nothing(done, bad):
    experiment = build_experiment(small_config(rounds=4))
    for round_index in done:
        experiment.run_round(round_index)
    history, params = list(experiment.history), experiment.params
    with pytest.raises(
        ValueError, match=f"round {bad} out of order, expected round {len(done) + 1}"
    ):
        experiment.run_round(bad)
    assert experiment.history == history and experiment.params is params
    # The experiment goes on from where it was.
    assert experiment.run_round(len(done) + 1).round_index == len(done) + 1


def test_zero_lr_freezes_accuracy_and_cohort():
    cfg = small_config(learning_rate=0.0, rounds=10)
    history = run_experiment(cfg)
    accs = {r.test_accuracy for r in history}
    assert len(accs) == 1
    warmup = -(-cfg.num_clients // cfg.select_k)  # ceil
    for rec in history[warmup:]:
        assert rec.selection_ran is False
        assert rec.selected_ids == history[warmup - 1].selected_ids


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    strategy=st.sampled_from(list(Strategy)),
    feedback=st.booleans(),
    warmup=st.booleans(),
)
def test_gate_soundness_and_frozen_cohorts_from_log(seed, strategy, feedback, warmup):
    cfg = small_config(
        rounds=25,
        seed=seed,
        strategy=strategy,
        feedback_enabled=feedback,
        warmup_enabled=warmup,
    )
    history = run_experiment(cfg)
    warmup_end = -(-cfg.num_clients // cfg.select_k) if warmup else 0
    for rec in history:
        r = rec.round_index
        assert len(set(rec.selected_ids)) == cfg.select_k
        if r <= max(2, warmup_end) or not feedback:
            assert rec.selection_ran is True
        else:
            declined = history[r - 2].test_accuracy < history[r - 3].test_accuracy
            assert rec.selection_ran == declined
        if not rec.selection_ran:
            assert rec.selected_ids == history[r - 2].selected_ids


def test_selection_happens_every_round_without_feedback():
    cfg = small_config(feedback_enabled=False, strategy=Strategy.RANDOM, rounds=9)
    history = run_experiment(cfg)
    assert all(r.selection_ran for r in history)


def test_identical_clients_aggregate_to_single_update():
    # Full-batch training on identical shards: every client computes the same
    # update, so the weighted average must equal any single client's result.
    data = make_synthetic(30, 3, 2, seed=2)
    clients = [ClientDataset(i, data) for i in range(4)]
    test_data = make_synthetic(40, 3, 2, seed=3)
    cfg = ExperimentConfig(
        num_clients=4,
        select_k=4,
        rounds=1,
        learning_rate=0.2,
        batch_size=64,
        seed=1,
        partition=PartitionSpec(shard_size=5, split_mode=SplitMode.EQUAL, num_clients=4),
    )
    experiment = Experiment(cfg, clients, test_data)
    initial = experiment.params
    experiment.run_round(1)

    single, _ = client_update(
        [clients[0]],
        initial,
        TrainConfig(epochs=1, learning_rate=0.2, batch_size=64),
        [split_seed(cfg.seed, "train-r1", 0)],
    )
    assert experiment.params.values == pytest.approx(single.values[0], abs=1e-9)


def test_round_records_have_ma_per_window():
    cfg = small_config(rounds=8, moving_avg_window=3)
    history = run_experiment(cfg)
    accs = [r.test_accuracy for r in history]
    for rec in history:
        expected = np.mean(accs[max(0, rec.round_index - 3) : rec.round_index])
        assert rec.ma_accuracy == pytest.approx(float(expected), abs=1e-12)


# --------------------------------------------------------- run_experiment


def test_run_experiment_single_round():
    history = run_experiment(small_config(rounds=1))
    assert len(history) == 1
    assert history[0].selection_ran is True


def test_run_experiment_deterministic_histories():
    cfg = small_config(rounds=10, seed=77)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    for ra, rb in zip(a, b):
        assert ra.test_accuracy == rb.test_accuracy
        assert ra.selected_ids == rb.selected_ids
        assert ra.selection_ran == rb.selection_ran


def test_each_round_dispatches_the_cohort_in_one_call(monkeypatch):
    cohorts = []
    original = fedclf.server.client_update

    def recording(clients, params, cfg, seeds):
        cohorts.append([c.client_id for c in clients])
        return original(clients, params, cfg, seeds)

    monkeypatch.setattr(fedclf.server, "client_update", recording)
    history = run_experiment(small_config(rounds=6, select_k=4, seed=31))
    assert cohorts == [list(r.selected_ids) for r in history]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_update_names_round_and_clients():
    clients = [
        ClientDataset(i, make_synthetic(12, 3, 2, seed=i)) for i in range(4)
    ]
    features = clients[2].data.features.copy()
    features[0, 0] = np.nan
    clients[2] = ClientDataset(2, LabeledDataset(features, clients[2].data.labels, 2))
    cfg = small_config(
        num_clients=4,
        select_k=4,
        rounds=3,
        partition=PartitionSpec(shard_size=3, split_mode=SplitMode.EQUAL, num_clients=4),
    )
    experiment = Experiment(cfg, clients, make_synthetic(20, 3, 2, seed=9))
    with pytest.raises(NonFiniteUpdateError, match="^round 1: .*client\\(s\\) 2$") as err:
        experiment.run_round(1)
    assert err.value.round_index == 1
    assert err.value.client_ids == (2,)
    assert experiment.history == []


def test_build_partition_peaks_near_two_copies_of_the_features():
    # The synthetic features are made in place (a means[labels] temporary
    # would double that peak), the split copies only the test rows, and the
    # partition gathers the training rows once: about twice the features'
    # bytes in all (a copy of the training split would take it near 2.8x).
    num_samples, num_features = 6000, 64
    feature_bytes = num_samples * num_features * 8
    cfg = small_config(num_clients=10, synthetic_shape=(10, num_features, num_samples))
    build_partition(small_config())  # modules that the first build imports are not counted
    tracemalloc.start()
    try:
        make_synthetic(num_samples, num_features, 10, seed=1)
        synthetic_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        clients, test = build_partition(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(c.n_k for c in clients) + test.num_samples == num_samples
    assert synthetic_peak <= 1.1 * feature_bytes
    assert peak <= 2.2 * feature_bytes


# ---------------------------------------------------- deferred measurement


# Strategies that rank by no measured utility: ``random`` never ranks and
# ``newt`` ranks by weight-change norm, so their cohorts are never measured.
UNMEASURED = (Strategy.RANDOM, Strategy.NEWT_LIKE)


class EagerExperiment(Experiment):
    """Reference: right after every round, writes the cohort's utilities
    (measured at the model it received; NaN for the ``UNMEASURED``
    strategies), weight-change norms (of training it again from that model
    with the round's seeds) and anchors (the received model's test metrics)
    to the selector columns itself.  It reads only the round's record, the
    global model and the public selector columns, and it overwrites whatever
    the round itself stored."""

    def run_round(self, round_index):
        cfg, received = self.cfg, self.params
        if self.history:
            acc, loss = self.history[-1].test_accuracy, self.history[-1].test_loss
        else:
            acc, loss = self.initial_metrics
        record = super().run_round(round_index)
        ids = list(record.selected_ids)
        cohort = [self.clients[cid] for cid in ids]
        seeds = [split_seed(cfg.seed, f"train-r{round_index}", cid) for cid in ids]
        train_cfg = TrainConfig(cfg.epochs, cfg.learning_rate, cfg.batch_size)
        _, deltas = client_update(cohort, received, train_cfg, seeds)
        loss_utility, grad_norm_utility = np.nan, np.nan
        if cfg.strategy not in UNMEASURED:
            loss_utility, grad_norm_utility = measure_utilities(
                cohort, received, want_grad_norm=cfg.strategy is Strategy.GRAD_NORM
            )
        state = self.selector
        state.loss_utility[ids] = loss_utility
        if grad_norm_utility is not None:
            state.grad_norm_utility[ids] = grad_norm_utility
        state.weight_delta_norm[ids] = deltas
        state.loss_anchor[ids] = np.nan if loss is None else loss
        state.acc_anchor[ids] = np.nan if acc is None else acc
        return record


def selector_columns(state):
    return [
        getattr(state, f.name).tobytes()
        for f in fields(state)
        if isinstance(getattr(state, f.name), np.ndarray)
    ]


def run_recorded(cfg, experiment_cls, monkeypatch):
    """Deterministic outputs, the selector columns at every ``select`` and at
    run end, the number of deferred measurement calls of one run, and the
    caller of each selector write."""
    columns, measured, writers = [], [], []
    select, measure = fedclf.server.select, fedclf.server.measure_utilities
    update = fedclf.server.update_after_round

    def recording_select(state, *args):
        columns.append(selector_columns(state))
        return select(state, *args)

    def counting_measure(*args, **kwargs):
        measured.append(1)
        return measure(*args, **kwargs)

    def recording_update(*args, **kwargs):
        writers.append(sys._getframe(1).f_code.co_name)
        return update(*args, **kwargs)

    clients, test = build_partition(cfg)
    experiment = experiment_cls(cfg, clients, test)
    with monkeypatch.context() as patch:
        patch.setattr(fedclf.server, "select", recording_select)
        patch.setattr(fedclf.server, "measure_utilities", counting_measure)
        patch.setattr(fedclf.server, "update_after_round", recording_update)
        history = experiment.run()
    columns.append(selector_columns(experiment.selector))
    outputs = (
        deterministic_csv_payload(run_log_csv(history)),
        selection_log_csv(cfg, history),
        summary_text(cfg, history),
    )
    return outputs, columns, len(measured), writers, history


ORACLE_CASES = {
    **{
        f"{s.value}-{'feedback' if fb else 'no-feedback'}": dict(
            strategy=s, feedback_enabled=fb
        )
        for s in Strategy
        for fb in (True, False)
    },
    "fedclf-compound": dict(compound_factors=True),
    "fedclf-acc-compound": dict(compound_factors=True, factor_mode=FactorMode.ACC_RATIO),
    **{
        f"{s.value}-no-warmup": dict(strategy=s, warmup_enabled=False)
        for s in (Strategy.FEDCLF, Strategy.GRAD_NORM, Strategy.OORT_LIKE)
    },
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_deferred_measurement_matches_eager_oracle(case, monkeypatch):
    cfg = small_config(rounds=20, seed=13, **ORACLE_CASES[case])
    deferred = run_recorded(cfg, Experiment, monkeypatch)
    eager = run_recorded(cfg, EagerExperiment, monkeypatch)
    outputs, columns, calls, writers, history = deferred
    assert outputs == eager[0]
    assert columns == eager[1]
    # One selector write per reopened gate after round 1 and one at run end,
    # each with a measurement unless the strategy ranks by none; only
    # run_round writes the selector.
    writes = sum(r.selection_ran for r in history[1:]) + 1
    assert calls == (0 if cfg.strategy in UNMEASURED else writes)
    assert writers == ["run_round"] * writes
    if cfg.feedback_enabled:
        assert writes < cfg.rounds  # some round reused its cohort unmeasured


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_round_by_round_drive_leaves_the_selector_of_run(case):
    # The benchmark drives run_round(1..R) one by one; that must leave the
    # same outputs and selector columns as run(), last cohort included.
    cfg = small_config(rounds=20, seed=13, **ORACLE_CASES[case])
    whole = build_experiment(cfg)
    history = whole.run()
    driven = build_experiment(cfg)
    for round_index in range(1, cfg.rounds + 1):
        driven.run_round(round_index)
    assert selector_columns(driven.selector) == selector_columns(whole.selector)
    assert deterministic_csv_payload(run_log_csv(driven.history)) == (
        deterministic_csv_payload(run_log_csv(history))
    )


def test_a_rounds_elapsed_time_includes_its_measurement(monkeypatch):
    # The clock moves only while utilities are measured, so a round's
    # wall_time is the measurement time it carries: one unit in each round
    # whose next round selects, and in the last round; zero in the others.
    clock = [0.0]
    real_measure = fedclf.server.measure_utilities

    def slow_measure(*args, **kwargs):
        clock[0] += 1.0
        return real_measure(*args, **kwargs)

    monkeypatch.setattr(fedclf.server, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(fedclf.server, "measure_utilities", slow_measure)
    cfg = small_config(rounds=20, seed=13)
    history = build_experiment(cfg).run()
    measured = [r.selection_ran for r in history[1:]] + [True]
    assert [r.wall_time for r in history] == [float(m) for m in measured]
    assert clock[0] == sum(measured) < cfg.rounds


def plain_clients():
    return [ClientDataset(i, make_synthetic(12, 3, 2, seed=i)) for i in range(4)]


def overflowing_clients(bad):
    """Four clients; client ``bad``'s features are so large that its losses
    (about 1e198) are finite but their squares in the loss utility overflow."""
    clients = plain_clients()
    data = clients[bad].data
    clients[bad] = ClientDataset(
        bad, LabeledDataset(data.features * 1e200, data.labels, data.num_classes)
    )
    return clients


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "rounds, trained_in", [(3, 1), (2, 2)], ids=["next-selection", "run-end"]
)
def test_non_finite_utility_names_training_round_and_clients(
    rounds, trained_in, tmp_path, monkeypatch
):
    # Zero learning rate: training stays finite and the test accuracy never
    # declines.  Warmup trains clients 0..3 two by two in rounds 1 and 2, and
    # the overflowing client trains in round ``trained_in``, which measures
    # its cohort after appending its record: round 1 because round 2
    # selects, round 2 only because it is the last (round 3's gate is shut).
    cfg = small_config(
        num_clients=4,
        select_k=2,
        rounds=rounds,
        learning_rate=0.0,
        partition=PartitionSpec(shard_size=3, split_mode=SplitMode.EQUAL, num_clients=4),
    )
    test = make_synthetic(20, 3, 2, seed=9)
    warmup = Experiment(cfg, plain_clients(), test)
    cohorts = [set(warmup.run_round(r).selected_ids) for r in (1, 2)]
    bad = min(cohorts[trained_in - 1])
    clients = overflowing_clients(bad)
    experiment = Experiment(cfg, clients, test)
    with pytest.raises(
        NonFiniteUpdateError, match=f"^round {trained_in}: .*client\\(s\\) {bad}$"
    ) as err:
        experiment.run()
    assert err.value.round_index == trained_in
    assert err.value.client_ids == (bad,)
    assert len(experiment.history) == trained_in
    assert np.isfinite(experiment.params.values).all()

    monkeypatch.setattr(fedclf.server, "build_partition", lambda _: (clients, test))
    with pytest.raises(NonFiniteUpdateError):
        run_experiment(cfg, out_dir=tmp_path)
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("strategy", UNMEASURED, ids=lambda s: s.value)
def test_unmeasured_strategy_divergence_names_round_and_clients(strategy, tmp_path, monkeypatch):
    # These strategies measure no utility, so the check on trained parameters
    # and weight-change norms is their only guard against divergence.  Client
    # ``bad``'s features near 1e300 take a step of about 1e310 at lr 1e10: its
    # trained parameters overflow in round 2, the round that trains it.
    cfg = small_config(
        strategy=strategy,
        num_clients=4,
        select_k=2,
        rounds=4,
        learning_rate=1e10,
        partition=PartitionSpec(shard_size=3, split_mode=SplitMode.EQUAL, num_clients=4),
    )
    test = make_synthetic(20, 3, 2, seed=9)
    warmup = Experiment(cfg, plain_clients(), test)
    warmup.run_round(1)
    bad = min(warmup.run_round(2).selected_ids)
    clients = plain_clients()
    data = clients[bad].data
    clients[bad] = ClientDataset(
        bad, LabeledDataset(data.features * 1e300, data.labels, data.num_classes)
    )
    measured = []
    monkeypatch.setattr(fedclf.server, "measure_utilities", lambda *a: measured.append(a))
    experiment = Experiment(cfg, clients, test)
    with pytest.raises(NonFiniteUpdateError, match=f"^round 2: .*client\\(s\\) {bad}$") as err:
        experiment.run()
    assert err.value.round_index == 2
    assert err.value.client_ids == (bad,)
    assert len(experiment.history) == 1 and measured == []

    monkeypatch.setattr(fedclf.server, "build_partition", lambda _: (clients, test))
    with pytest.raises(NonFiniteUpdateError, match="^round 2: "):
        run_experiment(cfg, out_dir=tmp_path)
    assert not (tmp_path / "run.csv").exists()


def test_run_experiment_writes_outputs(tmp_path):
    cfg = small_config(rounds=4)
    run_experiment(cfg, out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.csv", "selection.csv", "summary.txt"
    ]

    run_csv = (tmp_path / "run.csv").read_text()
    assert run_csv.splitlines()[0].startswith("# started ")
    header = run_csv.splitlines()[1]
    assert header == "round,accuracy,test_loss,ma_accuracy,selection_ran,selected_ids,elapsed_s"
    summary = (tmp_path / "summary.txt").read_text()
    assert "sampling_occasions=" in summary
    assert "config.strategy=fedclf" in summary


@pytest.mark.parametrize(
    "overrides",
    [{}, {"factor_mode": FactorMode.ACC_RATIO}, {"strategy": Strategy.NEWT_LIKE}],
    ids=["fedclf", "fedclf-acc", "newt-feedback"],
)
def test_selection_log_of_a_round_by_round_history_is_the_written_log(
    overrides, tmp_path
):
    # Driven like the benchmark: rounds one by one, with no run() call.
    cfg = small_config(rounds=12, seed=3, **overrides)
    experiment = build_experiment(cfg)
    for round_index in range(1, cfg.rounds + 1):
        experiment.run_round(round_index)
    run_experiment(cfg, out_dir=tmp_path)
    written = (tmp_path / "selection.csv").read_text()
    assert selection_log_csv(cfg, experiment.history) == written
    rows = [line.split(",") for line in written.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, cfg.rounds + 1))
    assert [row[5] for row in rows[:2]] == ["", ""]  # no trend before round 3
    assert all(row[5] for row in rows[2:])
    assert any(row[2] == "0" for row in rows)  # a reused cohort is logged


def test_only_compound_mode_evaluates_the_initial_model(monkeypatch):
    calls = []
    original = fedclf.server.evaluate

    def counting(params, data):
        calls.append(1)
        return original(params, data)

    monkeypatch.setattr(fedclf.server, "evaluate", counting)
    for compound in (False, True):
        calls.clear()
        experiment = build_experiment(small_config(compound_factors=compound))
        assert len(calls) == int(compound)
        ids = list(experiment.run_round(1).selected_ids)
        # Round 1's cohort is anchored only where anchors are read.
        assert np.isnan(experiment.selector.loss_anchor[ids]).all() != compound


def test_deterministic_csv_payload_strips_clock_readings():
    history = [record(1, 0.5, ids=(0, 3))]
    a = run_log_csv(history, timestamp="2020-01-01T00:00:00")
    b = run_log_csv(
        [replace(history[0], wall_time=9.9)], timestamp="2021-06-06T06:06:06"
    )
    assert a != b
    assert deterministic_csv_payload(a) == deterministic_csv_payload(b)
    payload = deterministic_csv_payload(a)
    assert "elapsed" not in payload
    assert "0;3" in payload


def test_config_validation_errors_before_any_work(monkeypatch):
    def no_work(cfg):
        raise AssertionError("built the data of a config that does not validate")

    monkeypatch.setattr(fedclf.server, "build_partition", no_work)
    with pytest.raises(ValueError, match="1 <= k <= K"):
        run_experiment(small_config(select_k=50))
    with pytest.raises(ValueError, match="rounds"):
        run_experiment(small_config(rounds=0))
    with pytest.raises(ValueError, match="unknown shape_tag"):
        run_experiment(small_config(shape_tag="transformer"))
    # The local SGD settings are checked by the TrainConfig validate builds.
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        run_experiment(small_config(epochs=0))
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        run_experiment(small_config(batch_size=0))
    for lr in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"learning_rate must be finite and >= 0, got {lr}"):
            run_experiment(small_config(learning_rate=lr))
    for spread in (math.nan, -math.inf):
        with pytest.raises(ValueError, match=f"cluster_spread must be finite, got {spread}"):
            run_experiment(small_config(cluster_spread=spread))


def test_mlp_experiment_runs():
    cfg = small_config(shape_tag="mlp:6", rounds=3)
    history = run_experiment(cfg)
    assert len(history) == 3


def test_gradnorm_strategy_runs_end_to_end():
    cfg = small_config(strategy=Strategy.GRAD_NORM, rounds=8)
    history = run_experiment(cfg)
    assert len(history) == 8


@pytest.mark.parametrize("strategy", list(Strategy))
def test_every_strategy_completes(strategy):
    cfg = small_config(strategy=strategy, rounds=7, feedback_enabled=strategy is Strategy.FEDCLF)
    history = run_experiment(cfg)
    assert len(history) == 7
    assert all(len(r.selected_ids) == 2 for r in history)


def test_summary_text_is_flat_key_value():
    cfg = small_config(rounds=2)
    history = run_experiment(cfg)
    text = summary_text(cfg, history)
    for line in text.strip().splitlines():
        assert "=" in line
