"""Round loop: aggregation, feedback gate, moving average, full runs."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedclf.server
from fedclf.client import ClientUpdateResult, NonFiniteUpdateError, measure_utilities
from fedclf.dataset import (
    ClientDataset,
    LabeledDataset,
    PartitionSpec,
    SplitMode,
    make_synthetic,
)
from fedclf.model import ModelParams, load_params, softmax_tag
from fedclf.selection import FactorMode, Strategy, record_utilities
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


def result_with(values, n_k, tag=None):
    tag = tag or softmax_tag(2, 2)
    params = ModelParams(np.asarray(values, dtype=float), tag)
    return ClientUpdateResult(
        client_id=0,
        new_params=params,
        n_k=n_k,
        weight_delta_norm=0.0,
    )


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
    r = result_with([1.0, 2.0, 3.0, 4.0, 0.0, 0.5], n_k=7)
    out = aggregate([r])
    assert np.array_equal(out.values, r.new_params.values)


def test_aggregate_equal_weights_cancel_opposites():
    v = np.array([1.0, -2.0, 3.0, 4.0, 5.0, -6.0])
    out = aggregate([result_with(v, 3), result_with(-v, 3)])
    assert out.values == pytest.approx(np.zeros(6), abs=1e-15)


def test_aggregate_weighted_example():
    tag = softmax_tag(1, 2)  # 4 parameters... use explicit 2-vector tag below
    a = result_with([1.0, 1.0, 1.0, 1.0], n_k=1, tag=tag)
    b = result_with([4.0, 4.0, 4.0, 4.0], n_k=3, tag=tag)
    out = aggregate([a, b])
    assert out.values == pytest.approx([3.25, 3.25, 3.25, 3.25], abs=1e-12)


def test_aggregate_matches_elementwise_oracle():
    rng = np.random.default_rng(17)
    tag = softmax_tag(3, 2)
    for _ in range(50):
        count = int(rng.integers(1, 6))
        results = [
            result_with(rng.normal(size=8), int(rng.integers(1, 50)), tag=tag)
            for _ in range(count)
        ]
        out = aggregate(results)
        total = sum(r.n_k for r in results)
        for j in range(8):
            expected = sum(r.n_k * r.new_params.values[j] for r in results) / total
            assert abs(out.values[j] - expected) < 1e-9


def test_aggregate_rejects_empty_and_mixed_tags():
    with pytest.raises(ValueError, match="zero results"):
        aggregate([])
    a = result_with([0.0] * 6, 1, tag=softmax_tag(2, 2))
    b = result_with([0.0] * 4, 1, tag=softmax_tag(1, 2))
    with pytest.raises(ValueError, match="mixed shape tags"):
        aggregate([a, b])


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

    from fedclf.client import client_update
    from fedclf.model import TrainConfig
    from fedclf.seeds import split_seed

    [single] = client_update(
        [clients[0]],
        initial,
        [
            TrainConfig(
                epochs=1,
                learning_rate=0.2,
                batch_size=64,
                rng_seed=split_seed(cfg.seed, "train-r1", 0),
            )
        ],
    )
    assert experiment.params.values == pytest.approx(
        single.new_params.values, abs=1e-9
    )


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

    def recording(clients, params, cfgs, **kwargs):
        cohorts.append([c.client_id for c in clients])
        return original(clients, params, cfgs, **kwargs)

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


# ---------------------------------------------------- deferred measurement


class EagerExperiment(Experiment):
    """Reference: measures each cohort at the model it received right after
    it trains, so nothing is ever left pending."""

    def run_round(self, round_index):
        received = self.params
        record = super().run_round(round_index)
        ids = list(record.selected_ids)
        utilities = measure_utilities(
            [self.clients[cid] for cid in ids],
            received,
            want_grad_norm=self.cfg.strategy is Strategy.GRAD_NORM,
        )
        record_utilities(self.selector, ids, *utilities)
        self.pending = None
        return record


def selector_columns(state):
    return [
        getattr(state, f.name).tobytes()
        for f in fields(state)
        if isinstance(getattr(state, f.name), np.ndarray)
    ]


def run_recorded(cfg, experiment_cls, monkeypatch):
    """Deterministic outputs, the selector columns at every ``select`` and at
    run end, and the number of deferred measurement calls of one run."""
    columns, measured = [], []
    select, measure = fedclf.server.select, fedclf.server.measure_utilities

    def recording_select(state, *args):
        columns.append(selector_columns(state))
        return select(state, *args)

    def counting_measure(*args, **kwargs):
        measured.append(1)
        return measure(*args, **kwargs)

    clients, _, test = build_partition(cfg)
    experiment = experiment_cls(cfg, clients, test)
    with monkeypatch.context() as patch:
        patch.setattr(fedclf.server, "select", recording_select)
        patch.setattr(fedclf.server, "measure_utilities", counting_measure)
        history = experiment.run()
    columns.append(selector_columns(experiment.selector))
    outputs = (
        deterministic_csv_payload(run_log_csv(history)),
        selection_log_csv(experiment),
        summary_text(cfg, history),
    )
    return outputs, columns, len(measured), history


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
    outputs, columns, calls, history = deferred
    assert outputs == eager[0]
    assert columns == eager[1]
    # One measurement per reopened gate after round 1 and one at run end.
    assert calls == sum(r.selection_ran for r in history[1:]) + 1
    if cfg.feedback_enabled:
        assert calls < cfg.rounds  # some round reused its cohort unmeasured


def overflowing_clients():
    """Four clients; client 2's features are so large that its losses (about
    1e198) are finite but their squares in the loss utility overflow."""
    clients = [ClientDataset(i, make_synthetic(12, 3, 2, seed=i)) for i in range(4)]
    data = clients[2].data
    clients[2] = ClientDataset(
        2, LabeledDataset(data.features * 1e200, data.labels, data.num_classes)
    )
    return clients


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rounds", [3, 1], ids=["next-selection", "run-end"])
def test_non_finite_utility_names_training_round_and_clients(
    rounds, tmp_path, monkeypatch
):
    # Zero learning rate: training stays finite, and every round trains all
    # four clients.  With 3 rounds, round 2's selection measures round 1's
    # cohort; with 1 round, the run-end measurement of the last cohort does.
    cfg = small_config(
        num_clients=4,
        select_k=4,
        rounds=rounds,
        learning_rate=0.0,
        partition=PartitionSpec(shard_size=3, split_mode=SplitMode.EQUAL, num_clients=4),
    )
    clients, test = overflowing_clients(), make_synthetic(20, 3, 2, seed=9)
    experiment = Experiment(cfg, clients, test)
    with pytest.raises(NonFiniteUpdateError, match="^round 1: .*client\\(s\\) 2$") as err:
        experiment.run()
    assert err.value.round_index == 1
    assert err.value.client_ids == (2,)
    assert len(experiment.history) == 1
    assert np.isfinite(experiment.params.values).all()

    monkeypatch.setattr(fedclf.server, "build_partition", lambda _: (clients, None, test))
    with pytest.raises(NonFiniteUpdateError):
        run_experiment(cfg, out_dir=tmp_path)
    assert not (tmp_path / "run.csv").exists()


def test_run_experiment_writes_outputs(tmp_path):
    cfg = small_config(rounds=4, checkpoint_every=2)
    run_experiment(cfg, out_dir=tmp_path)
    assert (tmp_path / "run.csv").exists()
    assert (tmp_path / "selection.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    checkpoints = sorted(p.name for p in tmp_path.glob("checkpoint_*.fedw"))
    assert checkpoints == ["checkpoint_r0002.fedw", "checkpoint_r0004.fedw"]
    params = load_params(tmp_path / "checkpoint_r0004.fedw")
    assert params.shape_tag == softmax_tag(3, 4)

    run_csv = (tmp_path / "run.csv").read_text()
    assert run_csv.splitlines()[0].startswith("# started ")
    header = run_csv.splitlines()[1]
    assert header == "round,accuracy,test_loss,ma_accuracy,selection_ran,selected_ids,elapsed_s"
    summary = (tmp_path / "summary.txt").read_text()
    assert "sampling_occasions=" in summary
    assert "config.strategy=fedclf" in summary


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


def test_config_validation_errors_before_any_work():
    with pytest.raises(ValueError, match="1 <= k <= K"):
        run_experiment(small_config(select_k=50))
    with pytest.raises(ValueError, match="rounds"):
        run_experiment(small_config(rounds=0))
    with pytest.raises(ValueError, match="unknown shape_tag"):
        run_experiment(small_config(shape_tag="transformer"))


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
