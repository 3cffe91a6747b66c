"""Local-update contract: loss utilities, training, scheduling independence,
and bitwise equality of a stacked cohort with per-client updates and
measurements."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedclf.client import (
    NonFiniteUpdateError,
    client_update,
    measure_utilities,
    rms_utility,
)
from fedclf.dataset import ClientDataset, LabeledDataset, make_synthetic
from fedclf.model import TrainConfig, evaluate, init_params, mlp_tag, softmax_tag


def make_client(client_id=0, n=20, f=4, c=3, seed=0):
    return ClientDataset(client_id, make_synthetic(n, f, c, seed=seed))


def update_one(client, params, cfg):
    """``client_update`` for a cohort of one."""
    [result] = client_update([client], params, [cfg])
    return result


def measure_one(client, params, want_grad_norm=False):
    """``measure_utilities`` for a cohort of one: (loss, grad-norm or None)."""
    loss, grad_norm = measure_utilities([client], params, want_grad_norm)
    assert loss.shape == (1,)
    return float(loss[0]), None if grad_norm is None else float(grad_norm[0])


def test_zero_lr_returns_received_params_and_pretrain_loss():
    client = make_client()
    params = init_params(softmax_tag(4, 3), seed=1)
    result = update_one(client, params, TrainConfig(epochs=1, learning_rate=0.0))
    assert np.array_equal(result.new_params.values, params.values)
    assert result.weight_delta_norm == 0.0
    assert result.n_k == client.n_k


def test_single_sample_utility_equals_its_loss():
    data = LabeledDataset(np.array([[0.3, -1.0]]), np.array([1]), 3)
    client = ClientDataset(0, data)
    params = init_params(softmax_tag(2, 3), seed=2)
    utility, _ = measure_one(client, params)
    loss = evaluate(params, data, want_per_sample=True).per_sample_losses[0]
    assert utility == pytest.approx(float(loss), abs=1e-12)


def test_identical_per_sample_losses_collapse_to_count_times_loss():
    # Four copies of the same sample: RMS equals the common loss.
    row = np.array([[0.5, 0.25]])
    data = LabeledDataset(np.repeat(row, 4, axis=0), np.array([1, 1, 1, 1]), 2)
    client = ClientDataset(0, data)
    params = init_params(softmax_tag(2, 2), seed=3)
    utility, _ = measure_one(client, params)
    loss = evaluate(params, data, want_per_sample=True).per_sample_losses[0]
    assert utility == pytest.approx(4.0 * float(loss), abs=1e-9)


def test_loss_utility_matches_independent_recomputation():
    client = make_client(n=33, seed=7)
    params = init_params(softmax_tag(4, 3), seed=4)
    utility, _ = measure_one(client, params)
    report = evaluate(params, client.data, want_per_sample=True)
    losses = report.per_sample_losses
    expected = len(losses) * (sum(v * v for v in losses) / len(losses)) ** 0.5
    assert utility == pytest.approx(expected, abs=1e-9)
    # RMS dominates the mean: the utility is at least n_k times the mean loss.
    assert utility >= client.n_k * report.mean_loss - 1e-9


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_rms_utility_dominates_sum(values):
    arr = np.array(values)
    assert rms_utility(arr) >= arr.sum() - 1e-9


def test_grad_norm_utility_present_only_on_request():
    client = make_client(seed=9)
    params = init_params(softmax_tag(4, 3), seed=5)
    assert measure_one(client, params)[1] is None
    loss, grad_norm = measure_one(client, params, want_grad_norm=True)
    assert grad_norm is not None and grad_norm >= 0.0
    assert loss == measure_one(client, params)[0]


def test_results_independent_of_execution_order():
    clients = [make_client(client_id=i, seed=i) for i in range(6)]
    params = init_params(softmax_tag(4, 3), seed=6)

    def run_all(order):
        out = {}
        for i in order:
            cfg = TrainConfig(epochs=1, learning_rate=0.1, rng_seed=1000 + i)
            out[i] = update_one(clients[i], params, cfg)
        return out

    forward = run_all(range(6))
    shuffled_order = list(range(6))
    random.Random(3).shuffle(shuffled_order)
    shuffled = run_all(shuffled_order)
    for i in range(6):
        assert np.array_equal(
            forward[i].new_params.values, shuffled[i].new_params.values
        )
        assert forward[i].weight_delta_norm == shuffled[i].weight_delta_norm


# ------------------------------------------- stacked cohort == per-client


def result_bytes(result):
    """Every field of a result, as exact bytes where it is a float."""
    return (
        result.client_id,
        result.n_k,
        result.new_params.shape_tag,
        result.new_params.values.tobytes(),
        np.float64(result.weight_delta_norm).tobytes(),
    )


def assert_cohort_matches_singles(clients, params, cfgs, want_grad_norm=False):
    """Training and measuring the cohort at once equals doing it per client,
    bit for bit."""
    cohort = client_update(clients, params, cfgs)
    assert [r.client_id for r in cohort] == [c.client_id for c in clients]
    for client, cfg, result in zip(clients, cfgs, cohort):
        assert result_bytes(result) == result_bytes(update_one(client, params, cfg))
    loss, grad_norm = measure_utilities(clients, params, want_grad_norm)
    singles = [measure_one(client, params, want_grad_norm) for client in clients]
    assert loss.tobytes() == np.array([s[0] for s in singles]).tobytes()
    if want_grad_norm:
        assert grad_norm.tobytes() == np.array([s[1] for s in singles]).tobytes()
    else:
        assert grad_norm is None


def ragged_cohort(sizes, f=4, c=3):
    # Ids deliberately out of order: results follow the cohort's order.
    return [
        ClientDataset(10 - i, make_synthetic(n, f, c, seed=100 + i))
        for i, n in enumerate(sizes)
    ]


@pytest.mark.parametrize(
    "tag, sizes, batch, epochs",
    [
        (softmax_tag(4, 3), [7, 12, 12, 30, 5, 12], 8, 1),  # ragged n_k and last batches
        (mlp_tag(4, 5, 3), [7, 12, 12, 30, 5, 12], 5, 3),  # mlp, epochs > 1
        (softmax_tag(4, 3), [3, 9, 9, 20], 16, 2),  # batch_size > n_k for most
        (mlp_tag(4, 6, 3), [1, 1, 2, 40], 64, 1),  # full-batch, single-sample shards
    ],
)
def test_cohort_update_matches_per_client_updates(tag, sizes, batch, epochs):
    clients = ragged_cohort(sizes)
    params = init_params(tag, seed=11)
    cfgs = [
        TrainConfig(epochs=epochs, learning_rate=0.3, batch_size=batch, rng_seed=50 + i)
        for i in range(len(clients))
    ]
    assert_cohort_matches_singles(clients, params, cfgs)
    assert_cohort_matches_singles(clients, params, cfgs, want_grad_norm=True)


def test_cohort_clients_may_use_different_configs():
    clients = ragged_cohort([10, 10, 10, 17])
    params = init_params(mlp_tag(4, 3, 3), seed=12)
    cfgs = [
        TrainConfig(epochs=1, learning_rate=0.1, batch_size=4, rng_seed=1),
        TrainConfig(epochs=3, learning_rate=0.5, batch_size=4, rng_seed=2),
        TrainConfig(epochs=2, learning_rate=0.0, batch_size=10, rng_seed=3),
        TrainConfig(epochs=1, learning_rate=0.2, batch_size=6, rng_seed=4),
    ]
    assert_cohort_matches_singles(clients, params, cfgs)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8),
    batch=st.integers(min_value=1, max_value=48),
    epochs=st.integers(min_value=1, max_value=3),
    mlp=st.booleans(),
)
def test_cohort_matches_per_client_for_random_shard_sizes(sizes, batch, epochs, mlp):
    clients = ragged_cohort(sizes)
    params = init_params(mlp_tag(4, 5, 3) if mlp else softmax_tag(4, 3), seed=13)
    cfgs = [
        TrainConfig(epochs=epochs, learning_rate=0.2, batch_size=batch, rng_seed=i)
        for i in range(len(clients))
    ]
    assert_cohort_matches_singles(clients, params, cfgs)


def test_cohort_needs_one_config_per_client():
    clients = ragged_cohort([5, 6])
    params = init_params(softmax_tag(4, 3), seed=14)
    with pytest.raises(ValueError, match="2 shards but 1 train configs"):
        client_update(clients, params, [TrainConfig(epochs=1, learning_rate=0.1)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_names_the_clients():
    good = make_client(client_id=3, seed=1)
    features = make_client(seed=2).data.features.copy()
    features[4, 1] = np.inf
    bad = ClientDataset(8, LabeledDataset(features, make_client(seed=2).data.labels, 3))
    params = init_params(softmax_tag(4, 3), seed=15)
    cfg = TrainConfig(epochs=1, learning_rate=0.1)
    with pytest.raises(NonFiniteUpdateError, match="client\\(s\\) 8$") as err:
        client_update([good, bad], params, [cfg, cfg])
    assert err.value.client_ids == (8,)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_utility_names_the_clients():
    # Finite losses near 1e198 square to inf inside the RMS.
    good = make_client(client_id=3, seed=1)
    features = make_client(seed=2).data.features * 1e200
    bad = ClientDataset(8, LabeledDataset(features, make_client(seed=2).data.labels, 3))
    params = init_params(softmax_tag(4, 3), seed=15)
    assert np.isfinite(evaluate(params, bad.data).mean_loss)
    for want_grad_norm in (False, True):
        with pytest.raises(NonFiniteUpdateError, match="client\\(s\\) 8$") as err:
            measure_utilities([good, bad], params, want_grad_norm)
        assert err.value.client_ids == (8,)
