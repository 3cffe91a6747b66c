"""Local-update contract: loss utilities, training, scheduling independence,
and bitwise equality of a stacked cohort with per-client updates and
measurements."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedclf.client
from fedclf.client import (
    NonFiniteUpdateError,
    client_update,
    measure_utilities,
    rms_utility,
)
from fedclf.dataset import LabeledDataset, Shards, make_synthetic
from fedclf.model import (
    SampleStack,
    TrainConfig,
    evaluate,
    init_params,
    mlp_tag,
    softmax_tag,
)
from test_dataset import shards_of
from test_model import at_odd_offset


def make_client(n=20, f=4, c=3, seed=0):
    return make_synthetic(n, f, c, seed=seed)


def shards_with(placed: dict[int, LabeledDataset]) -> tuple[Shards, list[int]]:
    """Shards in which client ``cid`` holds ``placed[cid]`` and every other
    client up to the largest id one zero row; and the ids of ``placed``."""
    some = next(iter(placed.values()))
    filler = LabeledDataset(np.zeros((1, some.num_features)), np.zeros(1, int), some.num_classes)
    return shards_of([placed.get(i, filler) for i in range(max(placed) + 1)]), list(placed)


def update_one(data, params, cfg, seed=0):
    """``client_update`` for a cohort of one: (trained params, delta norm)."""
    trained, deltas = client_update(shards_of([data]), [0], params, cfg, [seed])
    assert trained.values.shape == (1, params.values.size) and deltas.shape == (1,)
    return trained.values[0], float(deltas[0])


def measure_one(data, params, want_grad_norm=False):
    """``measure_utilities`` for a cohort of one: (loss, grad-norm or None)."""
    loss, grad_norm = measure_utilities(shards_of([data]), [0], params, want_grad_norm)
    assert loss.shape == (1,)
    return float(loss[0]), None if grad_norm is None else float(grad_norm[0])


def test_zero_lr_returns_received_params_and_pretrain_loss():
    client = make_client()
    params = init_params(softmax_tag(4, 3), seed=1)
    trained, delta = update_one(client, params, TrainConfig(epochs=1, learning_rate=0.0))
    assert np.array_equal(trained, params.values)
    assert delta == 0.0


def test_single_sample_utility_equals_its_loss():
    data = LabeledDataset(np.array([[0.3, -1.0]]), np.array([1]), 3)
    params = init_params(softmax_tag(2, 3), seed=2)
    utility, _ = measure_one(data, params)
    loss = evaluate(params, data).per_sample_losses[0]
    assert utility == pytest.approx(float(loss), abs=1e-12)


def test_identical_per_sample_losses_collapse_to_count_times_loss():
    # Four copies of the same sample: RMS equals the common loss.
    row = np.array([[0.5, 0.25]])
    data = LabeledDataset(np.repeat(row, 4, axis=0), np.array([1, 1, 1, 1]), 2)
    params = init_params(softmax_tag(2, 2), seed=3)
    utility, _ = measure_one(data, params)
    loss = evaluate(params, data).per_sample_losses[0]
    assert utility == pytest.approx(4.0 * float(loss), abs=1e-9)


def test_loss_utility_matches_independent_recomputation():
    client = make_client(n=33, seed=7)
    params = init_params(softmax_tag(4, 3), seed=4)
    utility, _ = measure_one(client, params)
    report = evaluate(params, client)
    losses = report.per_sample_losses
    expected = len(losses) * (sum(v * v for v in losses) / len(losses)) ** 0.5
    assert utility == pytest.approx(expected, abs=1e-9)
    # RMS dominates the mean: the utility is at least n_k times the mean loss.
    assert utility >= client.num_samples * np.mean(losses) - 1e-9


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
    stack = SampleStack(np.zeros((len(arr), 1)), np.zeros(len(arr), dtype=int), (len(arr),), 1)
    [utility] = rms_utility(stack, arr)
    assert utility >= arr.sum() - 1e-9


def test_grad_norm_utility_present_only_on_request():
    client = make_client(seed=9)
    params = init_params(softmax_tag(4, 3), seed=5)
    assert measure_one(client, params)[1] is None
    loss, grad_norm = measure_one(client, params, want_grad_norm=True)
    assert grad_norm is not None and grad_norm >= 0.0
    assert loss == measure_one(client, params)[0]


def test_results_independent_of_execution_order():
    clients = [make_client(seed=i) for i in range(6)]
    params = init_params(softmax_tag(4, 3), seed=6)

    def run_all(order):
        out = {}
        for i in order:
            cfg = TrainConfig(epochs=1, learning_rate=0.1)
            out[i] = update_one(clients[i], params, cfg, seed=1000 + i)
        return out

    forward = run_all(range(6))
    shuffled_order = list(range(6))
    random.Random(3).shuffle(shuffled_order)
    shuffled = run_all(shuffled_order)
    for i in range(6):
        assert np.array_equal(forward[i][0], shuffled[i][0])
        assert forward[i][1] == shuffled[i][1]


# ------------------------------------------- stacked cohort == per-client


def assert_cohort_matches_singles(cohort, params, cfg, seeds, want_grad_norm=False):
    """Training and measuring the cohort ``(shards, ids)`` at once equals
    doing it per client, bit for bit, with row ``i`` for client ``ids[i]``."""
    shards, ids = cohort
    trained, deltas = client_update(shards, ids, params, cfg, seeds)
    assert trained.shape_tag == params.shape_tag
    assert trained.values.shape == (len(ids), params.values.size)
    assert deltas.shape == (len(ids),)
    for i, (cid, seed) in enumerate(zip(ids, seeds)):
        row, delta = update_one(shards[cid], params, cfg, seed)
        assert trained.values[i].tobytes() == row.tobytes()
        assert np.float64(deltas[i]).tobytes() == np.float64(delta).tobytes()
    loss, grad_norm = measure_utilities(shards, ids, params, want_grad_norm)
    singles = [measure_one(shards[cid], params, want_grad_norm) for cid in ids]
    assert loss.tobytes() == np.array([s[0] for s in singles]).tobytes()
    if want_grad_norm:
        assert grad_norm.tobytes() == np.array([s[1] for s in singles]).tobytes()
    else:
        assert grad_norm is None


@settings(max_examples=200, deadline=None)
@given(
    g=st.integers(min_value=1, max_value=12),
    p=st.integers(min_value=1, max_value=3000),
    words=st.sampled_from([1, 3, 5, 7]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_weight_change_norms_at_odd_offsets_equal_each_row_alone_bitwise(g, p, words, seed):
    # Row i of a cohort's (g, P) difference starts i * P * 8 bytes into its
    # array, and the whole array at an odd 8-byte offset here; a client
    # trained alone has its (1, P) difference at the allocator's alignment.
    # A sum whose order follows the address (as a BLAS dot product may) would
    # change the last bits; magnitudes over 13 decades make that show.
    rng = np.random.default_rng(seed)
    diff = rng.normal(size=(g, p)) * 10.0 ** rng.integers(-6, 7, (g, p))
    norms = fedclf.client._row_norms(at_odd_offset(diff, words))
    assert norms.shape == (g,)
    for i in range(g):
        [alone] = fedclf.client._row_norms(diff[i : i + 1].copy())
        assert np.float64(norms[i]).tobytes() == np.float64(alone).tobytes()
        assert alone == pytest.approx(np.linalg.norm(diff[i]), rel=1e-12)


def ragged_cohort(sizes, f=4, c=3):
    """``(shards, ids)``: ids in decreasing order, so each client's rows lie
    after those of the clients that follow it in the cohort; results follow
    the cohort's order."""
    top = len(sizes) + 2  # clients 0 to 2 are never in the cohort
    return shards_with({top - i: make_synthetic(n, f, c, seed=100 + i) for i, n in enumerate(sizes)})


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
    cohort = ragged_cohort(sizes)
    params = init_params(tag, seed=11)
    cfg = TrainConfig(epochs=epochs, learning_rate=0.3, batch_size=batch)
    seeds = [50 + i for i in range(len(sizes))]
    assert_cohort_matches_singles(cohort, params, cfg, seeds)
    assert_cohort_matches_singles(cohort, params, cfg, seeds, want_grad_norm=True)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8),
    batch=st.integers(min_value=1, max_value=48),
    epochs=st.integers(min_value=1, max_value=3),
    mlp=st.booleans(),
)
def test_cohort_matches_per_client_for_random_shard_sizes(sizes, batch, epochs, mlp):
    cohort = ragged_cohort(sizes)
    params = init_params(mlp_tag(4, 5, 3) if mlp else softmax_tag(4, 3), seed=13)
    cfg = TrainConfig(epochs=epochs, learning_rate=0.2, batch_size=batch)
    assert_cohort_matches_singles(cohort, params, cfg, list(range(len(sizes))))


@settings(max_examples=60, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=6,
    ),
    mlp=st.booleans(),
)
def test_ragged_cohort_utilities_equal_plain_rms_of_each_client(runs, mlp):
    # Unsorted runs of equal n_k and singletons: every client's utilities
    # are n_k * RMS of its own per-sample values, computed alone.
    shards, ids = ragged_cohort([n for n, count in runs for _ in range(count)])
    params = init_params(mlp_tag(4, 5, 3) if mlp else softmax_tag(4, 3), seed=17)
    loss, grad_norm = measure_utilities(shards, ids, params, want_grad_norm=True)
    for i, cid in enumerate(ids):
        alone = evaluate(params, shards[cid], want_grad_norms=True)
        n = shards.n_k[cid]
        for utility, values in ((loss, alone.per_sample_losses), (grad_norm, alone.per_sample_grad_norms)):
            expected = n * np.sqrt((values**2).sum() / n)
            assert np.float64(utility[i]).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("want_grad_norm", [False, True])
def test_measurement_makes_one_evaluate_call_and_reduces_only_the_rms(monkeypatch, want_grad_norm):
    # The RMS of each utility is the only per-model reduction measurement
    # needs; the per-model mean loss and accuracy go unread.
    calls = {"evaluate": 0, "block_means": 0}
    real_evaluate, real_mean = fedclf.client.evaluate, SampleStack.block_means

    def counted_evaluate(*args, **kwargs):
        calls["evaluate"] += 1
        return real_evaluate(*args, **kwargs)

    def counted_mean(self, per_row):
        calls["block_means"] += 1
        return real_mean(self, per_row)

    monkeypatch.setattr(fedclf.client, "evaluate", counted_evaluate)
    monkeypatch.setattr(SampleStack, "block_means", counted_mean)
    shards, ids = ragged_cohort([7, 12, 12, 30, 5])
    params = init_params(mlp_tag(4, 5, 3), seed=19)
    measure_utilities(shards, ids, params, want_grad_norm)
    assert calls == {"evaluate": 1, "block_means": 1 + want_grad_norm}


def test_cohort_needs_one_seed_per_client():
    shards, ids = ragged_cohort([5, 6])
    params = init_params(softmax_tag(4, 3), seed=14)
    with pytest.raises(ValueError, match="2 counts but 1 seeds"):
        client_update(shards, ids, params, TrainConfig(epochs=1, learning_rate=0.1), [0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_names_the_clients():
    good = make_client(seed=1)
    features = make_client(seed=2).features.copy()
    features[4, 1] = np.inf
    bad = LabeledDataset(features, make_client(seed=2).labels, 3)
    shards, ids = shards_with({3: good, 8: bad})
    params = init_params(softmax_tag(4, 3), seed=15)
    cfg = TrainConfig(epochs=1, learning_rate=0.1)
    with pytest.raises(NonFiniteUpdateError, match="client\\(s\\) 8$") as err:
        client_update(shards, ids, params, cfg, [0, 0])
    assert err.value.client_ids == (8,)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_utility_names_the_clients():
    # Finite losses near 1e198 square to inf inside the RMS.
    good = make_client(seed=1)
    features = make_client(seed=2).features * 1e200
    bad = LabeledDataset(features, make_client(seed=2).labels, 3)
    shards, ids = shards_with({3: good, 8: bad})
    params = init_params(softmax_tag(4, 3), seed=15)
    assert np.isfinite(np.mean(evaluate(params, bad).per_sample_losses))
    for want_grad_norm in (False, True):
        with pytest.raises(NonFiniteUpdateError, match="client\\(s\\) 8$") as err:
            measure_utilities(shards, ids, params, want_grad_norm)
        assert err.value.client_ids == (8,)
