"""Classifier math: init, evaluation, SGD, gradient checks, serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fedclf.dataset import LabeledDataset, make_synthetic
from fedclf.model import (
    ModelParams,
    SampleStack,
    TrainConfig,
    evaluate,
    grad_check,
    gradient,
    init_params,
    load_params,
    mlp_tag,
    param_count,
    parse_shape_tag,
    save_params,
    sgd_epochs,
    softmax_tag,
)


def small_data(n=10, f=4, c=3, seed=0):
    return make_synthetic(n, f, c, seed=seed)


# ------------------------------------------------------------- shape tags


def test_param_count_softmax():
    assert param_count(softmax_tag(4, 3)) == 4 * 3 + 3 == 15


def test_param_count_mlp():
    assert param_count(mlp_tag(4, 6, 3)) == 4 * 6 + 6 + 6 * 3 + 3


@pytest.mark.parametrize(
    "tag",
    ["conv:3x3", "softmax:4", "mlp:2x2", "softmax:0x2", "", "softmax:+4x3", "mlp:4x06x3"],
)
def test_parse_shape_tag_rejects_unknown(tag):
    with pytest.raises(ValueError, match="unknown shape_tag"):
        parse_shape_tag(tag)


def test_model_params_length_checked():
    with pytest.raises(ValueError, match="implies 15 parameters"):
        ModelParams(np.zeros(14), softmax_tag(4, 3))


# ------------------------------------------------------------ init_params


def test_init_params_deterministic():
    a = init_params(softmax_tag(4, 3), seed=42)
    b = init_params(softmax_tag(4, 3), seed=42)
    assert np.array_equal(a.values, b.values)


def test_init_params_biases_zero_weights_bounded():
    tag = softmax_tag(9, 5)
    params = init_params(tag, seed=1)
    weights, biases = params.values[: 9 * 5], params.values[9 * 5 :]
    assert np.all(biases == 0.0)
    assert np.all(np.abs(weights) <= 1.0 / 3.0)
    assert np.any(weights != 0.0)


def test_init_params_mlp_biases_zero():
    tag = mlp_tag(4, 6, 3)
    params = init_params(tag, seed=2)
    b1 = params.values[4 * 6 : 4 * 6 + 6]
    b2 = params.values[-3:]
    assert np.all(b1 == 0.0) and np.all(b2 == 0.0)


# --------------------------------------------------------------- evaluate


def test_evaluate_zero_params_gives_log_c_and_class0_accuracy():
    data = small_data(n=30, f=4, c=3, seed=5)
    params = ModelParams(np.zeros(param_count(softmax_tag(4, 3))), softmax_tag(4, 3))
    report = evaluate(params, data, want_per_sample=True)
    assert report.per_sample_losses == pytest.approx(
        np.full(30, math.log(3)), abs=1e-12
    )
    # Uniform logits: argmax tie-break picks class 0 everywhere.
    assert report.accuracy == pytest.approx(np.mean(data.labels == 0))


def test_evaluate_perfect_logits_loss_tends_to_zero():
    data = LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]), 2)
    tag = softmax_tag(2, 2)
    values = np.zeros(param_count(tag))
    values[1] = 50.0  # weight feature 0 onto class 1, pushed hard
    report = evaluate(ModelParams(values, tag), data)
    assert report.mean_loss < 1e-20
    assert report.accuracy == 1.0


def test_evaluate_matches_scalar_recomputation():
    data = small_data(n=12, f=3, c=4, seed=8)
    tag = softmax_tag(3, 4)
    params = init_params(tag, seed=3)
    report = evaluate(params, data, want_per_sample=True)

    w = params.values[: 3 * 4].reshape(3, 4)
    b = params.values[3 * 4 :]
    total = 0.0
    for i in range(12):
        logits = [
            sum(data.features[i][j] * w[j][k] for j in range(3)) + b[k]
            for k in range(4)
        ]
        denominator = sum(math.exp(z) for z in logits)
        loss = -math.log(math.exp(logits[data.labels[i]]) / denominator)
        assert report.per_sample_losses[i] == pytest.approx(loss, abs=1e-9)
        total += loss
    assert report.mean_loss == pytest.approx(total / 12, abs=1e-9)


def test_evaluate_mean_equals_mean_of_per_sample():
    data = small_data(n=25, f=4, c=3, seed=9)
    params = init_params(softmax_tag(4, 3), seed=4)
    report = evaluate(params, data, want_per_sample=True)
    assert report.mean_loss == pytest.approx(
        float(report.per_sample_losses.mean()), abs=1e-12
    )
    assert np.all(report.per_sample_losses >= 0.0)


def test_evaluate_rejects_feature_mismatch():
    data = small_data(f=4)
    params = init_params(softmax_tag(5, 3), seed=0)
    with pytest.raises(ValueError, match="features"):
        evaluate(params, data)


def test_evaluate_per_sample_outputs_only_on_request():
    data = small_data()
    params = init_params(softmax_tag(4, 3), seed=0)
    report = evaluate(params, data)
    assert report.per_sample_losses is None
    assert report.per_sample_grad_norms is None
    report = evaluate(params, data, want_per_sample=True, want_grad_norms=True)
    assert report.per_sample_losses.shape == (10,)
    assert report.per_sample_grad_norms.shape == (10,)


@pytest.mark.parametrize("tag_maker", [lambda: softmax_tag(4, 3), lambda: mlp_tag(4, 5, 3)])
def test_per_sample_grad_norms_match_per_sample_gradients(tag_maker):
    tag = tag_maker()
    data = small_data(n=8, f=4, c=3, seed=12)
    params = init_params(tag, seed=7)
    report = evaluate(params, data, want_grad_norms=True)
    for i in range(data.num_samples):
        single = data.subset(np.array([i]))
        g = gradient(params, single)
        assert report.per_sample_grad_norms[i] == pytest.approx(
            float(np.linalg.norm(g)), rel=1e-9
        )


# ---------------------------------------------------------- stacked kernel


@pytest.mark.parametrize("tag_maker", [lambda: softmax_tag(4, 3), lambda: mlp_tag(4, 5, 3)])
def test_stacked_kernel_rows_equal_single_model_calls(tag_maker):
    tag = tag_maker()
    shards = [small_data(n=9, seed=s) for s in range(4)]
    values = np.stack([init_params(tag, seed=s).values for s in range(4)])
    stack = SampleStack.of(shards)
    assert stack.num_samples == 36
    report = evaluate(ModelParams(values, tag), stack, True, True)
    grads = gradient(ModelParams(values, tag), stack)
    shared = evaluate(ModelParams(values[0], tag), stack, want_per_sample=True)
    for i, shard in enumerate(shards):
        single = ModelParams(values[i], tag)
        alone = evaluate(single, shard, True, True)
        assert report.mean_loss[i] == alone.mean_loss
        assert report.accuracy[i] == alone.accuracy
        assert np.array_equal(report.per_sample_losses[i], alone.per_sample_losses)
        assert np.array_equal(report.per_sample_grad_norms[i], alone.per_sample_grad_norms)
        assert np.array_equal(grads[i], gradient(single, shard))
        # One parameter vector broadcasts over every block of the stack.
        first = evaluate(ModelParams(values[0], tag), shard, want_per_sample=True)
        assert np.array_equal(shared.per_sample_losses[i], first.per_sample_losses)


def test_cohort_sgd_rows_equal_single_model_training():
    tag = mlp_tag(4, 3, 3)
    params = init_params(tag, seed=3)
    shards = [small_data(n=n, seed=n) for n in (5, 11, 11, 2)]
    cfgs = [TrainConfig(epochs=2, learning_rate=0.4, batch_size=4, rng_seed=i) for i in range(4)]
    trained = sgd_epochs(params, shards, cfgs)
    assert trained.values.shape == (4, param_count(tag))
    for row, shard, cfg in zip(trained.values, shards, cfgs):
        assert np.array_equal(row, sgd_epochs(params, shard, cfg).values)


# ------------------------------------------------------------- sgd_epochs


def test_sgd_zero_learning_rate_is_identity():
    data = small_data()
    params = init_params(softmax_tag(4, 3), seed=1)
    out = sgd_epochs(params, data, TrainConfig(epochs=3, learning_rate=0.0))
    assert np.array_equal(out.values, params.values)


def test_sgd_full_batch_single_epoch_matches_analytic_gradient():
    # Two samples, hand-checkable softmax gradient.
    features = np.array([[1.0, 2.0], [0.5, -1.0]])
    labels = np.array([0, 1])
    data = LabeledDataset(features, labels, 2)
    tag = softmax_tag(2, 2)
    params = ModelParams(np.array([0.1, -0.2, 0.05, 0.3, 0.0, 0.0]), tag)
    lr = 0.25

    out = sgd_epochs(
        params, data, TrainConfig(epochs=1, learning_rate=lr, batch_size=10)
    )

    w = params.values[:4].reshape(2, 2)
    b = params.values[4:]
    grad_w = np.zeros((2, 2))
    grad_b = np.zeros(2)
    for i in range(2):
        logits = features[i] @ w + b
        probs = np.exp(logits) / np.exp(logits).sum()
        delta = probs.copy()
        delta[labels[i]] -= 1.0
        grad_w += np.outer(features[i], delta) / 2
        grad_b += delta / 2
    expected = params.values - lr * np.concatenate([grad_w.ravel(), grad_b])
    assert out.values == pytest.approx(expected, abs=1e-9)


def test_sgd_is_deterministic_and_pure():
    data = small_data(n=40, seed=3)
    params = init_params(softmax_tag(4, 3), seed=2)
    before = params.values.copy()
    cfg = TrainConfig(epochs=2, learning_rate=0.1, batch_size=8, rng_seed=99)
    a = sgd_epochs(params, data, cfg)
    b = sgd_epochs(params, data, cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(params.values, before)
    assert not np.array_equal(a.values, before)


def test_sgd_reduces_loss_on_separable_data():
    data = make_synthetic(200, 4, 3, seed=15, cluster_spread=0.5)
    params = init_params(softmax_tag(4, 3), seed=5)
    trained = sgd_epochs(params, data, TrainConfig(epochs=20, learning_rate=0.5))
    assert evaluate(trained, data).mean_loss < evaluate(params, data).mean_loss


# ------------------------------------------------------------- grad_check


def test_grad_check_softmax_small():
    data = small_data(n=10, f=4, c=3, seed=20)
    params = init_params(softmax_tag(4, 3), seed=6)
    assert grad_check(params, data, epsilon=1e-5) < 1e-4


def test_grad_check_mlp_small():
    data = small_data(n=10, f=4, c=3, seed=21)
    params = init_params(mlp_tag(4, 6, 3), seed=6)
    assert grad_check(params, data, epsilon=1e-5) < 1e-4


# ---------------------------------------------------------- serialization


def test_params_roundtrip(tmp_path):
    params = init_params(mlp_tag(3, 4, 2), seed=9)
    path = tmp_path / "weights.fedw"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.shape_tag == params.shape_tag
    assert np.array_equal(loaded.values, params.values)


def test_load_params_rejects_truncation(tmp_path):
    params = init_params(softmax_tag(2, 2), seed=0)
    path = tmp_path / "weights.fedw"
    save_params(params, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="body bytes"):
        load_params(path)
