"""Classifier math: init, evaluation, SGD, gradient checks."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedclf.model
from fedclf.dataset import LabeledDataset, make_synthetic
from fedclf.model import (
    ModelParams,
    SampleStack,
    TrainConfig,
    _class_sum,
    evaluate,
    gradient,
    init_params,
    mlp_tag,
    param_count,
    parse_shape_tag,
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
    report = evaluate(params, data)
    assert report.per_sample_losses == pytest.approx(
        np.full(30, math.log(3)), abs=1e-12
    )
    # Uniform logits: argmax tie-break picks class 0 everywhere.
    assert np.array_equal(report.per_sample_hits, data.labels == 0)


def test_evaluate_perfect_logits_loss_tends_to_zero():
    data = LabeledDataset(np.array([[1.0, 0.0]]), np.array([1]), 2)
    tag = softmax_tag(2, 2)
    values = np.zeros(param_count(tag))
    values[1] = 50.0  # weight feature 0 onto class 1, pushed hard
    report = evaluate(ModelParams(values, tag), data)
    assert report.per_sample_losses[0] < 1e-20
    assert report.per_sample_hits.tolist() == [True]


def test_evaluate_matches_scalar_recomputation():
    data = small_data(n=12, f=3, c=4, seed=8)
    tag = softmax_tag(3, 4)
    params = init_params(tag, seed=3)
    report = evaluate(params, data)

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
    assert np.mean(report.per_sample_losses) == pytest.approx(total / 12, abs=1e-9)


def test_evaluate_mean_equals_mean_of_per_sample():
    # The server's np.mean of the test split's rows is bitwise the per-model
    # mean of a one-block stack.
    data = small_data(n=25, f=4, c=3, seed=9)
    params = init_params(softmax_tag(4, 3), seed=4)
    report = evaluate(params, data)
    stack = SampleStack(data.features, data.labels, (data.num_samples,), data.num_classes)
    for per_row in (report.per_sample_losses, report.per_sample_hits):
        assert_same_bits(stack.block_means(per_row), [np.mean(per_row)])
    assert np.all(report.per_sample_losses >= 0.0)


def test_evaluate_rejects_feature_mismatch():
    data = small_data(f=4)
    params = init_params(softmax_tag(5, 3), seed=0)
    with pytest.raises(ValueError, match="features"):
        evaluate(params, data)


def test_evaluate_grad_norms_only_on_request():
    data = small_data()
    params = init_params(softmax_tag(4, 3), seed=0)
    report = evaluate(params, data)
    assert report.per_sample_losses.shape == report.per_sample_hits.shape == (10,)
    assert report.per_sample_grad_norms is None
    report = evaluate(params, data, want_grad_norms=True)
    assert report.per_sample_losses.shape == report.per_sample_hits.shape == (10,)
    assert report.per_sample_grad_norms.shape == (10,)


@pytest.mark.parametrize("tag_maker", [lambda: softmax_tag(4, 3), lambda: mlp_tag(4, 5, 3)])
def test_per_sample_grad_norms_match_per_sample_gradients(tag_maker):
    tag = tag_maker()
    data = small_data(n=8, f=4, c=3, seed=12)
    params = init_params(tag, seed=7)
    report = evaluate(params, data, want_grad_norms=True)
    for i in range(data.num_samples):
        single = data.subset(np.array([i]))
        g = gradient(params, single)[0]
        assert report.per_sample_grad_norms[i] == pytest.approx(
            float(np.linalg.norm(g)), rel=1e-9
        )


def reference_forward(values, x, dims):
    """Logits of a ``(g, P)`` stack on ``(g, b, f)`` blocks, each layer's
    input activation and each layer's ``(g, in, out)`` weights, written
    without the model's own forward pass."""
    acts, weights, pos = [x], [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        w = values[:, pos : pos + fan_in * fan_out].reshape(-1, fan_in, fan_out)
        pos += fan_in * fan_out
        logits = acts[-1] @ w + values[:, None, pos : pos + fan_out]
        pos += fan_out
        weights.append(w)
        acts.append(np.tanh(logits))
    return logits, acts[:-1], weights


def reference_log_softmax(logits):
    """Row-wise log-softmax: ``max`` along the class axis, then the
    log-sum-exp of the shifted row."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def reference_evaluate(values, x, y, dims):
    """Plain row-wise evaluation of a ``(g, P)`` stack on ``(g, b, f)``
    blocks, written without ``evaluate``: ``max`` and ``argmax`` along the
    class axis, a label gather, and per-sample gradient norms by backprop.
    Returns ``(g, b)`` per-sample losses, argmax hits and grad norms."""
    logits, acts, weights = reference_forward(values, x, dims)
    log_probs = reference_log_softmax(logits)
    losses = -np.take_along_axis(log_probs, y[..., None], axis=-1)[..., 0]
    hits = np.argmax(logits, axis=-1) == y
    delta = np.exp(log_probs) - (np.arange(dims[-1]) == y[..., None])
    squared = 0
    for i in range(len(weights) - 1, -1, -1):
        squared = squared + (delta**2).sum(axis=-1) * ((acts[i] ** 2).sum(axis=-1) + 1.0)
        if i:
            delta = (delta @ weights[i].transpose(0, 2, 1)) * (1.0 - acts[i] ** 2)
    return losses, hits, np.sqrt(squared)


def reference_gradient(values, x, y, dims):
    """Plain gradient of each model's mean loss, written without
    ``gradient``: a row-wise log-softmax, the label delta, then per model
    and layer (last first) ``a.T @ d`` and ``d.sum``.  Returns ``(g, P)``."""
    logits, acts, weights = reference_forward(values, x, dims)
    onehot = np.arange(dims[-1]) == y[..., None]
    delta = (np.exp(reference_log_softmax(logits)) - onehot) / y.shape[-1]
    rows = []
    for m in range(len(values)):
        parts, d = [], delta[m]
        for i in range(len(weights) - 1, -1, -1):
            parts[:0] = [(acts[i][m].T @ d).ravel(), d.sum(axis=0)]
            if i:
                d = (d @ weights[i][m].T) * (1.0 - acts[i][m] ** 2)
        rows.append(np.concatenate(parts))
    return np.array(rows)


def equal_stack(x, y, num_classes):
    """A ``SampleStack`` of ``(g, b, f)`` feature and ``(g, b)`` label blocks."""
    g, b, f = x.shape
    return SampleStack(x.reshape(-1, f), y.reshape(-1), (b,) * g, num_classes)


def assert_same_bits(actual, expected):
    """Bitwise equality, signed zeros included; NaNs match whatever their
    sign bit."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(
        np.signbit(actual) & ~np.isnan(actual), np.signbit(expected) & ~np.isnan(expected)
    )


# Parameters and features are drawn from two small palettes of these values,
# so rows often tie at their maximum, hold signed zeros or go non-finite.
PALETTE = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 1e308, -1e308, np.nan]),
        st.integers(-2, 2).map(float),
        st.floats(-4.0, 4.0),
    ),
    min_size=1,
    max_size=5,
)


@st.composite
def evaluation_cases(draw):
    """``(shape tag, (g, P) parameters, (g, b, f) features, (g, b) labels)``."""
    g, b, c, f = (draw(st.integers(1, top)) for top in (4, 40, 25, 3))
    tag = draw(st.sampled_from([softmax_tag(f, c), mlp_tag(f, 3, c)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def block(size):
        # Up to 8 normal draws widen the palette, so many rows have one maximum.
        palette = draw(PALETTE) + list(rng.normal(size=draw(st.integers(0, 8))))
        return rng.choice(palette, size)

    return tag, block((g, param_count(tag))), block((g, b, f)), rng.integers(0, c, (g, b))


@settings(max_examples=300, deadline=None)
@given(case=evaluation_cases(), unstacked=st.booleans())
# A NaN row beside a two-way tie: one exact zero per row on average, but
# the hits must still come from argmax.
@example(
    case=(softmax_tag(1, 2), np.ones((1, 4)), np.array([[[np.nan], [1.0]]]), np.array([[0, 0]])),
    unstacked=False,
)
# Two models on the argmax path (model 0's rows tie), hits [[1, 1], [0, 1]]:
# they follow the data's row order, model-major.
@example(
    case=(
        softmax_tag(1, 2),
        np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]),
        np.array([[[1.0], [1.0]], [[-1.0], [1.0]]]),
        np.array([[0, 0], [0, 0]]),
    ),
    unstacked=False,
)
def test_evaluate_equals_row_wise_reference_bitwise(case, unstacked):
    tag, values, x, y = case
    dims = parse_shape_tag(tag)[1]
    stack = equal_stack(x, y, dims[-1])
    with np.errstate(all="ignore"):
        losses, hits, norms = reference_evaluate(values, x, y, dims)
        if unstacked and len(values) == 1:
            data = LabeledDataset(x[0], y[0], dims[-1])
            report = evaluate(ModelParams(values[0], tag), data, want_grad_norms=True)
        else:
            report = evaluate(ModelParams(values, tag), stack, want_grad_norms=True)
        assert_same_bits(report.per_sample_losses, losses.reshape(-1))
        assert_same_bits(report.per_sample_hits, hits.reshape(-1))
        assert_same_bits(report.per_sample_grad_norms, norms.reshape(-1))
        assert_same_bits(stack.block_means(report.per_sample_losses), losses.mean(axis=-1))
        assert_same_bits(stack.block_means(report.per_sample_hits), hits.mean(axis=-1))


@settings(max_examples=300, deadline=None)
@given(case=evaluation_cases(), unstacked=st.booleans())
# A NaN row beside a two-way tie, as in the evaluate oracle.
@example(
    case=(softmax_tag(1, 2), np.ones((1, 4)), np.array([[[np.nan], [1.0]]]), np.array([[0, 0]])),
    unstacked=False,
)
def test_gradient_equals_row_wise_reference_bitwise(case, unstacked):
    tag, values, x, y = case
    dims = parse_shape_tag(tag)[1]
    with np.errstate(all="ignore"):
        expected = reference_gradient(values, x, y, dims)
        if unstacked and len(values) == 1:
            data = LabeledDataset(x[0], y[0], dims[-1])
            grad = gradient(ModelParams(values[0], tag), data)
        else:
            grad = gradient(ModelParams(values, tag), equal_stack(x, y, dims[-1]))
    assert grad.shape == expected.shape
    assert_same_bits(grad, expected)


@st.composite
def ragged_cases(draw):
    """``(shape tag, parameters, (N, f) features, (N,) labels, sizes)``: blocks
    in runs of equal sizes and singletons, in no particular order, under a
    ``(g, P)`` parameter stack or one vector broadcast over every block."""
    c, f = draw(st.integers(1, 25)), draw(st.integers(1, 3))
    runs = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)), min_size=1, max_size=6))
    sizes = tuple(size for size, count in runs for _ in range(count))
    tag = draw(st.sampled_from([softmax_tag(f, c), mlp_tag(f, 3, c)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def block(size):
        palette = draw(PALETTE) + list(rng.normal(size=draw(st.integers(0, 8))))
        return rng.choice(palette, size)

    models = draw(st.sampled_from([1, len(sizes)]))
    n = sum(sizes)
    return tag, block((models, param_count(tag))), block((n, f)), rng.integers(0, c, n), sizes


def blocks_of(sizes):
    """Each block's row slice."""
    ends = np.cumsum(sizes)
    return [slice(end - size, end) for size, end in zip(sizes, ends)]


@settings(max_examples=300, deadline=None)
@given(case=ragged_cases())
def test_evaluate_on_a_ragged_stack_equals_each_block_alone_bitwise(case):
    tag, values, x, y, sizes = case
    dims = parse_shape_tag(tag)[1]
    stack = SampleStack(x, y, sizes, dims[-1])
    with np.errstate(all="ignore"):
        report = evaluate(ModelParams(values, tag), stack, want_grad_norms=True)
        means = stack.block_means(report.per_sample_losses)
        accuracies = stack.block_means(report.per_sample_hits)
        for i, rows in enumerate(blocks_of(sizes)):
            row = values[i : i + 1] if len(values) > 1 else values
            losses, hits, norms = reference_evaluate(row, x[None, rows], y[None, rows], dims)
            assert_same_bits(report.per_sample_losses[rows], losses[0])
            assert_same_bits(report.per_sample_hits[rows], hits[0])
            assert_same_bits(means[i], losses[0].mean())
            assert_same_bits(accuracies[i], hits[0].mean())
            assert_same_bits(report.per_sample_grad_norms[rows], norms[0])
        assert report.per_sample_hits.shape == (len(y),)
        assert means.shape == accuracies.shape == (len(sizes),)


@pytest.mark.parametrize("tag", [mlp_tag(32, 64, 10), softmax_tag(8, 10)])
@pytest.mark.parametrize("shared", [True, False])
def test_ragged_stack_at_workload_widths_equals_each_block_alone_bitwise(tag, shared):
    # The drawn ragged cases keep f <= 3 and H = 3; BLAS picks its kernels by
    # size, so the benchmark workloads' widths are checked explicitly.
    dims = parse_shape_tag(tag)[1]
    sizes = (33, 31, 24, 24, 21, 20, 12, 10, 10, 8, 1)
    rng = np.random.default_rng(23)
    values = rng.normal(0.0, 0.5, (1 if shared else len(sizes), param_count(tag)))
    x = rng.normal(0.0, 1.0, (sum(sizes), dims[0]))
    y = rng.integers(0, dims[-1], sum(sizes))
    stack = SampleStack(x, y, sizes, dims[-1])
    report = evaluate(ModelParams(values, tag), stack, want_grad_norms=True)
    means = stack.block_means(report.per_sample_losses)
    accuracies = stack.block_means(report.per_sample_hits)
    grad = gradient(ModelParams(values, tag), stack)
    for i, rows in enumerate(blocks_of(sizes)):
        row = values if shared else values[i : i + 1]
        losses, hits, norms = reference_evaluate(row, x[None, rows], y[None, rows], dims)
        assert_same_bits(report.per_sample_losses[rows], losses[0])
        assert_same_bits(report.per_sample_hits[rows], hits[0])
        assert_same_bits(means[i], losses[0].mean())
        assert_same_bits(accuracies[i], hits[0].mean())
        assert_same_bits(report.per_sample_grad_norms[rows], norms[0])
        assert_same_bits(grad[i], reference_gradient(row, x[None, rows], y[None, rows], dims)[0])


@settings(max_examples=300, deadline=None)
@given(case=ragged_cases())
def test_gradient_on_a_ragged_stack_equals_each_block_alone_bitwise(case):
    tag, values, x, y, sizes = case
    dims = parse_shape_tag(tag)[1]
    with np.errstate(all="ignore"):
        grad = gradient(ModelParams(values, tag), SampleStack(x, y, sizes, dims[-1]))
        assert grad.shape == (len(sizes), param_count(tag))
        for i, rows in enumerate(blocks_of(sizes)):
            row = values[i : i + 1] if len(values) > 1 else values
            assert_same_bits(grad[i], reference_gradient(row, x[None, rows], y[None, rows], dims)[0])


def at_odd_offset(a, words):
    """A copy of ``a`` that starts ``words`` (odd) float64s into a new
    buffer, so it lies 8 bytes off any alignment the allocator gives."""
    moved = np.empty(a.size + words)[words:].reshape(a.shape)
    moved[...] = a
    return moved


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    fan_in=st.integers(2, 70),
    fan_out=st.integers(2, 70),
    shared=st.booleans(),
    words=st.sampled_from([1, 3, 5, 7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_run_blas_calls_at_odd_offsets_equal_each_block_alone_bitwise(
    sizes, fan_in, fan_out, shared, words, seed
):
    # The stack's matmul (forward, and backward through a transposed weight)
    # and layer gradient, on rows, weights and deltas placed at odd 8-byte
    # offsets, against each block alone at the allocator's alignment: the
    # one-block stack a single client's kernel runs on.  Widths start at 2:
    # numpy computes a product with a 1 x 1 result as a BLAS dot, which some
    # OpenBLAS kernels (Katmai) sum in an order that follows the address; in
    # the model that takes a hidden width or class count of 1.
    rng = np.random.default_rng(seed)
    n, g = sum(sizes), len(sizes)
    a = rng.normal(size=(n, fan_in)) * 10.0 ** rng.integers(-6, 7, (n, fan_in))
    d = rng.normal(size=(n, fan_out))
    w = rng.normal(size=(1 if shared else g, fan_in, fan_out))
    stack = SampleStack(np.zeros((n, 1)), np.zeros(n, dtype=np.int64), tuple(sizes), 1)

    def layout(rows):  # the kernel layout: (g, b, .) blocks for a single run
        return rows.reshape(g, sizes[0], -1) if len(stack.runs) == 1 else rows

    a_odd, d_odd, w_odd = (at_odd_offset(v, words) for v in (a, d, w))
    out = stack.matmul(layout(a_odd), w_odd).reshape(n, -1)
    back = stack.matmul(layout(d_odd), w_odd.transpose(0, 2, 1)).reshape(n, -1)
    gw, gb = stack.layer_gradient(layout(a_odd), layout(d_odd))
    for i, rows in enumerate(blocks_of(sizes)):
        size = sizes[i]
        alone = SampleStack(np.zeros((size, 1)), np.zeros(size, dtype=np.int64), (size,), 1)
        w_i = w[:1] if shared else w[i : i + 1].copy()
        a_i, d_i = a[None, rows].copy(), d[None, rows].copy()
        assert_same_bits(out[rows], alone.matmul(a_i, w_i)[0])
        assert_same_bits(back[rows], alone.matmul(d_i, w_i.transpose(0, 2, 1))[0])
        gw_i, gb_i = alone.layer_gradient(a_i, d_i)
        assert_same_bits(gw[i], gw_i[0])
        assert_same_bits(gb[i], gb_i[0])


@pytest.mark.parametrize("rows", [(1,), (5,), (2, 33)])
def test_class_sum_is_numpy_row_sum_bitwise_at_every_class_count(rows):
    # evaluate sums exp over the class rows of a class-major copy; numpy's
    # row-wise sum is pairwise, with a different order below 8, up to 128
    # and above 128 classes.  Magnitudes spread over 25 decades make any
    # change of order show; rows of signed zeros pin the identity.
    rng = np.random.default_rng(31)
    for c in range(1, 301):
        x = rng.normal(size=(*rows, c)) * 10.0 ** rng.integers(-12, 13, (*rows, c))
        x.reshape(-1, c)[0] = -0.0
        x.reshape(-1, c)[-1, ::3] = -0.0
        class_major = np.ascontiguousarray(np.moveaxis(x, -1, 0))
        assert_same_bits(_class_sum(class_major), np.add.reduce(x, axis=-1))


@pytest.mark.parametrize("c", [8, 9, 16, 17, 64, 129, 200])
@pytest.mark.parametrize("hidden", [None, 5])
def test_evaluate_equals_row_wise_reference_at_wide_class_counts(c, hidden):
    # The drawn oracle cases stop at 25 classes; the class sum changes its
    # order at 8 and 128, and the label gather reads a (C, N) layout.
    tag = softmax_tag(3, c) if hidden is None else mlp_tag(3, hidden, c)
    dims = parse_shape_tag(tag)[1]
    rng = np.random.default_rng(c)
    sizes = (13, 7, 7, 7, 6, 20)
    values = rng.normal(0.0, 3.0, (len(sizes), param_count(tag)))
    x = rng.normal(0.0, 2.0, (60, 3))
    y = rng.integers(0, c, 60)
    xb, yb = x.reshape(3, 20, 3), y.reshape(3, 20)
    equal = evaluate(ModelParams(values[:3], tag), equal_stack(xb, yb, c), want_grad_norms=True)
    for got, want in zip(equal, reference_evaluate(values[:3], xb, yb, dims)):
        assert_same_bits(got, want.reshape(-1))
    ragged = evaluate(ModelParams(values, tag), SampleStack(x, y, sizes, c), want_grad_norms=True)
    for i, rows in enumerate(blocks_of(sizes)):
        expected = reference_evaluate(values[i : i + 1], x[None, rows], y[None, rows], dims)
        for got, want in zip(ragged, expected):
            assert_same_bits(got[rows], want[0])


# ---------------------------------------------------------- stacked kernel


@pytest.mark.parametrize("tag_maker", [lambda: softmax_tag(4, 3), lambda: mlp_tag(4, 5, 3)])
def test_stacked_kernel_rows_equal_single_model_calls(tag_maker):
    tag = tag_maker()
    shards = [small_data(n=9, seed=s) for s in range(4)]
    values = np.stack([init_params(tag, seed=s).values for s in range(4)])
    stack = SampleStack(
        np.concatenate([s.features for s in shards]),
        np.concatenate([s.labels for s in shards]),
        (9,) * 4,
        3,
    )
    assert stack.num_samples == 36 and len(stack.runs) == 1
    report = evaluate(ModelParams(values, tag), stack, want_grad_norms=True)
    means = stack.block_means(report.per_sample_losses)
    accuracies = stack.block_means(report.per_sample_hits)
    _, hits, _ = reference_evaluate(
        values, stack.features.reshape(4, 9, -1), stack.labels.reshape(4, 9), parse_shape_tag(tag)[1]
    )
    assert np.array_equal(report.per_sample_hits, hits.reshape(-1))
    grads = gradient(ModelParams(values, tag), stack)
    shared = evaluate(ModelParams(values[0], tag), stack)
    for i, shard in enumerate(shards):
        rows = slice(9 * i, 9 * i + 9)
        single = ModelParams(values[i], tag)
        alone = evaluate(single, shard, want_grad_norms=True)
        assert means[i] == np.mean(alone.per_sample_losses)
        assert accuracies[i] == np.mean(alone.per_sample_hits)
        assert np.array_equal(report.per_sample_losses[rows], alone.per_sample_losses)
        assert np.array_equal(report.per_sample_hits[rows], alone.per_sample_hits)
        assert np.array_equal(report.per_sample_grad_norms[rows], alone.per_sample_grad_norms)
        assert np.array_equal(grads[i], gradient(single, shard)[0])
        # One parameter vector broadcasts over every block of the stack.
        first = evaluate(ModelParams(values[0], tag), shard)
        assert np.array_equal(shared.per_sample_losses[rows], first.per_sample_losses)


@pytest.mark.parametrize("tag_maker", [lambda: softmax_tag(4, 3), lambda: mlp_tag(4, 5, 3)])
@pytest.mark.parametrize("bad_label", [3, 4])
def test_label_outside_model_classes_raises(tag_maker, bad_label):
    # The bad label sits on the first sample, so a lookup that ran past the
    # class axis would read the next sample's entries instead of raising.
    tag = tag_maker()
    shards = [small_data(n=6, seed=s) for s in range(2)]
    labels = np.concatenate([s.labels for s in shards])
    labels[0] = bad_label
    params = init_params(tag, seed=4)
    for sizes in ((6, 6), (4, 8)):  # one run, and a ragged stack of two
        stack = SampleStack(np.concatenate([s.features for s in shards]), labels, sizes, 3)
        with pytest.raises(IndexError):
            gradient(params, stack)
        with pytest.raises(IndexError):
            evaluate(params, stack)


@pytest.mark.parametrize("tag_maker", [lambda: softmax_tag(4, 3), lambda: mlp_tag(4, 5, 3)])
def test_negative_label_in_a_sample_stack_raises(tag_maker):
    # Label -1 would be read as the last class of the same sample.
    shards = [small_data(n=6, seed=s) for s in range(2)]
    features = np.concatenate([s.features for s in shards])
    labels = np.concatenate([s.labels for s in shards])
    labels[8] = -1
    params = init_params(tag_maker(), seed=4)
    for sizes in ((6, 6), (4, 8)):
        for kernel in (evaluate, gradient):
            with pytest.raises(ValueError, match="negative label -1"):
                kernel(params, SampleStack(features, labels, sizes, 3))


@pytest.mark.parametrize(
    "sizes, runs",
    [
        ((5,), [(0, 1, 0, 5, 5)]),
        ((3, 3, 3), [(0, 3, 0, 9, 3)]),
        ((4, 4, 1, 2, 2), [(0, 2, 0, 8, 4), (2, 3, 8, 9, 1), (3, 5, 9, 13, 2)]),
        ((1, 2, 1, 2), [(0, 1, 0, 1, 1), (1, 2, 1, 3, 2), (2, 3, 3, 4, 1), (3, 4, 4, 6, 2)]),
        ((2, 2, 1), [(0, 2, 0, 4, 2), (2, 3, 4, 5, 1)]),
    ],
)
def test_sample_stack_runs(sizes, runs):
    # Each run as (first model, end model, first row, end row, block size).
    n = sum(sizes)
    stack = SampleStack(np.zeros((n, 2)), np.zeros(n, dtype=np.int64), sizes, 1)
    assert stack.runs == tuple(
        (slice(m0, m1), slice(r0, r1), size) for m0, m1, r0, r1, size in runs
    )


@pytest.mark.parametrize("sizes", [(6, 5), (6, 7), (0, 12), (), (12, 0)])
def test_sample_stack_block_sizes_must_cover_its_rows(sizes):
    data = small_data(n=12, seed=3)
    with pytest.raises(ValueError, match="block sizes"):
        SampleStack(data.features, data.labels, sizes, 3)


@pytest.mark.parametrize("tag_maker", [lambda: softmax_tag(4, 3), lambda: mlp_tag(4, 5, 3)])
def test_parameter_stack_over_unstacked_data_raises(tag_maker):
    # Three models over one 2-D dataset: the label lookup would cover only
    # the first model's rows.
    tag = tag_maker()
    data = small_data(n=6, seed=1)
    values = np.stack([init_params(tag, seed=s).values for s in range(3)])
    for kernel in (evaluate, gradient):
        with pytest.raises(ValueError, match=r"\(3, \d+\) parameter stack over unstacked \(6, 4\) data"):
            kernel(ModelParams(values, tag), data)
    # A stack of one model is still one model.
    one = ModelParams(values[:1], tag)
    assert np.array_equal(gradient(one, data), gradient(ModelParams(values[0], tag), data))
    assert np.array_equal(
        evaluate(one, data).per_sample_losses,
        evaluate(ModelParams(values[0], tag), data).per_sample_losses,
    )


def test_cohort_sgd_rows_equal_single_model_training():
    tag = mlp_tag(4, 3, 3)
    params = init_params(tag, seed=3)
    shards = [small_data(n=n, seed=n) for n in (5, 11, 11, 2)]
    cfg = TrainConfig(epochs=2, learning_rate=0.4, batch_size=4)
    trained = cohort_sgd(params, shards, cfg, range(4))
    assert trained.values.shape == (4, param_count(tag))
    for seed, (row, shard) in enumerate(zip(trained.values, shards)):
        assert np.array_equal(row, train_one(params, shard, cfg, seed))


# ------------------------------------------------------------- sgd_epochs


def unchecked(features, labels, num_classes=3) -> LabeledDataset:
    """A dataset whose labels skip ``LabeledDataset``'s range check."""
    data = object.__new__(LabeledDataset)
    data.__dict__.update(features=features, labels=labels, num_classes=num_classes)
    return data


def cohort_sgd(params: ModelParams, shards, cfg: TrainConfig, seeds) -> ModelParams:
    """``sgd_epochs`` on ``shards`` as row ranges of one dataset: laid out
    in reverse order, each after a filler row, so no shard starts where a
    count of the shards before it in the cohort would put it."""
    features, labels, starts, row = [], [], [0] * len(shards), 0
    for i in reversed(range(len(shards))):
        features += [np.zeros((1, shards[i].num_features)), shards[i].features]
        labels += [np.zeros(1, dtype=np.int64), shards[i].labels]
        starts[i] = row + 1
        row += 1 + shards[i].num_samples
    data = unchecked(
        np.concatenate(features), np.concatenate(labels), max(s.num_classes for s in shards)
    )
    counts = [shard.num_samples for shard in shards]
    return sgd_epochs(params, data, starts, counts, cfg, seeds)


def train_one(params: ModelParams, data, cfg: TrainConfig, seed: int = 0) -> np.ndarray:
    """``sgd_epochs`` on a cohort of one: the trained parameter vector."""
    trained = sgd_epochs(params, data, [0], [data.num_samples], cfg, [seed])
    assert trained.values.shape == (1, params.values.size)
    return trained.values[0]


def reference_sgd(
    params: ModelParams, shard: LabeledDataset, cfg: TrainConfig, seed: int
) -> np.ndarray:
    """Plain per-client mini-batch SGD, written without ``sgd_epochs``: a
    seeded permutation per epoch, then one gradient step per batch."""
    rng = np.random.default_rng(seed)
    values = params.values
    n = shard.num_samples
    b = min(cfg.batch_size, n)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for s in range(0, n, b):
            batch = LabeledDataset(
                shard.features[perm][s : s + b], shard.labels[perm][s : s + b], shard.num_classes
            )
            values = values - cfg.learning_rate * gradient(
                ModelParams(values, params.shape_tag), batch
            )[0]
    return values


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=7),
    batch=st.integers(min_value=1, max_value=48),  # often >= n_k
    epochs=st.integers(min_value=1, max_value=3),
    lr=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    hidden=st.sampled_from([None, 5]),
    spare_classes=st.integers(0, 2),  # model classes that no shard holds
)
# Two same-size shards: each must draw its schedule from its own seed.
@example(sizes=[6, 6], batch=2, epochs=1, lr=0.3, hidden=None, spare_classes=0)
# The one-hot targets are as wide as the model's classes, not the data's.
@example(sizes=[5, 3], batch=2, epochs=1, lr=0.3, hidden=None, spare_classes=2)
# The workload cohorts: five equal shards (a last step of 24 rows after three
# of 32), ragged many-client sizes, and a wider mlp over two epochs.
@example(sizes=[120] * 5, batch=32, epochs=1, lr=0.01, hidden=None, spare_classes=0)
@example(sizes=[36, 33, 31, 20, 20, 12, 7, 4], batch=32, epochs=1, lr=0.05, hidden=None, spare_classes=0)
@example(sizes=[40, 40, 25], batch=32, epochs=2, lr=0.05, hidden=16, spare_classes=0)
def test_cohort_sgd_equals_plain_per_client_loop(sizes, batch, epochs, lr, hidden, spare_classes):
    c = 3 + spare_classes
    tag = softmax_tag(4, c) if hidden is None else mlp_tag(4, hidden, c)
    params = init_params(tag, seed=21)
    shards = [small_data(n=n, seed=200 + i) for i, n in enumerate(sizes)]
    cfg = TrainConfig(epochs=epochs, learning_rate=lr, batch_size=batch)
    seeds = [70 + i for i in range(len(shards))]
    trained = cohort_sgd(params, shards, cfg, seeds)
    for row, shard, seed in zip(trained.values, shards, seeds):
        assert row.tobytes() == reference_sgd(params, shard, cfg, seed).tobytes()


def counted_gradient(monkeypatch):
    """Patch ``fedclf.model.gradient`` to record the stack of every call."""
    stacks, real = [], fedclf.model.gradient

    def recording(params, data):
        stacks.append(data)
        return real(params, data)

    monkeypatch.setattr(fedclf.model, "gradient", recording)
    return stacks


@pytest.mark.parametrize(
    "sizes, batch, epochs",
    [([120] * 5, 32, 1), ([36, 33, 31, 20, 20, 12, 7, 4], 32, 1), ([9, 2, 5], 4, 3), ([7], 50, 2)],
)
def test_sgd_makes_one_gradient_call_per_step(monkeypatch, sizes, batch, epochs):
    stacks = counted_gradient(monkeypatch)
    shards = [small_data(n=n, seed=300 + i) for i, n in enumerate(sizes)]
    cfg = TrainConfig(epochs=epochs, learning_rate=0.1, batch_size=batch)
    cohort_sgd(init_params(softmax_tag(4, 3), seed=1), shards, cfg, range(len(sizes)))
    assert len(stacks) == max(epochs * math.ceil(n / min(batch, n)) for n in sizes)


@pytest.mark.parametrize("hidden", [None, 5])
def test_each_sgd_step_stack_equals_a_checked_sample_stack(monkeypatch, hidden):
    # Each step's stack is built without SampleStack's checks, its runs looked
    # up per size tuple; a fresh stack over the same rows must agree, and the
    # targets are the one-hot rows of its labels at the model's 5 classes.
    stacks = counted_gradient(monkeypatch)
    sizes = [36, 33, 31, 20, 20, 12, 7, 4, 4]
    shards = [small_data(n=n, seed=400 + i) for i, n in enumerate(sizes)]
    tag = softmax_tag(4, 5) if hidden is None else mlp_tag(4, hidden, 5)
    cfg = TrainConfig(epochs=2, learning_rate=0.1, batch_size=16)
    cohort_sgd(init_params(tag, seed=2), shards, cfg, range(len(sizes)))
    assert len({stack.sizes for stack in stacks}) > 2
    for stack in stacks:
        fresh = SampleStack(stack.features, stack.labels, stack.sizes, stack.num_classes)
        assert {f.name for f in dataclasses.fields(SampleStack)} <= vars(stack).keys()
        assert np.array_equal(stack.features, fresh.features)
        assert np.array_equal(stack.labels, fresh.labels)
        assert (stack.sizes, stack.num_classes, stack.runs) == (fresh.sizes, 3, fresh.runs)
        assert_same_bits(stack.targets, np.eye(5)[stack.labels])


@pytest.mark.parametrize("tag", [softmax_tag(4, 3), mlp_tag(4, 5, 3)])
@pytest.mark.parametrize(
    "bad_label, error", [(3, IndexError), (7, IndexError), (-1, ValueError)]
)
def test_bad_label_in_a_shard_raises_before_any_sgd_step(monkeypatch, tag, bad_label, error):
    # A label of C or more would be read as a later sample's class, and -1 as
    # the last class of the same sample.  The bad label lies in the second
    # shard's last batch (its seed 2 draws the order), so the second step,
    # whose sizes repeat the first's, holds it: only the check of the whole
    # schedule sees it.
    stacks = counted_gradient(monkeypatch)
    labels = [0, 1, 2, 0, 1, 2, 0, 1]
    labels[np.random.default_rng(2).permutation(8)[-1]] = bad_label
    shards = [
        small_data(n=8, seed=6),
        unchecked(small_data(n=8, seed=5).features, np.array(labels, dtype=np.int64)),
    ]
    cfg = TrainConfig(epochs=1, learning_rate=0.1, batch_size=4)
    match = "negative label -1 in a shard" if bad_label < 0 else None
    with pytest.raises(error, match=match):
        cohort_sgd(init_params(tag, seed=3), shards, cfg, [1, 2])
    assert stacks == []


@pytest.mark.parametrize(
    "starts, counts", [([0, 10], [10, 1]), ([-1, 3], [2, 2]), ([0, 4], [4, 0]), ([], [])]
)
def test_sgd_row_ranges_outside_the_data_raise(starts, counts):
    # The gather would read past the end, wrap a negative start to the last
    # rows, or train a model on no rows.
    data = small_data(n=10, seed=7)
    cfg = TrainConfig(epochs=1, learning_rate=0.1)
    with pytest.raises(ValueError, match="row ranges"):
        sgd_epochs(init_params(softmax_tag(4, 3), seed=1), data, starts, counts, cfg, counts)


def test_sgd_zero_learning_rate_is_identity():
    data = small_data()
    params = init_params(softmax_tag(4, 3), seed=1)
    out = train_one(params, data, TrainConfig(epochs=3, learning_rate=0.0))
    assert np.array_equal(out, params.values)


def test_sgd_full_batch_single_epoch_matches_analytic_gradient():
    # Two samples, hand-checkable softmax gradient.
    features = np.array([[1.0, 2.0], [0.5, -1.0]])
    labels = np.array([0, 1])
    data = LabeledDataset(features, labels, 2)
    tag = softmax_tag(2, 2)
    params = ModelParams(np.array([0.1, -0.2, 0.05, 0.3, 0.0, 0.0]), tag)
    lr = 0.25

    out = train_one(params, data, TrainConfig(epochs=1, learning_rate=lr, batch_size=10))

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
    assert out == pytest.approx(expected, abs=1e-9)


def test_sgd_is_deterministic_and_pure():
    data = small_data(n=40, seed=3)
    params = init_params(softmax_tag(4, 3), seed=2)
    before = params.values.copy()
    cfg = TrainConfig(epochs=2, learning_rate=0.1, batch_size=8)
    a = train_one(params, data, cfg, seed=99)
    b = train_one(params, data, cfg, seed=99)
    assert np.array_equal(a, b)
    assert np.array_equal(params.values, before)
    assert not np.array_equal(a, before)


def test_sgd_reduces_loss_on_separable_data():
    data = make_synthetic(200, 4, 3, seed=15, cluster_spread=0.5)
    params = init_params(softmax_tag(4, 3), seed=5)
    trained = train_one(params, data, TrainConfig(epochs=20, learning_rate=0.5))
    assert np.mean(evaluate(ModelParams(trained, params.shape_tag), data).per_sample_losses) < (
        np.mean(evaluate(params, data).per_sample_losses)
    )


# ------------------------------------------------------------- grad_check


def grad_check(params: ModelParams, data, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    analytic = gradient(params, data)[0]
    values = params.values
    worst = 0.0
    for i in range(values.size):
        bumped = values.copy()
        bumped[i] += epsilon
        up = np.mean(evaluate(ModelParams(bumped, params.shape_tag), data).per_sample_losses)
        bumped[i] -= 2.0 * epsilon
        down = np.mean(evaluate(ModelParams(bumped, params.shape_tag), data).per_sample_losses)
        numeric = (up - down) / (2.0 * epsilon)
        err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst


def test_grad_check_softmax_small():
    data = small_data(n=10, f=4, c=3, seed=20)
    params = init_params(softmax_tag(4, 3), seed=6)
    assert grad_check(params, data, epsilon=1e-5) < 1e-4


def test_grad_check_mlp_small():
    data = small_data(n=10, f=4, c=3, seed=21)
    params = init_params(mlp_tag(4, 6, 3), seed=6)
    assert grad_check(params, data, epsilon=1e-5) < 1e-4

