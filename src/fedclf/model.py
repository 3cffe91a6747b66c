"""Desk-scale differentiable classifiers over flat parameter vectors.

Two architectures are supported, identified by a shape tag:

* ``softmax:<F>x<C>`` -- multinomial logistic regression,
* ``mlp:<F>x<H>x<C>`` -- one tanh hidden layer of width ``H``.

All operations are pure functions of their inputs (including seeds).  Losses
are cross-entropy with natural log; accuracy breaks argmax ties toward the
lowest class index.

Every model function runs one kernel over a *stack* of models: parameters
``(g, P)`` and same-size sample blocks ``(g, b, f)`` (a ``SampleStack``).  A
single ``ModelParams`` vector with a ``LabeledDataset`` is the ``g = 1`` case,
and a single vector broadcasts over a stack of blocks.  The kernel uses only
stacked ``@``, elementwise operations and reductions that are computed
separately per model, so each model's results are bitwise equal to running it
alone.  The blocks may be slices of a larger array: ``sgd_epochs`` gathers a
cohort's whole schedule once and passes each step a window of it.

``evaluate`` and ``gradient`` share one forward pass and softmax head, which
reduces along the short class axis only for the exp-sum: the row maximum is
an elementwise maximum of class columns (exact in any order).  ``evaluate``
reads accuracy as ``shifted[label] == 0.0`` when every row maximum is finite
and each row has one exact zero; otherwise it takes ``argmax`` (lowest-index
ties).  Results are bitwise those of a row-wise log-softmax and argmax.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "SampleStack",
    "TrainConfig",
    "EvalReport",
    "softmax_tag",
    "mlp_tag",
    "parse_shape_tag",
    "resolve_shape_tag",
    "param_count",
    "init_params",
    "evaluate",
    "gradient",
    "sgd_epochs",
    "grad_check",
]


def softmax_tag(num_features: int, num_classes: int) -> str:
    return f"softmax:{num_features}x{num_classes}"


def mlp_tag(num_features: int, hidden: int, num_classes: int) -> str:
    return f"mlp:{num_features}x{hidden}x{num_classes}"


@cache
def parse_shape_tag(tag: str) -> tuple[str, tuple[int, ...]]:
    """Split a shape tag into (kind, layer sizes); raises on unknown tags."""
    kind, _, dims_text = tag.partition(":")
    try:
        dims = tuple(int(d) for d in dims_text.split("x"))
    except ValueError:
        raise ValueError(f"unknown shape_tag {tag!r}") from None
    if (
        {"softmax": 2, "mlp": 3}.get(kind) == len(dims)
        and all(d >= 1 for d in dims)
        and tag == f"{kind}:{'x'.join(map(str, dims))}"  # no sign, space or leading zero
    ):
        return kind, dims
    raise ValueError(f"unknown shape_tag {tag!r}")


def resolve_shape_tag(model: str, num_features: int, num_classes: int) -> str:
    """The full shape tag of a configured ``model`` (``softmax`` or
    ``mlp:<H>``) over data with the given feature and class counts."""
    kind, colon, hidden = model.partition(":")
    tag = f"{kind}:{num_features}x{hidden + 'x' if colon else ''}{num_classes}"
    try:
        parse_shape_tag(tag)
    except ValueError:
        raise ValueError(
            f"unknown shape_tag {model!r}, want softmax or mlp:<H> with H >= 1"
        ) from None
    return tag


def _layer_sizes(dims: tuple[int, ...]) -> list[tuple[int, int]]:
    """(fan_in, fan_out) per layer; the flat vector is W, b of each in turn."""
    return list(zip(dims, dims[1:]))


@cache
def param_count(tag: str) -> int:
    _, dims = parse_shape_tag(tag)
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in _layer_sizes(dims))


@dataclass(frozen=True)
class ModelParams:
    """A flat float64 parameter vector, or a ``(g, P)`` stack of them, plus
    the architecture it decodes into."""

    values: np.ndarray
    shape_tag: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        expected = param_count(self.shape_tag)
        if values.ndim not in (1, 2) or values.shape[-1] != expected:
            raise ValueError(
                f"shape_tag {self.shape_tag!r} implies {expected} parameters, "
                f"got vector of shape {values.shape}"
            )
        object.__setattr__(self, "values", values)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.stack``, but a view for a single (C-contiguous) array."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


@dataclass(frozen=True)
class SampleStack:
    """``g`` same-size sample blocks, one per stacked model.

    ``features`` is ``(g, b, f)`` and ``labels`` is ``(g, b)``;
    ``num_samples`` counts all ``g * b`` samples.  A negative label raises
    ``ValueError`` (the label lookup would read it from the end of the row).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.labels.size and self.labels.min() < 0:
            raise ValueError(f"negative label {self.labels.min()} in a sample stack")

    @classmethod
    def of(cls, shards: Sequence) -> "SampleStack":
        """Stack equal-size datasets (anything with features/labels/num_classes)."""
        return cls(
            _stack([s.features for s in shards]),
            _stack([s.labels for s in shards]),
            max(s.num_classes for s in shards),
        )

    @property
    def num_samples(self) -> int:
        return self.labels.size

    @property
    def num_features(self) -> int:
        return self.features.shape[-1]


@dataclass(frozen=True)
class TrainConfig:
    """An experiment's local SGD, the same for every client it trains; only
    the data and the seed differ per client.

    ``batch_size`` is clamped to the local sample count, so any value at or
    above it requests full-batch gradient steps.
    """

    epochs: int
    learning_rate: float
    batch_size: int = 32

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class EvalReport:
    """Evaluation results; on stacked inputs every field gains a leading
    ``g`` axis (``mean_loss`` and ``accuracy`` become ``(g,)`` arrays)."""

    mean_loss: float | np.ndarray
    accuracy: float | np.ndarray
    per_sample_losses: np.ndarray
    per_sample_grad_norms: np.ndarray | None = None


def init_params(shape_tag: str, seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    _, dims = parse_shape_tag(shape_tag)
    rng = np.random.default_rng(seed)
    values = np.zeros(param_count(shape_tag), dtype=np.float64)
    pos = 0
    for fan_in, fan_out in _layer_sizes(dims):
        bound = 1.0 / np.sqrt(fan_in)
        values[pos : pos + fan_in * fan_out] = rng.uniform(
            -bound, bound, size=fan_in * fan_out
        )
        pos += fan_in * fan_out + fan_out
    return ModelParams(values, shape_tag)


def _check_data(params: ModelParams, *datasets) -> tuple[int, ...]:
    """Parse the shape tag once and check each dataset against it; returns dims."""
    _, dims = parse_shape_tag(params.shape_tag)
    for data in datasets:
        if data.num_samples == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        if data.num_features != dims[0]:
            raise ValueError(
                f"data has {data.num_features} features but shape_tag "
                f"{params.shape_tag!r} expects {dims[0]}"
            )
        if data.num_classes > dims[-1]:
            raise ValueError(
                f"data has {data.num_classes} classes but shape_tag "
                f"{params.shape_tag!r} expects at most {dims[-1]}"
            )
    return dims


def _stacked(params: ModelParams, data):
    """``(V (g, P), X (g, b, f), Y (g, b), stacked)``; unstacked inputs gain a
    leading axis of one, and ``stacked`` says whether either had one.  A stack
    of several models needs stacked data, one block per model."""
    values, x, y = params.values, data.features, data.labels
    stacked = values.ndim == 2 or x.ndim == 3
    if values.ndim == 1:
        values = values[None]
    if x.ndim == 2:
        if len(values) > 1:
            raise ValueError(
                f"{values.shape} parameter stack over unstacked {x.shape} data"
            )
        x, y = x[None], y[None]
    return values, x, y, stacked


def _layers(dims: tuple[int, ...], values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of each layer's weights ``(g, in, out)`` and bias ``(g, 1, out)``."""
    layers, pos = [], 0
    for fan_in, fan_out in _layer_sizes(dims):
        w = values[:, pos : pos + fan_in * fan_out].reshape(-1, fan_in, fan_out)
        pos += fan_in * fan_out
        layers.append((w, values[:, None, pos : pos + fan_out]))
        pos += fan_out
    return layers


def _forward(layers, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits, and the input activation of every layer (``x``, then tanh)."""
    acts = [x]
    w, b = layers[0]
    out = x @ w
    out += b
    for w, b in layers[1:]:
        acts.append(np.tanh(out, out=out))
        out = out @ w
        out += b
    return out, acts


def _at_labels(y: np.ndarray) -> tuple:
    """Index of each sample's true-label entry in the ``(g * b, C)`` reshape
    of a fresh ``(g, b, C)`` array.  A label of ``C`` or more raises
    ``IndexError``; it is never read as the next sample's entry."""
    return np.arange(y.size), y.reshape(-1)


def _output_delta(log_probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    delta = np.exp(log_probs)
    delta.reshape(-1, delta.shape[-1])[_at_labels(y)] -= 1.0
    return delta


def _backward(layers, acts, delta):
    """Yield (input activation, output delta) of each layer, last layer first."""
    for i in range(len(layers) - 1, -1, -1):
        yield acts[i], delta
        if i:
            delta = (delta @ layers[i][0].transpose(0, 2, 1)) * (1.0 - acts[i] ** 2)


def _forward_head(params: ModelParams, data):
    """Check ``data``; the forward pass and softmax head over stacked inputs,
    ``(layers, acts, y, stacked, logits, row_max, shifted, lse)``.  The row
    maximum is taken over a class-major copy, class by class."""
    dims = _check_data(params, data)
    values, x, y, stacked = _stacked(params, data)
    layers = _layers(dims, values)
    logits, acts = _forward(layers, x)
    row_max = np.maximum.reduce(np.ascontiguousarray(logits.transpose(2, 0, 1)))
    shifted = logits - row_max[..., None]
    lse = np.log(np.exp(shifted).sum(axis=-1))
    return layers, acts, y, stacked, logits, row_max, shifted, lse


def evaluate(params: ModelParams, data, want_grad_norms: bool = False) -> EvalReport:
    """Cross-entropy loss, per-sample losses and argmax accuracy on ``data``.

    Per-sample gradient L2 norms (over the full parameter vector) are
    returned only when requested; they cost an extra backward pass.
    """
    layers, acts, y, stacked, logits, row_max, shifted, lse = _forward_head(params, data)
    at_label = shifted.reshape(-1, logits.shape[-1])[_at_labels(y)].reshape(y.shape)
    losses = -(at_label - lse)
    if np.isfinite(row_max).all() and np.count_nonzero(shifted == 0.0) == y.size:
        hits = at_label == 0.0  # each row has one maximum: its argmax
    else:
        hits = np.argmax(logits, axis=-1) == y
    accuracy = hits.sum(axis=-1) / y.shape[-1]
    grad_norms = None
    if want_grad_norms:
        log_probs = shifted - lse[..., None]
        # For a linear layer z = a @ W + b, sample i's gradient is the outer
        # product a_i (x) d_i plus d_i for the bias, so its squared norm is
        # ||d_i||^2 * (||a_i||^2 + 1); layers sum.
        grad_norms = np.sqrt(
            sum(
                (d**2).sum(axis=-1) * ((a**2).sum(axis=-1) + 1.0)
                for a, d in _backward(layers, acts, _output_delta(log_probs, y))
            )
        )
    report = EvalReport(
        # Bitwise np.mean, without its Python wrapper.
        mean_loss=losses.sum(axis=-1) / losses.shape[-1],
        accuracy=accuracy,
        per_sample_losses=losses,
        per_sample_grad_norms=grad_norms,
    )
    if stacked:
        return report
    return EvalReport(
        mean_loss=float(report.mean_loss[0]),
        accuracy=float(report.accuracy[0]),
        per_sample_losses=losses[0],
        per_sample_grad_norms=None if grad_norms is None else grad_norms[0],
    )


def gradient(params: ModelParams, data) -> np.ndarray:
    """Gradient of the mean cross-entropy loss, as a flat vector (one row per
    model on stacked inputs)."""
    layers, acts, y, stacked, _, _, shifted, lse = _forward_head(params, data)
    delta = _output_delta(shifted - lse[..., None], y)
    delta /= y.shape[1]
    parts = []
    for a, d in _backward(layers, acts, delta):
        gw = a.transpose(0, 2, 1) @ d
        parts[:0] = [gw.reshape(gw.shape[0], -1), d.sum(axis=1)]
    grad = np.concatenate(parts, axis=1)
    return grad if stacked else grad[0]


def sgd_epochs(
    params: ModelParams, shards: Sequence, cfg: TrainConfig, seeds: Sequence[int]
) -> ModelParams:
    """Run ``cfg.epochs`` epochs of seeded mini-batch SGD on every shard, each
    model starting from ``params``; returns the ``(g, P)`` stack of trained
    parameters, row ``i`` for ``shards[i]`` trained under ``seeds[i]``.

    Each shard's schedule is drawn as when trained alone (one
    ``permutation(n)`` per epoch from ``default_rng(seed)``) and gathered
    once: row ``i`` of a ``(g, L, f)`` block holds shard ``i``'s epochs back
    to back in that order (a shorter row's padding is never read).  Step
    ``j`` of a model reads samples ``start:start + size`` of its row, and at
    each step the models with the same ``(start, size)`` take one stacked
    gradient step on a slice of the block.
    """
    if len(shards) != len(seeds):
        raise ValueError(f"{len(shards)} shards but {len(seeds)} seeds")
    _check_data(params, *shards)
    lengths = [cfg.epochs * shard.num_samples for shard in shards]
    x = np.empty((len(shards), max(lengths), shards[0].num_features))
    y = np.empty(x.shape[:2], dtype=np.int64)
    steps = []
    for i, (shard, seed) in enumerate(zip(shards, seeds)):
        rng = np.random.default_rng(seed)
        n = shard.num_samples
        batch = min(cfg.batch_size, n)
        schedule = []
        for start in range(0, lengths[i], n):
            order = rng.permutation(n)
            x[i, start : start + n] = shard.features[order]
            y[i, start : start + n] = shard.labels[order]
            schedule += [(start + s, min(batch, n - s)) for s in range(0, n, batch)]
        steps.append(schedule)
    num_classes = max(shard.num_classes for shard in shards)
    values = np.repeat(params.values[None], len(shards), axis=0)
    for step in range(max(len(s) for s in steps)):
        groups = defaultdict(list)
        for i, schedule in enumerate(steps):
            if step < len(schedule):
                groups[schedule[step]].append(i)
        for (start, size), rows in groups.items():
            if rows[-1] - rows[0] == len(rows) - 1:
                rows = slice(rows[0], rows[-1] + 1)  # views, not copies
            window = slice(start, start + size)
            batch = SampleStack(x[rows, window], y[rows, window], num_classes)
            grad = gradient(ModelParams(values[rows], params.shape_tag), batch)
            values[rows] -= cfg.learning_rate * grad
    return ModelParams(values, params.shape_tag)


def grad_check(params: ModelParams, data, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    analytic = gradient(params, data)
    values = params.values
    worst = 0.0
    for i in range(values.size):
        bumped = values.copy()
        bumped[i] += epsilon
        up = evaluate(ModelParams(bumped, params.shape_tag), data).mean_loss
        bumped[i] -= 2.0 * epsilon
        down = evaluate(ModelParams(bumped, params.shape_tag), data).mean_loss
        numeric = (up - down) / (2.0 * epsilon)
        err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst

