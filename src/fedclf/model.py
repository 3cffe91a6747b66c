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
alone.

Parameter files (``FEDW v1``): one ASCII header line
``FEDW v1 <shape_tag> <len>\\n`` followed by ``len`` little-endian float64
values.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from pathlib import Path
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
    "save_params",
    "load_params",
]


def softmax_tag(num_features: int, num_classes: int) -> str:
    return f"softmax:{num_features}x{num_classes}"


def mlp_tag(num_features: int, hidden: int, num_classes: int) -> str:
    return f"mlp:{num_features}x{hidden}x{num_classes}"


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
    ``num_samples`` counts all ``g * b`` samples.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

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
    """Local-training knobs.

    ``batch_size`` is clamped to the local sample count, so any value at or
    above it requests full-batch gradient steps.
    """

    epochs: int
    learning_rate: float
    batch_size: int = 32
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class EvalReport:
    """Evaluation results; on stacked inputs every field gains a leading
    ``g`` axis (``mean_loss`` and ``accuracy`` become ``(g,)`` arrays)."""

    mean_loss: float | np.ndarray
    accuracy: float | np.ndarray
    per_sample_losses: np.ndarray | None = None
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
    leading axis of one, and ``stacked`` says whether either had one."""
    values, x, y = params.values, data.features, data.labels
    stacked = values.ndim == 2 or x.ndim == 3
    if values.ndim == 1:
        values = values[None]
    if x.ndim == 2:
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
    out = x @ w + b
    for w, b in layers[1:]:
        acts.append(np.tanh(out))
        out = acts[-1] @ w + b
    return out, acts


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _at_labels(y: np.ndarray) -> tuple:
    """Index selecting each sample's true-label entry of a ``(g, b, C)`` array."""
    return np.arange(y.shape[0])[:, None], np.arange(y.shape[1]), y


def _output_delta(log_probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    delta = np.exp(log_probs)
    delta[_at_labels(y)] -= 1.0
    return delta


def _backward(layers, acts, delta):
    """Yield (input activation, output delta) of each layer, last layer first."""
    for i in range(len(layers) - 1, -1, -1):
        yield acts[i], delta
        if i:
            delta = (delta @ layers[i][0].transpose(0, 2, 1)) * (1.0 - acts[i] ** 2)


def evaluate(
    params: ModelParams,
    data,
    want_per_sample: bool = False,
    want_grad_norms: bool = False,
) -> EvalReport:
    """Cross-entropy loss and argmax accuracy on ``data``.

    Per-sample losses and per-sample gradient L2 norms (over the full
    parameter vector) are returned only when requested; gradient norms cost
    an extra backward pass.
    """
    dims = _check_data(params, data)
    values, x, y, stacked = _stacked(params, data)
    layers = _layers(dims, values)
    logits, acts = _forward(layers, x)
    log_probs = _log_softmax(logits)
    losses = -log_probs[_at_labels(y)]
    accuracy = (np.argmax(logits, axis=-1) == y).sum(axis=-1) / y.shape[-1]
    grad_norms = None
    if want_grad_norms:
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
        per_sample_losses=losses if want_per_sample else None,
        per_sample_grad_norms=grad_norms,
    )
    if stacked:
        return report
    return EvalReport(
        mean_loss=float(report.mean_loss[0]),
        accuracy=float(report.accuracy[0]),
        per_sample_losses=losses[0] if want_per_sample else None,
        per_sample_grad_norms=None if grad_norms is None else grad_norms[0],
    )


def gradient(params: ModelParams, data) -> np.ndarray:
    """Gradient of the mean cross-entropy loss, as a flat vector (one row per
    model on stacked inputs)."""
    dims = _check_data(params, data)
    values, x, y, stacked = _stacked(params, data)
    layers = _layers(dims, values)
    logits, acts = _forward(layers, x)
    delta = _output_delta(_log_softmax(logits), y) / x.shape[1]
    parts = []
    for a, d in _backward(layers, acts, delta):
        gw = a.transpose(0, 2, 1) @ d
        parts[:0] = [gw.reshape(gw.shape[0], -1), d.sum(axis=1)]
    grad = np.concatenate(parts, axis=1)
    return grad if stacked else grad[0]


def _batches(data, cfg: TrainConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """One shard's seeded mini-batch schedule over all epochs."""
    rng = np.random.default_rng(cfg.rng_seed)
    n = data.num_samples
    batch = min(cfg.batch_size, n)
    out = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        x, y = data.features[perm], data.labels[perm]
        out.extend((x[s : s + batch], y[s : s + batch]) for s in range(0, n, batch))
    return out


def sgd_epochs(params: ModelParams, data, cfg: TrainConfig) -> ModelParams:
    """Run ``cfg.epochs`` epochs of seeded mini-batch SGD; returns new params.

    ``data`` and ``cfg`` may instead be equal-length sequences, one shard and
    config per model (a cohort).  Every model then starts from ``params``,
    keeps its own batch schedule, and at each step the models whose batches
    have the same size take one stacked gradient step; the result is the
    ``(g, P)`` stack of trained parameters.
    """
    if isinstance(cfg, TrainConfig):
        trained = sgd_epochs(params, [data], [cfg])
        return ModelParams(trained.values[0], params.shape_tag)
    if len(data) != len(cfg):
        raise ValueError(f"{len(data)} shards but {len(cfg)} train configs")
    _check_data(params, *data)
    schedules = [_batches(shard, c) for shard, c in zip(data, cfg)]
    rates = np.array([c.learning_rate for c in cfg])
    num_classes = max(shard.num_classes for shard in data)
    values = np.tile(params.values, (len(data), 1))
    for step in range(max(len(s) for s in schedules)):
        by_size = defaultdict(list)
        for i, schedule in enumerate(schedules):
            if step < len(schedule):
                by_size[len(schedule[step][1])].append(i)
        for rows in by_size.values():
            batch = SampleStack(
                _stack([schedules[i][step][0] for i in rows]),
                _stack([schedules[i][step][1] for i in rows]),
                num_classes,
            )
            if rows[-1] - rows[0] == len(rows) - 1:
                rows = slice(rows[0], rows[-1] + 1)  # a view, not a copy
            grad = gradient(ModelParams(values[rows], params.shape_tag), batch)
            values[rows] = values[rows] - rates[rows, None] * grad
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


def save_params(params: ModelParams, path: str | Path) -> None:
    header = f"FEDW v1 {params.shape_tag} {params.values.size}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(params.values.astype("<f8").tobytes())


def load_params(path: str | Path) -> ModelParams:
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n", 0, 256)
    if newline < 0:
        raise ValueError(f"{path}: missing FEDW header")
    fields = raw[:newline].decode("ascii").split(" ")
    if len(fields) != 4 or fields[0] != "FEDW" or fields[1] != "v1":
        raise ValueError(f"{path}: bad FEDW header {raw[:newline]!r}")
    tag, length = fields[2], int(fields[3])
    body = raw[newline + 1 :]
    if len(body) != length * 8:
        raise ValueError(
            f"{path}: expected {length * 8} body bytes, found {len(body)}"
        )
    values = np.frombuffer(body, dtype="<f8").copy()
    return ModelParams(values, tag)
