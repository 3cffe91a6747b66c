"""Desk-scale differentiable classifiers over flat parameter vectors.

Two architectures are supported, identified by a shape tag:

* ``softmax:<F>x<C>`` -- multinomial logistic regression,
* ``mlp:<F>x<H>x<C>`` -- one tanh hidden layer of width ``H``.

All operations are pure functions of their inputs (including seeds).  Losses
are cross-entropy with natural log; accuracy breaks argmax ties toward the
lowest class index.

Every model function runs one kernel over a *stack* of models: parameters
``(g, P)`` and a ``SampleStack`` of ``g`` sample blocks of any sizes, held
back to back as rows ``(N, f)``.  A single ``ModelParams`` vector with a
``LabeledDataset`` is the ``g = 1`` case (the kernel takes the dataset as a
one-block stack over its own arrays), and a single vector broadcasts over
every block of a stack.  ``SampleStack`` owns the block sizes, their runs of
consecutive equal sizes (found once, when it is built) and the kernel's
per-run operations.  Three kinds of operation stay per run:
each layer's matmul, one stacked ``@`` on ``(g_run, b, .)`` views of the
rows (BLAS results depend on the row count, so one matmul over all rows
would not be bitwise; a shared vector enters every run as one 2-D weight),
each per-model reduction (a sum over each block), and the output delta's
``1/b``.  Everything else runs once per stack, over all ``N`` rows or all
``g`` models: the bias add (each model's bias repeated over its rows),
tanh, the softmax head, the label gather, the output delta, and the
division of per-model sums into means.  An equal-size stack is a single run,
kept as ``(g, b, .)`` blocks, so each layer is one plain stacked ``@``
without a per-run loop (paired benchmark runs measured that loop's overhead
on equal-size cohorts).  Each model's results are bitwise equal to running
it alone.
``sgd_epochs`` takes the cohort as row ranges of one dataset and builds
every step's stack once per call: a slice of the cohort's schedule, gathered
from that dataset by global row index (checked once), its runs and its
one-hot targets;
``gradient`` subtracts the targets, bitwise ``delta[i, y_i] -= 1.0``.
One function, ``_layers``, maps a flat ``(g, P)`` block to per-layer views:
parameters are read through them, ``gradient`` writes each layer's gradient
through them and ``init_params`` draws each weight matrix into them.

``evaluate`` and ``gradient`` share the forward pass up to the last matmul.
``evaluate``'s softmax head is class-major: one ``(C, ...)`` copy of the
logits (adding the bias as it copies), whose row maximum, shift, ``exp`` and
class sum run over whole class rows.  ``_class_sum`` adds them in the order
``np.add.reduce`` sums a contiguous class axis, which a test pins for every
class count up to 300; the label gather reads ``SampleStack.label_index``.
A row's hit is ``shifted[label] == 0.0`` when every row maximum is finite and
each row has one exact zero, else ``argmax`` (lowest-index ties).
``gradient`` keeps a row-major head: its backward reads a row-major delta,
and the class-major head plus a transpose measured slower per SGD step.
Both are bitwise a row-wise log-softmax and argmax.  ``evaluate`` returns
per-row arrays; each caller reduces what it reads (the server the test
split's means, utility measurement each block's RMS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Evaluation",
    "ModelParams",
    "SampleStack",
    "TrainConfig",
    "softmax_tag",
    "mlp_tag",
    "parse_shape_tag",
    "resolve_shape_tag",
    "param_count",
    "init_params",
    "evaluate",
    "gradient",
    "sgd_epochs",
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


@cache
def param_count(tag: str) -> int:
    _, dims = parse_shape_tag(tag)
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims, dims[1:]))


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


@dataclass(frozen=True)
class SampleStack:
    """Sample blocks of any sizes, one per stacked model, held back to back,
    and the kernel's operations over them.

    ``features`` is ``(N, f)`` and ``labels`` is ``(N,)``; model ``i``'s
    block is the ``sizes[i]`` rows after those of the models before it, and
    ``num_samples`` is ``N = sum(sizes)``.  ``runs`` splits the models into
    runs of consecutive equal sizes, each as ``(models, rows, size)``: slices
    of the model axis and of the row axis, and the run's block size.  A
    negative label raises ``ValueError`` (the label lookup would read it
    from the end of the row).  ``targets`` is ``None`` or, in the stacks of
    ``sgd_epochs``' steps, the labels as one-hot rows at the model's classes.
    """

    features: np.ndarray
    labels: np.ndarray
    sizes: tuple[int, ...]
    num_classes: int
    runs: tuple[tuple[slice, slice, int], ...] = field(init=False, repr=False, compare=False)
    targets: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        runs, first, row = [], 0, 0
        for end in range(1, len(self.sizes) + 1):
            if end == len(self.sizes) or self.sizes[end] != self.sizes[first]:
                size = self.sizes[first]
                runs.append((slice(first, end), slice(row, row + (end - first) * size), size))
                row += (end - first) * size
                first = end
        if not runs or min(self.sizes) < 1 or row != len(self.labels):
            raise ValueError(f"block sizes {self.sizes} for {len(self.labels)} samples")
        if self.labels.min() < 0:
            raise ValueError(f"negative label {self.labels.min()} in a sample stack")
        object.__setattr__(self, "runs", tuple(runs))

    @classmethod
    def _checked(cls, features, labels, sizes, num_classes, runs, targets) -> "SampleStack":
        """A stack over rows whose labels the caller has checked, with the
        ``runs`` of a checked stack of the same ``sizes``: skips the checks."""
        stack = object.__new__(cls)
        vars(stack).update(
            features=features, labels=labels, sizes=sizes, num_classes=num_classes,
            runs=runs, targets=targets,
        )
        return stack

    @property
    def num_samples(self) -> int:
        return self.labels.size

    @property
    def num_features(self) -> int:
        return self.features.shape[-1]

    def kernel_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The features and labels as the kernel holds every per-row array:
        ``(g, b, .)`` blocks for a single run (so an equal-size stack makes
        one plain stacked ``@`` per layer), else the ``(N, .)`` rows."""
        if len(self.runs) == 1:
            g = len(self.sizes)
            return self.features.reshape(g, self.sizes[0], -1), self.labels.reshape(g, -1)
        return self.features, self.labels

    def block_means(self, per_row: np.ndarray) -> np.ndarray:
        """Each block's mean of its entries of ``per_row`` (one value per
        row, ``(N,)`` or ``(g, b)``), bitwise ``np.mean`` of the block alone:
        one reduction per run, and one division for the whole stack."""
        if len(self.runs) == 1:
            return np.add.reduce(per_row.reshape(len(self.sizes), -1), axis=1) / self.sizes[0]
        means = np.empty(len(self.sizes))
        for models, rows, size in self.runs:
            np.add.reduce(per_row[rows].reshape(-1, size), axis=1, out=means[models])
        means /= self.sizes
        return means

    def _views(self, a: np.ndarray, b: np.ndarray):
        """Per run: its model slice and ``(g_run, size, k)`` views of the
        per-row arrays ``a`` and ``b``."""
        for models, rows, size in self.runs:
            yield models, a[rows].reshape(-1, size, a.shape[1]), b[rows].reshape(-1, size, b.shape[1])

    def matmul(self, a: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Per-row ``a`` times each model's ``w`` ``(g, in, out)``; a ``w`` of
        one row is shared by every model.  One stacked ``@`` per run."""
        if len(self.runs) == 1:
            return a @ w
        out = np.empty((len(a), w.shape[-1]))
        shared = len(w) == 1
        for models, a_run, out_run in self._views(a, out):
            np.matmul(a_run, w[0] if shared else w[models], out=out_run)
        return out

    def row_bias(self, bias: np.ndarray) -> np.ndarray:
        """Each model's ``bias`` ``(g, out)`` over its rows, broadcastable to
        the kernel layout (at its rank); a ``bias`` of one row is shared."""
        if len(self.runs) == 1:
            return bias[:, None]
        shared = len(bias) == 1
        return bias if shared else np.repeat(bias, self.sizes, axis=0)

    @cached_property
    def label_index(self) -> np.ndarray:
        """Each row's label entry in the flat class-major ``(C, N)`` layout
        of ``evaluate``'s head, ``label * N + row``: a label of ``C`` or more
        lies past the end and raises ``IndexError``.  Built on first read."""
        n = self.num_samples
        return self.labels * n + np.arange(n)

    def layer_gradient(
        self, a: np.ndarray, d: np.ndarray, gw: np.ndarray, gb: np.ndarray
    ) -> None:
        """Write a linear layer's weight and bias gradients into ``gw``
        ``(g, in, out)`` and ``gb`` ``(g, out)``, from its per-row input ``a``
        and output delta ``d``: each model's ``a.T @ d`` and sum of ``d``,
        one of each per run."""
        views = [(slice(None), a, d)] if len(self.runs) == 1 else self._views(a, d)
        for models, a_run, d_run in views:
            np.matmul(a_run.transpose(0, 2, 1), d_run, out=gw[models])
            np.add.reduce(d_run, axis=1, out=gb[models])


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


class Evaluation(NamedTuple):
    """What ``evaluate`` returns, each a flat ``(N,)`` array over the data's
    rows: cross-entropy losses, argmax hits (the row's argmax is its label)
    and, when requested, per-sample gradient L2 norms (else ``None``)."""

    per_sample_losses: np.ndarray
    per_sample_hits: np.ndarray
    per_sample_grad_norms: np.ndarray | None


def init_params(shape_tag: str, seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    _, dims = parse_shape_tag(shape_tag)
    rng = np.random.default_rng(seed)
    values = np.zeros((1, param_count(shape_tag)))
    for w, _ in _layers(dims, values):
        bound = 1.0 / np.sqrt(w.shape[1])
        w[0] = rng.uniform(-bound, bound, size=w.shape[1:])
    return ModelParams(values[0], shape_tag)


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
    """``(V, stack, X, Y)``: the parameters (one row per block, or one row
    that broadcasts over every block), the data as a sample stack (an
    unstacked dataset is one block over its own arrays), and the features
    and labels in the stack's kernel layout.  Any parameter stack of more
    than one row needs one row per block."""
    values = params.values.reshape(-1, params.values.shape[-1])  # a vector is a stack of one
    stack = data
    if not isinstance(data, SampleStack):
        stack = SampleStack(data.features, data.labels, (data.num_samples,), data.num_classes)
    g = len(stack.sizes)
    if len(values) not in (1, g):
        over = "sample blocks" if stack is data else "unstacked"
        raise ValueError(f"{values.shape} parameter stack over {over} {data.features.shape} data")
    return values, stack, *stack.kernel_layout()


def _layers(dims: tuple[int, ...], values: np.ndarray) -> list:
    """Per layer, views of the weights ``(g, in, out)`` and biases ``(g, out)``
    of a ``(g, P)`` block, whose rows hold each layer's ``W``, then its ``b``."""
    layers, pos = [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        w = values[:, pos : pos + fan_in * fan_out].reshape(-1, fan_in, fan_out)
        pos += fan_in * fan_out
        layers.append((w, values[:, pos : pos + fan_out]))
        pos += fan_out
    return layers


def _forward(params: ModelParams, data):
    """Check ``data``; the forward pass over stacked inputs up to the last
    layer's matmul, ``(dims, stack, layers, acts, y, out)``: the input activation
    of every layer (``x``, then tanh) and the last layer's output ``out``
    without its bias, which each head adds in the layout it works in."""
    dims = _check_data(params, data)
    values, stack, x, y = _stacked(params, data)
    layers = _layers(dims, values)
    acts = [x]
    out = stack.matmul(x, layers[0][0])
    for (_, b), (w, _) in zip(layers, layers[1:]):
        out += stack.row_bias(b)
        acts.append(np.tanh(out, out=out))
        out = stack.matmul(out, w)
    return dims, stack, layers, acts, y, out


def _class_sum(rows: np.ndarray) -> np.ndarray:
    """The sum over the class rows of a ``(C, ...)`` array, bitwise numpy's
    pairwise sum along a contiguous class axis: below 8 terms in order, up
    to 128 in 8 accumulators, their fixed tree, then the rest in order, and
    more by halves.  Each block adds the identity ``0.0`` (numpy adds it
    once; either way a sum of only ``-0.0`` is ``0.0``)."""
    c = len(rows)
    if c > 128:
        half = c // 2 - c // 2 % 8
        return _class_sum(rows[:half]) + _class_sum(rows[half:])
    if c < 8:
        total, rest = rows[0] + 0.0, rows[1:]
    else:
        blocks = c - c % 8
        acc = rows[:8] + rows[8:16] if blocks > 8 else rows[:8]  # a new array when looped
        for i in range(16, blocks, 8):
            acc += rows[i : i + 8]
        pairs = acc[::2] + acc[1::2]  # (r0 + r1), (r2 + r3), (r4 + r5), (r6 + r7)
        quads = pairs[::2]
        quads += pairs[1::2]
        total, rest = quads[0], rows[blocks:]
        total += quads[1]
        total += 0.0
    for row in rest:
        total += row
    return total


def _backward(layers, stack: SampleStack, acts, delta):
    """Yield (input activation, output delta) of each layer, last layer first."""
    for i in range(len(layers) - 1, -1, -1):
        yield acts[i], delta
        if i:
            delta = stack.matmul(delta, layers[i][0].transpose(0, 2, 1)) * (1.0 - acts[i] ** 2)


def evaluate(params: ModelParams, data, want_grad_norms: bool = False) -> Evaluation:
    """Per-sample cross-entropy losses and argmax hits on ``data``.

    Per-sample gradient L2 norms (over the full parameter vector) are
    returned only when requested; they cost an extra backward pass.
    """
    _, stack, layers, acts, y, out = _forward(params, data)
    # The class-major head: one (C, ...) copy of the logits, plus the bias.
    classes_first = (-1, *range(out.ndim - 1))
    bias = stack.row_bias(layers[-1][1])
    shifted = np.add(out.transpose(classes_first), bias.transpose(classes_first), order="C")
    row_max = np.maximum.reduce(shifted)
    shifted -= row_max
    lse = np.log(_class_sum(np.exp(shifted)))
    at_label = shifted.reshape(-1)[stack.label_index]
    losses = -(at_label - lse.reshape(-1))
    if np.isfinite(row_max).all() and np.count_nonzero(shifted == 0.0) == y.size:
        hits = at_label == 0.0  # each row has one maximum: its argmax
    else:
        hits = (np.argmax(out + bias, axis=-1) == y).reshape(-1)
    grad_norms = None
    if want_grad_norms:
        delta = np.exp(shifted - lse)
        delta.reshape(-1)[stack.label_index] -= 1.0
        delta = np.ascontiguousarray(delta.transpose(*range(1, out.ndim), 0))
        # For a linear layer z = a @ W + b, sample i's gradient is the outer
        # product a_i (x) d_i plus d_i for the bias, so its squared norm is
        # ||d_i||^2 * (||a_i||^2 + 1); layers sum.
        grad_norms = np.sqrt(
            sum(
                (d**2).sum(axis=-1) * ((a**2).sum(axis=-1) + 1.0)
                for a, d in _backward(layers, stack, acts, delta)
            )
        ).reshape(-1)
    return Evaluation(losses, hits, grad_norms)


def gradient(params: ModelParams, data) -> np.ndarray:
    """Gradient of each model's mean cross-entropy loss: a ``(g, P)`` stack,
    one row per model (one row for a single parameter vector and dataset).
    Its head works row-major, the layout the backward pass reads."""
    dims, stack, layers, acts, y, logits = _forward(params, data)
    logits += stack.row_bias(layers[-1][1])
    class_major = logits.transpose(-1, *range(logits.ndim - 1))
    row_max = np.maximum.reduce(np.ascontiguousarray(class_major))
    shifted = logits - row_max[..., None]
    lse = np.log(np.add.reduce(np.exp(shifted), axis=-1))
    delta = np.exp(shifted - lse[..., None])
    delta_rows = delta.reshape(-1, delta.shape[-1])
    # Bitwise delta[i, y_i] -= 1.0; a label of C or more raises IndexError.
    targets = stack.targets
    delta_rows -= np.eye(delta.shape[-1]).take(y.reshape(-1), axis=0) if targets is None else targets
    for _, rows, size in stack.runs:  # each model's loss is the mean over its block
        np.divide(delta_rows[rows], size, out=delta_rows[rows])
    grad = np.empty((len(stack.sizes), params.values.shape[-1]))
    views = reversed(_layers(dims, grad))  # last layer first, as _backward yields
    for (gw, gb), (a, d) in zip(views, _backward(layers, stack, acts, delta)):
        stack.layer_gradient(a, d, gw, gb)
    return grad


def sgd_epochs(
    params: ModelParams,
    data,
    starts: Sequence[int],
    counts: Sequence[int],
    cfg: TrainConfig,
    seeds: Sequence[int],
) -> ModelParams:
    """Run ``cfg.epochs`` epochs of seeded mini-batch SGD on every shard, each
    model starting from ``params``; returns the ``(g, P)`` stack of trained
    parameters, row ``i`` for the shard of ``counts[i]`` rows of ``data``
    from row ``starts[i]``, trained under ``seeds[i]``.

    Each shard's schedule is drawn as when trained alone (one
    ``permutation(n)`` per epoch from ``default_rng(seed)``), shifted to the
    shard's rows of ``data`` and gathered once, straight from ``data``,
    step-major: step ``j``'s batches of every model still training lie back
    to back in one sample array.  The models train in order of decreasing
    shard size, so those still training at any step are a prefix of the
    stack, and at each step they take one stacked gradient step on that
    step's ragged ``SampleStack``, sliced from the array and its one-hot
    targets.  A row range outside ``data`` raises ``ValueError``, as does a
    negative label; one of ``C`` or more raises ``IndexError``.
    """
    if not len(starts) == len(counts) == len(seeds):
        raise ValueError(f"{len(starts)} starts, {len(counts)} counts but {len(seeds)} seeds")
    dims = _check_data(params, data)
    ends = [start + n for start, n in zip(starts, counts)]
    if len(counts) == 0 or min(counts) < 1 or min(starts) < 0 or max(ends) > data.num_samples:
        raise ValueError(f"row ranges {list(zip(starts, ends))} of {data.num_samples} samples")
    order = sorted(range(len(counts)), key=counts.__getitem__, reverse=True)  # stable
    steps: list[list[np.ndarray]] = []  # per step, each training model's batch
    for i in order:
        rng = np.random.default_rng(seeds[i])
        n = counts[i]
        batch = min(cfg.batch_size, n)
        step = 0
        for _ in range(cfg.epochs):
            perm = rng.permutation(n) + starts[i]
            for start in range(0, n, batch):
                if step == len(steps):
                    steps.append([])
                steps[step].append(perm[start : start + batch])
                step += 1
    index = np.concatenate([rows for step in steps for rows in step])
    x = data.features.take(index, axis=0)
    y = data.labels.take(index)
    if y.min() < 0:
        raise ValueError(f"negative label {y.min()} in a shard")
    num_classes = data.num_classes
    targets = np.eye(dims[-1]).take(y, axis=0)  # a label of C or more raises IndexError
    values = np.repeat(params.values[None], len(counts), axis=0)
    models = {g: ModelParams(values[:g], params.shape_tag) for g in {len(step) for step in steps}}
    runs, end = {}, 0
    for step in steps:
        sizes = tuple(map(len, step))
        start, end = end, end + sum(sizes)
        if sizes not in runs:  # found by one checked stack per distinct step sizes
            runs[sizes] = SampleStack(x[start:end], y[start:end], sizes, num_classes).runs
        batch = SampleStack._checked(
            x[start:end], y[start:end], sizes, num_classes, runs[sizes], targets[start:end]
        )
        model = models[len(sizes)]
        grad = gradient(model, batch)
        grad *= cfg.learning_rate
        active = model.values  # a view of the models still training
        active -= grad
        del grad  # freed before the next step's gradient is allocated
    if order != sorted(order):
        values[order] = values.copy()
    return ModelParams(values, params.shape_tag)
