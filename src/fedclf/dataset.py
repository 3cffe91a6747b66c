"""Datasets, heterogeneity-controlled partitioning, and the label-skew report.

Client shards are produced by sorting the training set by label, cutting it
into shards of a configurable size ``S``, shuffling the shards, and dealing
them to clients.  Large shards concentrate few classes per client; ``S=1``
degenerates to a uniform random split.  The deal is computed as one
client-ordered index into the dealt rows, and the data is gathered through it
once into one read-only dataset.  The result is a ``Shards``: that dataset
and the ``K + 1`` offsets of its clients' consecutive row ranges, client
``i``'s id being ``i``.  No per-client object is kept; a client's view is
built when it is read.  Skew is quantified per client as the L1 distance
between its label distribution and that of the dealt shards pooled (the
label distribution of the rows dealt, which the deal keeps).

File format (``FEDDS v1``): one ASCII header line
``FEDDS v1 <num_samples> <num_features> <num_classes>\\n`` followed, per
sample, by ``num_features`` little-endian float32 values and one
little-endian uint32 label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigurationError",
    "DatasetFormatError",
    "LabeledDataset",
    "Shards",
    "PartitionSpec",
    "SplitMode",
    "partition",
    "make_synthetic",
    "split_train_test",
    "load_dataset",
    "save_dataset",
    "partition_report",
]

_MAGIC = "FEDDS"
_VERSION = "v1"
_MAX_HEADER_BYTES = 256


class ConfigurationError(ValueError):
    """A partition or experiment request that cannot be satisfied."""


class DatasetFormatError(ValueError):
    """A dataset file that does not match the FEDDS v1 layout."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class SplitMode(str, Enum):
    EQUAL = "equal"
    NONEQUAL = "nonequal"


@dataclass(frozen=True)
class LabeledDataset:
    """A feature matrix with integer class labels in ``[0, num_classes)``."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels length {labels.shape} does not match "
                f"{features.shape[0]} feature rows"
            )
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """The rows at integer ``indices``, gathered in their order.  Any
        other index (a boolean mask, a float) raises ``TypeError``."""
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            raise TypeError(f"row indices must be integers, got dtype {indices.dtype}")
        # np.take copies whole rows faster than fancy indexing does.
        return LabeledDataset(
            np.take(self.features, indices, axis=0), np.take(self.labels, indices), self.num_classes
        )


@dataclass(frozen=True)
class Shards:
    """Every client's shard as a row range of one dataset: client ``i``
    holds rows ``offsets[i]`` to ``offsets[i + 1]`` of ``data``.

    ``offsets`` has ``K + 1`` entries, from 0 to the rows of ``data``.  It
    is checked once, when built, that every count is at least one and that
    the counts cover the rows; ``n_k`` holds the counts.  Both are
    read-only int64 arrays.  ``shards[i]`` is client ``i``'s read-only view
    of ``data``, built on each read; iterating yields every client's.
    """

    data: LabeledDataset
    offsets: np.ndarray
    n_k: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        offsets = np.array(self.offsets, dtype=np.int64).reshape(-1)
        n_k = np.diff(offsets)
        total = self.data.num_samples
        if not n_k.size or offsets[0] != 0 or n_k.min() < 1 or offsets[-1] != total:
            start = f" from row {offsets[0]}" if offsets.size and offsets[0] else ""
            raise ValueError(f"shard sizes {n_k.tolist()}{start} for {total} samples")
        offsets.flags.writeable = n_k.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "n_k", n_k)

    def __len__(self) -> int:
        return self.n_k.size

    def __getitem__(self, i: int) -> LabeledDataset:
        i = range(len(self))[i]  # an IndexError past either end
        start, end = self.offsets[i], self.offsets[i + 1]
        features, labels = self.data.features[start:end], self.data.labels[start:end]
        features.flags.writeable = labels.flags.writeable = False
        # A range of a checked dataset passes every check, so none is rerun.
        view = object.__new__(LabeledDataset)
        view.__dict__.update(features=features, labels=labels, num_classes=self.data.num_classes)
        return view


@dataclass(frozen=True)
class PartitionSpec:
    """How to deal a dataset to ``num_clients`` clients.

    ``shard_size`` controls heterogeneity: the label-sorted data is cut into
    shards of this size before shuffling.  ``min_fraction`` applies to
    non-equal splits only and bounds every client's share from below at
    ``min_fraction * (total / num_clients)`` samples, capped at
    ``total // num_clients`` (the most every client can have at once).
    """

    shard_size: int
    split_mode: SplitMode
    num_clients: int
    min_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.shard_size < 1:
            raise ValueError("shard_size must be positive")
        if self.num_clients < 1:
            raise ValueError("num_clients must be positive")
        if not 0.0 < self.min_fraction <= 1.0:
            raise ValueError("min_fraction must lie in (0, 1]")


def _nonequal_counts(total: int, spec: PartitionSpec, rng) -> np.ndarray:
    """Per-client sample counts: random weights, floored, summing to total."""
    k = spec.num_clients
    floor = math.ceil(spec.min_fraction * total / k)
    floor = max(1, min(floor, total // k))
    weights = spec.min_fraction + (1.0 - spec.min_fraction) * rng.random(k)
    raw = total * weights / weights.sum()
    counts = np.maximum(floor, np.floor(raw).astype(np.int64))
    diff = total - int(counts.sum())
    if diff > 0:
        # Hand out the surplus to the largest fractional remainders.
        remainders = raw - np.floor(raw)
        counts[np.argsort(-remainders, kind="stable")[:diff]] += 1
    while diff < 0:
        idx = int(np.argmax(counts))
        take = min(-diff, counts[idx] - floor)
        if take <= 0:
            raise ConfigurationError(
                f"cannot satisfy min_fraction={spec.min_fraction} with "
                f"{total} samples over {k} clients"
            )
        counts[idx] -= take
        diff += take
    return counts


def partition(
    dataset: LabeledDataset, spec: PartitionSpec, rows: np.ndarray | None = None
) -> Shards:
    """Deal ``rows`` of ``dataset`` (all of it when ``None``) to
    ``spec.num_clients`` clients via sort-and-shard.

    The label-sorted data is cut into shards of ``shard_size`` (a trailing
    short shard when it does not divide the total), laid out as the rows of
    one padded index grid, and the rows are shuffled.  Equal mode deals whole
    shuffled shards round-robin (shard ``p`` to client ``p % num_clients``)
    and then the samples of any leftover shards one by one (sample ``j`` to
    client ``j % num_clients``), so client sizes differ by at most one shard
    and are exactly ``total // num_clients`` whenever the number of clients
    divides the number of shards.  Non-equal mode cuts the shuffled shard
    sequence into contiguous blocks whose sizes follow seeded random weights,
    floored at ``min_fraction * (total / num_clients)`` (at most
    ``total // num_clients``).

    Either way the deal is one client-ordered index into the dealt rows.  It
    is composed with ``rows``, so features and labels are gathered once,
    straight from ``dataset``, into read-only arrays, and client ``i`` holds
    its consecutive row range of them (see ``Shards``).
    Dealing ``rows`` gives the shards of ``partition(dataset.subset(rows),
    spec)`` bit for bit, without the subset's copy.  The union of client
    samples is always exactly the multiset of the dealt rows, and the result
    is a pure function of ``(dataset, spec, rows)`` including ``spec.seed``.
    """
    labels = dataset.labels if rows is None else dataset.labels[rows]
    total = labels.size
    k, size = spec.num_clients, spec.shard_size
    if total == 0:
        raise ValueError("cannot partition an empty dataset")
    if total < k:
        raise ConfigurationError(f"{total} samples cannot cover K={k} clients")
    num_shards = math.ceil(total / size)
    if num_shards < k:
        raise ConfigurationError(
            f"shard_size S={size} yields only {num_shards} shards "
            f"for K={k} clients (total samples: {total})"
        )
    rng = np.random.default_rng(spec.seed)
    grid = np.full(num_shards * size, -1, dtype=np.int64)
    # numpy radix-sorts int16 keys (timsort for int64); the stable order of
    # equal labels is the same either way.
    keys = labels.astype(np.int16) if dataset.num_classes <= 2**15 else labels
    grid[:total] = np.argsort(keys, kind="stable")
    dealt = grid.reshape(num_shards, size)[rng.permutation(num_shards)].ravel()
    present = dealt >= 0
    index = dealt[present]

    if spec.split_mode is SplitMode.EQUAL:
        # Shard p goes to client p % k, then leftover sample j to client j % k;
        # one stable sort by client keeps each client's samples in deal order.
        whole = num_shards // k * k * size
        client = np.repeat(np.arange(num_shards) % k, size)
        leftover = present[whole:]
        client[whole:][leftover] = np.arange(np.count_nonzero(leftover)) % k
        client = client[present]
        index = index[np.argsort(client, kind="stable")]
        counts = np.bincount(client, minlength=k)
    else:
        counts = _nonequal_counts(total, spec, rng)

    if rows is not None:
        index = rows[index]
    # np.take copies whole rows faster than fancy indexing does.
    features = np.take(dataset.features, index, axis=0)
    labels = np.take(dataset.labels, index)
    features.flags.writeable = labels.flags.writeable = False
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return Shards(LabeledDataset(features, labels, dataset.num_classes), offsets)


def make_synthetic(
    num_samples: int,
    num_features: int,
    num_classes: int,
    seed: int,
    cluster_spread: float = 1.0,
) -> LabeledDataset:
    """Class-conditional Gaussian clusters with balanced classes.

    Class means are drawn from a standard normal; samples add isotropic noise
    of scale ``cluster_spread``.  Labels cycle through the classes so each
    class count is within one of ``num_samples / num_classes``.  Deterministic
    given ``seed``.
    """
    if num_samples < 1 or num_features < 1 or num_classes < 1:
        raise ValueError("num_samples, num_features and num_classes must be positive")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, size=(num_classes, num_features))
    labels = np.arange(num_samples, dtype=np.int64) % num_classes
    # normal(0.0, 1.0) would give 0.0 + 1.0 * z for the same draws z, which only
    # turns a -0.0 into +0.0; scaled and added to a mean, which is never -0.0,
    # either zero gives the same bits.
    features = rng.standard_normal((num_samples, num_features))
    # In place, one dataset-sized array: the bits of means[labels] + spread * noise,
    # adding the means one whole cycle of classes at a time, then the leftover rows.
    features *= cluster_spread
    rest = num_samples % num_classes
    whole = num_samples - rest
    cycles = features[:whole].reshape(-1, num_classes, num_features)
    cycles += means
    features[whole:] += means[:rest]
    return LabeledDataset(features, labels, num_classes)


def split_train_test(
    dataset: LabeledDataset, test_fraction: float, seed: int
) -> tuple[np.ndarray, LabeledDataset]:
    """Seeded random split: the training rows as an int64 index, and the test
    split gathered from ``dataset``.

    One seeded permutation of the rows: its first ``round(n * test_fraction)``
    rows are the test split, the rest are the training rows.  Those are not
    copied here: ``partition(dataset, spec, rows)`` gathers them once.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.num_samples)
    n_test = int(round(dataset.num_samples * test_fraction))
    if n_test < 1 or n_test >= dataset.num_samples:
        raise ValueError("test_fraction leaves an empty split")
    return perm[n_test:], dataset.subset(perm[:n_test])


def save_dataset(dataset: LabeledDataset, path: str | Path) -> None:
    """Write ``dataset`` in FEDDS v1 format (features stored as float32)."""
    header = (
        f"{_MAGIC} {_VERSION} {dataset.num_samples} "
        f"{dataset.num_features} {dataset.num_classes}\n"
    )
    record = np.dtype(
        [("x", "<f4", (dataset.num_features,)), ("y", "<u4")]
    )
    body = np.empty(dataset.num_samples, dtype=record)
    body["x"] = dataset.features.astype("<f4")
    body["y"] = dataset.labels.astype("<u4")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(body.tobytes())


def _parse_header(raw: bytes) -> tuple[int, int, int, int]:
    newline = raw.find(b"\n", 0, _MAX_HEADER_BYTES)
    if newline < 0:
        raise DatasetFormatError("missing header line", 0)
    try:
        text = raw[:newline].decode("ascii")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError("header is not ASCII", exc.start) from None
    fields = text.split(" ")
    if len(fields) != 5 or fields[0] != _MAGIC or fields[1] != _VERSION:
        raise DatasetFormatError(f"bad header {text!r}", 0)
    try:
        num_samples, num_features, num_classes = (int(f) for f in fields[2:])
    except ValueError:
        raise DatasetFormatError(f"non-integer header field in {text!r}", 0) from None
    if num_samples < 1 or num_features < 1 or num_classes < 1:
        raise DatasetFormatError(f"non-positive header field in {text!r}", 0)
    return num_samples, num_features, num_classes, newline + 1


def load_dataset(path: str | Path) -> LabeledDataset:
    """Read a FEDDS v1 file, validating layout and label range."""
    raw = Path(path).read_bytes()
    if not raw:
        raise DatasetFormatError("empty file", 0)
    num_samples, num_features, num_classes, body_start = _parse_header(raw)
    record = np.dtype([("x", "<f4", (num_features,)), ("y", "<u4")])
    expected = num_samples * record.itemsize
    body = raw[body_start:]
    if len(body) != expected:
        kind = "truncated body" if len(body) < expected else "trailing bytes"
        raise DatasetFormatError(
            f"{kind}: expected {expected} body bytes, found {len(body)}",
            body_start + min(len(body), expected),
        )
    parsed = np.frombuffer(body, dtype=record)
    labels = parsed["y"].astype(np.int64)
    bad = np.nonzero(labels >= num_classes)[0]
    if bad.size:
        first = int(bad[0])
        offset = body_start + first * record.itemsize + num_features * 4
        raise DatasetFormatError(
            f"label {labels[first]} out of range [0, {num_classes}) "
            f"at sample {first}",
            offset,
        )
    features = parsed["x"].astype(np.float64).reshape(num_samples, num_features)
    finite = np.isfinite(features)
    if not finite.all():
        first, feature = (int(i) for i in np.argwhere(~finite)[0])
        offset = body_start + first * record.itemsize + feature * 4
        raise DatasetFormatError(
            f"non-finite value {features[first, feature]} in feature {feature} "
            f"of sample {first}",
            offset,
        )
    return LabeledDataset(features, labels, num_classes)


def partition_report(shards: Shards) -> str:
    """CSV report: one ``client_id,n_k,emd`` row per client plus a mean row.

    A client's EMD is the L1 distance between its label distribution and
    that of every shard pooled, in [0, 2).  Every client's label counts
    come from one ``bincount`` of the gathered labels keyed by client and
    class, so no client's view is built.
    """
    labels, n_k = shards.data.labels, shards.n_k
    num_clients, num_classes = n_k.size, shards.data.num_classes
    keys = np.repeat(np.arange(num_clients) * num_classes, n_k) + labels
    counts = np.bincount(keys, minlength=num_clients * num_classes).reshape(num_clients, -1)
    reference = np.bincount(labels, minlength=num_classes) / labels.size
    emd = np.abs(counts / n_k[:, None] - reference).sum(axis=1)
    lines = ["client_id,n_k,emd"]
    lines += [f"{i},{n},{e:.10f}" for i, (n, e) in enumerate(zip(n_k.tolist(), emd.tolist()))]
    lines.append(f"mean,,{float(emd.mean()):.10f}")
    return "\n".join(lines) + "\n"
