"""Datasets, heterogeneity-controlled partitioning, and label-skew metrics.

Client shards are produced by sorting the training set by label, cutting it
into shards of a configurable size ``S``, shuffling the shards, and dealing
them to clients.  Large shards concentrate few classes per client; ``S=1``
degenerates to a uniform random split.  Skew is quantified per client as the
L1 distance between its label distribution and a reference distribution
(normally the label distribution of the full training set).

File format (``FEDDS v1``): one ASCII header line
``FEDDS v1 <num_samples> <num_features> <num_classes>\\n`` followed, per
sample, by ``num_features`` little-endian float32 values and one
little-endian uint32 label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigurationError",
    "DatasetFormatError",
    "LabeledDataset",
    "ClientDataset",
    "LabelDistribution",
    "PartitionSpec",
    "SplitMode",
    "partition",
    "label_distribution",
    "emd",
    "mean_partition_emd",
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
        return LabeledDataset(
            self.features[indices], self.labels[indices], self.num_classes
        )


@dataclass(frozen=True)
class ClientDataset:
    """One client's local shard; ``n_k`` is its sample count."""

    client_id: int
    data: LabeledDataset

    def __post_init__(self):
        if self.data.num_samples < 1:
            raise ValueError(f"client {self.client_id} received an empty shard")

    @property
    def n_k(self) -> int:
        return self.data.num_samples


@dataclass(frozen=True)
class LabelDistribution:
    """A probability vector over classes (sums to one)."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("probs must be a vector")
        if probs.size and abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probs must sum to 1, got {probs.sum()!r}")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("probs entries must lie in [0, 1]")
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.size


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


def label_distribution(data: LabeledDataset) -> LabelDistribution:
    """Empirical label distribution of ``data``."""
    if data.num_samples == 0:
        raise ValueError("cannot compute a label distribution of an empty dataset")
    counts = np.bincount(data.labels, minlength=data.num_classes)
    return LabelDistribution(counts / data.num_samples)


def emd(a: LabelDistribution, b: LabelDistribution) -> float:
    """Per-class L1 distance between two label distributions; range [0, 2]."""
    if len(a) != len(b):
        raise ValueError(f"distribution lengths differ: {len(a)} vs {len(b)}")
    return float(np.abs(a.probs - b.probs).sum())


def mean_partition_emd(
    clients: list[ClientDataset], reference: LabelDistribution
) -> float:
    """Mean over clients of the EMD between each client and ``reference``."""
    if not clients:
        raise ValueError("need at least one client")
    return float(
        np.mean([emd(label_distribution(c.data), reference) for c in clients])
    )


def _shard_sequence(dataset: LabeledDataset, spec: PartitionSpec, rng) -> np.ndarray:
    """Label-sort, cut into shards of ``shard_size``, shuffle shard order.

    Returns the flat index sequence of the shuffled shards; a trailing short
    shard (when shard_size does not divide the total) is shuffled like any
    other.
    """
    order = np.argsort(dataset.labels, kind="stable")
    total = dataset.num_samples
    num_shards = math.ceil(total / spec.shard_size)
    if num_shards < spec.num_clients:
        raise ConfigurationError(
            f"shard_size S={spec.shard_size} yields only {num_shards} shards "
            f"for K={spec.num_clients} clients (total samples: {total})"
        )
    shards = [
        order[i * spec.shard_size : (i + 1) * spec.shard_size]
        for i in range(num_shards)
    ]
    perm = rng.permutation(num_shards)
    return np.concatenate([shards[i] for i in perm]), [shards[i] for i in perm]


def _equal_counts_deal(shuffled_shards: list[np.ndarray], k: int) -> list[list[int]]:
    """Deal whole shards round-robin, then leftover samples round-robin."""
    assignments: list[list[int]] = [[] for _ in range(k)]
    whole = (len(shuffled_shards) // k) * k
    for j in range(whole):
        assignments[j % k].extend(shuffled_shards[j].tolist())
    leftover = [idx for shard in shuffled_shards[whole:] for idx in shard.tolist()]
    for j, idx in enumerate(leftover):
        assignments[j % k].append(idx)
    return assignments


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
        for idx in np.argsort(-remainders, kind="stable")[:diff]:
            counts[idx] += 1
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


def partition(dataset: LabeledDataset, spec: PartitionSpec) -> list[ClientDataset]:
    """Deal ``dataset`` to ``spec.num_clients`` clients via sort-and-shard.

    Equal mode deals whole shuffled shards round-robin and then any leftover
    shards sample-by-sample, so client sizes differ by at most one shard and
    are exactly ``total // num_clients`` whenever the number of clients
    divides the number of shards.  Non-equal mode slices the shuffled shard
    sequence into contiguous blocks whose sizes follow seeded random weights,
    floored at ``min_fraction * (total / num_clients)`` (at most
    ``total // num_clients``).

    The union of client samples is always exactly the input multiset, and the
    result is a pure function of ``(dataset, spec)`` including ``spec.seed``.
    """
    if dataset.num_samples == 0:
        raise ValueError("cannot partition an empty dataset")
    if dataset.num_samples < spec.num_clients:
        raise ConfigurationError(
            f"{dataset.num_samples} samples cannot cover "
            f"K={spec.num_clients} clients"
        )
    rng = np.random.default_rng(spec.seed)
    flat, shuffled_shards = _shard_sequence(dataset, spec, rng)

    if spec.split_mode is SplitMode.EQUAL:
        assignments = _equal_counts_deal(shuffled_shards, spec.num_clients)
        index_lists = [np.asarray(a, dtype=np.int64) for a in assignments]
    else:
        counts = _nonequal_counts(dataset.num_samples, spec, rng)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        index_lists = [
            flat[bounds[i] : bounds[i + 1]] for i in range(spec.num_clients)
        ]

    return [
        ClientDataset(client_id=i, data=dataset.subset(idx))
        for i, idx in enumerate(index_lists)
    ]


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
    noise = rng.normal(0.0, 1.0, size=(num_samples, num_features))
    features = means[labels] + cluster_spread * noise
    return LabeledDataset(features, labels, num_classes)


def split_train_test(
    dataset: LabeledDataset, test_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded random split; the test side gets ``round(n * test_fraction)``."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.num_samples)
    n_test = int(round(dataset.num_samples * test_fraction))
    if n_test < 1 or n_test >= dataset.num_samples:
        raise ValueError("test_fraction leaves an empty split")
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])


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


def partition_report(
    clients: list[ClientDataset], reference: LabelDistribution
) -> str:
    """CSV report: one ``client_id,n_k,emd`` row per client plus a mean row."""
    lines = ["client_id,n_k,emd"]
    values = []
    for client in clients:
        value = emd(label_distribution(client.data), reference)
        values.append(value)
        lines.append(f"{client.client_id},{client.n_k},{value:.10f}")
    lines.append(f"mean,,{float(np.mean(values)):.10f}")
    return "\n".join(lines) + "\n"
