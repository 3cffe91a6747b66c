"""Partitioning, the skew report, and dataset file I/O."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedclf.dataset
from fedclf.dataset import (
    ConfigurationError,
    DatasetFormatError,
    LabeledDataset,
    PartitionSpec,
    Shards,
    SplitMode,
    _nonequal_counts,
    load_dataset,
    make_synthetic,
    partition,
    partition_report,
    save_dataset,
    split_rows,
    split_train_test,
)


def equal_spec(shard_size, num_clients, seed=0):
    return PartitionSpec(
        shard_size=shard_size,
        split_mode=SplitMode.EQUAL,
        num_clients=num_clients,
        seed=seed,
    )


def shards_of(datasets) -> Shards:
    """One shard per dataset, in order, over one copy of their rows."""
    data = LabeledDataset(
        np.concatenate([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
        max(d.num_classes for d in datasets),
    )
    return Shards(data, np.cumsum([0, *(d.num_samples for d in datasets)]))


def labeled(labels, num_classes) -> LabeledDataset:
    return LabeledDataset(np.zeros((len(labels), 1)), np.array(labels, dtype=np.int64), num_classes)


def dealt(num_classes, present, num_clients, shard_size, extra, mode, seed) -> Shards:
    """``num_clients * shard_size + extra`` random labels of the first
    ``present`` of ``num_classes`` classes, dealt in ``mode``."""
    total = num_clients * shard_size + extra
    labels = np.random.default_rng(seed).integers(0, present, total)
    spec = PartitionSpec(shard_size, mode, num_clients, seed=seed)
    return partition(labeled(labels, num_classes), spec)


def report_rows(shards) -> list[str]:
    """The report's emd column: one entry per client, then the mean."""
    return [row.rpartition(",")[2] for row in partition_report(shards).splitlines()[1:]]


def report_mean(shards) -> float:
    """The mean row of the partition report: the clients' mean EMD."""
    return float(report_rows(shards)[-1])


def reference_report(shards: Shards, pooled: np.ndarray | None = None) -> str:
    """The partition report as a plain per-client loop: one view per client,
    its labels' ``bincount / n`` and their L1 distance to the distribution
    of ``pooled`` (by default, every view's labels pooled)."""
    views = list(shards)
    num_classes = shards.data.num_classes
    if pooled is None:
        pooled = np.concatenate([view.labels for view in views])
    reference = np.bincount(pooled, minlength=num_classes) / pooled.size
    lines, values = ["client_id,n_k,emd"], []
    for client_id, view in enumerate(views):
        probs = np.bincount(view.labels, minlength=num_classes) / view.labels.size
        values.append(float(np.abs(probs - reference).sum()))
        lines.append(f"{client_id},{view.num_samples},{values[-1]:.10f}")
    lines.append(f"mean,,{float(np.mean(values)):.10f}")
    return "\n".join(lines) + "\n"


def sample_multiset(datasets):
    out = Counter()
    for c in datasets:
        for row, label in zip(c.features, c.labels):
            out[(tuple(row.tolist()), int(label))] += 1
    return out


# ---------------------------------------------------------------- types


def test_labeled_dataset_rejects_label_out_of_range():
    with pytest.raises(ValueError, match=r"labels must lie"):
        LabeledDataset(np.zeros((2, 3)), np.array([0, 2]), num_classes=2)


def test_labeled_dataset_rejects_length_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), num_classes=2)


# ----------------------------------------------------- partition_report


@st.composite
def partitions(draw) -> Shards:
    """A small random partition; with a few classes present, or large
    shards, clients miss classes."""
    num_classes = draw(st.one_of(st.integers(1, 12), st.integers(129, 300)))
    num_clients = draw(st.integers(1, 12))
    return dealt(
        num_classes,
        draw(st.integers(1, num_classes)),
        num_clients,
        draw(st.integers(1, 30)),
        draw(st.integers(0, 60)),
        draw(st.sampled_from(list(SplitMode))),
        draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None)
@given(shards=partitions())
@example(shards=dealt(1, 1, 4, 5, 3, SplitMode.NONEQUAL, 0))  # one class
@example(shards=dealt(5, 5, 1, 7, 9, SplitMode.EQUAL, 1))  # one client
@example(shards=dealt(300, 300, 6, 20, 17, SplitMode.NONEQUAL, 2))  # past 128 classes
@example(shards=dealt(12, 9, 8, 30, 11, SplitMode.EQUAL, 3))  # clients miss classes
def test_partition_report_equals_per_client_loop(shards):
    assert partition_report(shards) == reference_report(shards)


def test_partition_report_builds_no_client_view(monkeypatch):
    shards = dealt(10, 10, 50, 10, 40, SplitMode.NONEQUAL, 4)
    expected = reference_report(shards)

    def no_view(self, i):
        raise AssertionError(f"the report built client {i}'s view")

    monkeypatch.setattr(Shards, "__getitem__", no_view)
    assert partition_report(shards) == expected


def test_label_distribution_balanced_two_class():
    # One client holds the whole pool, so it reads 0.
    shards = shards_of([labeled([0, 0, 1, 1], 2)])
    assert partition_report(shards) == "client_id,n_k,emd\n0,4,0.0000000000\nmean,,0.0000000000\n"


def test_label_distribution_single_class():
    # With one class every client holds the pooled distribution.
    shards = partition(labeled([0] * 40, 1), PartitionSpec(3, SplitMode.NONEQUAL, 6, seed=1))
    assert report_rows(shards) == ["0.0000000000"] * 7


def test_label_distribution_with_absent_class():
    # A class no client holds adds nothing to any row.
    three = shards_of([labeled([0, 1, 2], 3), labeled([0, 0, 0], 3)])
    four = shards_of([labeled([0, 1, 2], 4), labeled([0, 0, 0], 4)])
    assert partition_report(four) == partition_report(three)
    assert report_rows(four) == ["0.6666666667"] * 3


def test_label_distribution_pools_datasets():
    # The reference is the distribution of the rows dealt, which the shards
    # pool to bitwise: the report equals the per-client loop against those
    # rows before the deal.
    ds = make_synthetic(301, 2, 7, seed=3)
    rows, _ = split_train_test(ds, 0.25, seed=5)
    shards = partition(ds, PartitionSpec(9, SplitMode.NONEQUAL, 5, seed=2), rows)
    assert partition_report(shards) == reference_report(shards, ds.labels[rows])


def test_emd_identical_distributions_is_zero():
    shards = shards_of([labeled([0, 1, 1, 2], 3)] * 3)
    assert report_rows(shards) == ["0.0000000000"] * 4


def test_emd_half_shift():
    # Single-class clients over a balanced pool are half of it away: 1.
    shards = shards_of([labeled([0, 0], 2), labeled([1, 1], 2), labeled([0, 1], 2)])
    assert report_rows(shards) == ["1.0000000000", "1.0000000000", "0.0000000000", "0.6666666667"]


def test_emd_of_a_disjoint_client_is_two_times_the_others_share():
    # A client whose classes no other client holds is 2 * (1 - n_k / N) from
    # the pool, which tends to the disjoint distance 2 as its share shrinks.
    for n in (1, 3, 9):
        shards = shards_of([labeled([2] * n, 3), labeled([0, 1] * 5, 3)])
        assert float(report_rows(shards)[0]) == pytest.approx(2 * 10 / (n + 10), abs=1e-10)
    shards = shards_of([labeled([1], 2), labeled([0] * 99_999, 2)])
    assert report_rows(shards)[0] == "1.9999800000"


@settings(max_examples=50, deadline=None)
@given(shards=partitions())
def test_emd_metric_axioms(shards):
    # Each row is a distance to the pool: in [0, 2), and two clients' rows
    # differ by at most the distance between them (triangle inequality).
    values = [float(v) for v in report_rows(shards)[:-1]]
    assert all(0.0 <= v < 2.0 for v in values)
    num_classes = shards.data.num_classes
    probs = [np.bincount(v.labels, minlength=num_classes) / v.num_samples for v in shards]
    for i, j in itertools.combinations(range(len(shards)), 2):
        assert abs(values[i] - values[j]) <= np.abs(probs[i] - probs[j]).sum() + 1e-9


# ------------------------------------------------------------ partition


def test_partition_two_sorted_classes_single_class_clients():
    # Both possible deals of the two shards yield single-class clients.
    ds = LabeledDataset(np.arange(10, dtype=float).reshape(10, 1), np.repeat([0, 1], 5), 2)
    for seed in range(4):
        clients = partition(ds, equal_spec(shard_size=5, num_clients=2, seed=seed))
        for c in clients:
            assert len(set(c.labels.tolist())) == 1
        assert report_rows(clients) == ["1.0000000000"] * 3


def test_partition_singleton_shards_approach_iid():
    ds = make_synthetic(4000, 2, 2, seed=11)
    clients = partition(ds, equal_spec(shard_size=1, num_clients=2, seed=5))
    assert report_mean(clients) < 0.1


def test_partition_conservation_and_determinism():
    ds = make_synthetic(301, 3, 4, seed=2)
    for mode in SplitMode:
        spec = PartitionSpec(
            shard_size=7, split_mode=mode, num_clients=6, seed=13
        )
        a = partition(ds, spec)
        b = partition(ds, spec)
        assert sample_multiset(a) == sample_multiset([ds])
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.data.features, b.data.features)
        assert np.array_equal(a.data.labels, b.data.labels)


@settings(max_examples=25, deadline=None)
@given(
    shard_size=st.integers(min_value=1, max_value=40),
    num_clients=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
    mode=st.sampled_from(list(SplitMode)),
)
def test_partition_conserves_samples(shard_size, num_clients, seed, mode):
    ds = make_synthetic(240, 2, 3, seed=9)
    spec = PartitionSpec(
        shard_size=shard_size, split_mode=mode, num_clients=num_clients, seed=seed
    )
    if math.ceil(ds.num_samples / shard_size) < num_clients:
        with pytest.raises(ConfigurationError):
            partition(ds, spec)
        return
    clients = partition(ds, spec)
    assert sample_multiset(clients) == sample_multiset([ds])
    assert clients.n_k.min() >= 1 and len(clients) == num_clients


def test_partition_equal_sizes_when_clients_divide_shards():
    ds = make_synthetic(6000, 4, 10, seed=1)
    clients = partition(ds, equal_spec(shard_size=50, num_clients=50, seed=3))
    assert sorted(clients.n_k.tolist()) == [120] * 50


def test_partition_equal_spread_bounded_by_shard_size():
    ds = make_synthetic(233, 2, 3, seed=4)
    shard_size = 10
    clients = partition(ds, equal_spec(shard_size=shard_size, num_clients=7, seed=8))
    sizes = clients.n_k.tolist()
    assert max(sizes) - min(sizes) <= shard_size


@settings(max_examples=60, deadline=None)
@given(
    num_samples=st.integers(min_value=30, max_value=400),
    shard_size=st.integers(min_value=1, max_value=30),
    num_clients=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
)
# Four shards for two clients: the one-sample trailing shard is dealt whole.
@example(num_samples=31, shard_size=10, num_clients=2, seed=0)
def test_partition_equal_deal_matches_round_robin_reference(
    num_samples, shard_size, num_clients, seed
):
    ds = make_synthetic(num_samples, 2, 5, seed=seed % 1000)
    spec = equal_spec(shard_size=shard_size, num_clients=num_clients, seed=seed)
    dealt = round_robin_reference(ds.labels, spec)
    if dealt is None:
        return
    clients = partition(ds, spec)
    for client, indices in zip(clients, dealt):
        assert np.array_equal(client.labels, ds.labels[indices])
        assert np.array_equal(client.features, ds.features[indices])


def round_robin_reference(labels, spec):
    """Plain equal-mode reference, each client's sample indices: an int64
    stable label sort, cut, shuffle the shards with the spec's seed, deal
    whole shards round-robin, then leftover samples one by one.  ``None``
    when there are fewer shards than clients."""
    size, k = spec.shard_size, spec.num_clients
    order = np.argsort(labels.astype(np.int64), kind="stable").tolist()
    shards = [order[i : i + size] for i in range(0, len(order), size)]
    if len(shards) < k:
        return None
    shards = [shards[i] for i in np.random.default_rng(spec.seed).permutation(len(shards))]
    dealt = [[] for _ in range(k)]
    whole = len(shards) // k * k
    for j, shard in enumerate(shards[:whole]):
        dealt[j % k] += shard
    for j, idx in enumerate(sum(shards[whole:], [])):
        dealt[j % k].append(idx)
    return dealt


@pytest.mark.parametrize("num_classes", [2**15, 40_000])
def test_partition_label_sort_matches_int64_argsort_at_any_class_count(num_classes):
    # Up to 2**15 classes the labels sort as int16 keys; above, labels past
    # 32,767 must not wrap around to sort before the small ones.
    rng = np.random.default_rng(4)
    labels = rng.choice([0, 1, 32_766, 32_767, num_classes - 1], 503)
    ds = LabeledDataset(rng.normal(size=(503, 2)), labels, num_classes)
    spec = equal_spec(shard_size=7, num_clients=9, seed=11)
    clients = partition(ds, spec)
    for client, indices in zip(clients, round_robin_reference(labels, spec)):
        assert np.array_equal(client.labels, labels[indices])
        assert np.array_equal(client.features, ds.features[indices])


@settings(max_examples=60, deadline=None)
@given(
    num_samples=st.integers(min_value=30, max_value=400),
    shard_size=st.integers(min_value=1, max_value=30),
    num_clients=st.integers(min_value=1, max_value=12),
    min_fraction=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_partition_nonequal_cut_matches_plain_reference(
    num_samples, shard_size, num_clients, min_fraction, seed
):
    # Plain reference: label-sort, cut, shuffle the shards with the spec's
    # seed, concatenate, then slice by the seeded counts drawn after the
    # shuffle.
    ds = make_synthetic(num_samples, 2, 5, seed=seed % 1000)
    spec = PartitionSpec(
        shard_size=shard_size,
        split_mode=SplitMode.NONEQUAL,
        num_clients=num_clients,
        min_fraction=min_fraction,
        seed=seed,
    )
    order = np.argsort(ds.labels, kind="stable").tolist()
    shards = [order[i : i + shard_size] for i in range(0, num_samples, shard_size)]
    if len(shards) < num_clients:
        return
    rng = np.random.default_rng(seed)
    flat = sum((shards[i] for i in rng.permutation(len(shards))), [])
    counts = _nonequal_counts(num_samples, spec, rng).tolist()
    clients = partition(ds, spec)
    assert clients.n_k.tolist() == counts
    start = 0
    for client, count in zip(clients, counts):
        indices = flat[start : start + count]
        assert np.array_equal(client.labels, ds.labels[indices])
        assert np.array_equal(client.features, ds.features[indices])
        start += count


@pytest.mark.parametrize("mode", list(SplitMode))
def test_partition_shards_are_read_only_views_of_one_array(tmp_path, mode):
    ds = make_synthetic(301, 3, 4, seed=2)
    clients = partition(ds, PartitionSpec(7, mode, 6, seed=13))
    features, labels = clients.data.features, clients.data.labels
    assert not features.flags.writeable and not labels.flags.writeable
    for client in clients:
        assert client.features.base is features
        assert client.labels.base is labels
        with pytest.raises(ValueError, match="read-only"):
            client.features[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            client.labels[0] = 0
    # The gather copied: the input stays writable and whole.
    assert ds.features.flags.writeable and ds.labels.flags.writeable
    path = tmp_path / "shard.fedds"
    save_dataset(clients[3], path)
    loaded = load_dataset(path)
    assert loaded.num_classes == 4
    assert np.array_equal(loaded.labels, clients[3].labels)
    assert np.array_equal(loaded.features, clients[3].features.astype(np.float32))


@settings(max_examples=40, deadline=None)
@given(
    num_samples=st.integers(min_value=30, max_value=300),
    kept=st.floats(min_value=0.05, max_value=1.0),
    shard_size=st.integers(min_value=1, max_value=30),
    num_clients=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32),
    mode=st.sampled_from(list(SplitMode)),
)
def test_partition_of_given_rows_equals_partition_of_their_subset(
    num_samples, kept, shard_size, num_clients, seed, mode
):
    full = make_synthetic(num_samples, 3, 5, seed=seed % 1000)
    rows = np.random.default_rng(seed).permutation(num_samples)
    rows = rows[: max(1, round(kept * num_samples))]
    spec = PartitionSpec(shard_size, mode, num_clients, seed=seed)
    if math.ceil(rows.size / shard_size) < num_clients:
        with pytest.raises(ConfigurationError):
            partition(full, spec, rows)
        with pytest.raises(ConfigurationError):
            partition(full.subset(rows), spec)
        return
    dealt = partition(full, spec, rows)
    expected = partition(full.subset(rows), spec)
    assert len(dealt) == len(expected)
    # One read-only block, each shard a view of the rows after the last one's.
    features, labels = dealt.data.features, dealt.data.labels
    assert not features.flags.writeable and not labels.flags.writeable
    assert features.shape == (rows.size, 3) and labels.shape == (rows.size,)
    assert np.array_equal(dealt.n_k, expected.n_k)
    start = 0
    for got, want in zip(dealt, expected):
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(np.signbit(got.features), np.signbit(want.features))
        assert np.array_equal(got.labels, want.labels)
        assert got.features.base is features and got.labels.base is labels
        assert got.features.ctypes.data == features[start:].ctypes.data
        assert got.labels.ctypes.data == labels[start:].ctypes.data
        start += got.num_samples
    assert start == rows.size


def test_shards_are_consecutive_views_that_check_their_sizes():
    ds = make_synthetic(10, 2, 3, seed=1)
    shards = Shards(ds, [0, 3, 4, 10])
    assert len(shards) == 3 and shards.n_k.tolist() == [3, 1, 6]
    assert [b.num_samples for b in shards] == [3, 1, 6]
    for i, (start, end) in enumerate([(0, 3), (3, 4), (4, 10)]):
        block = shards[i]
        assert np.shares_memory(block.features, ds.features)
        assert np.array_equal(block.features, ds.features[start:end])
        assert np.array_equal(block.labels, ds.labels[start:end])
        assert block.num_classes == 3
        # Each view is read-only, though the dataset it reads is writable.
        for array in (block.features, block.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
    assert ds.features.flags.writeable and ds.labels.flags.writeable
    assert np.array_equal(shards[-1].labels, ds.labels[4:])
    with pytest.raises(IndexError):
        shards[3]
    for array in (shards.offsets, shards.n_k):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    # A zero count, a negative one, sums short of or past the rows, no
    # shard at all, and offsets that do not start at row 0.
    for offsets, sizes in (
        ([0, 3, 3, 10], r"\[3, 0, 7\] for 10 samples"),
        ([0, 3, 11], r"\[3, 8\] for 10 samples"),
        ([0, 3, 9], r"\[3, 6\] for 10 samples"),
        ([0], r"\[\] for 10 samples"),
        ([0, -1, 10], r"\[-1, 11\] for 10 samples"),
        ([1, 4, 10], r"\[3, 6\] from row 1 for 10 samples"),
    ):
        with pytest.raises(ValueError, match=f"shard sizes {sizes}"):
            Shards(ds, offsets)


def test_subset_gathers_integer_rows_and_rejects_other_indices():
    ds = make_synthetic(6, 2, 3, seed=4)
    for rows in ([4, 0, 4], np.array([5, 1], dtype=np.uint8), np.array([-1])):
        sub = ds.subset(rows)
        assert np.array_equal(sub.features, ds.features[rows])
        assert np.array_equal(sub.labels, ds.labels[rows])
    # A mask would be read by a gather as rows 0 and 1, not as the rows it
    # marks; a float index would be truncated.
    for rows in (np.array([False, True, True, False, False, True]), np.array([1.0, 2.0])):
        with pytest.raises(TypeError, match="row indices must be integers"):
            ds.subset(rows)


def test_partition_too_few_shards_is_configuration_error():
    ds = make_synthetic(100, 2, 2, seed=0)
    with pytest.raises(ConfigurationError) as err:
        partition(ds, equal_spec(shard_size=60, num_clients=3))
    message = str(err.value)
    assert "S=60" in message and "K=3" in message and "100" in message


@settings(max_examples=60, deadline=None)
@given(
    min_fraction=st.floats(min_value=0.01, max_value=1.0),
    shard_size=st.integers(min_value=1, max_value=100),
    num_clients=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_partition_nonequal_respects_floor_and_varies(
    min_fraction, shard_size, num_clients, seed
):
    ds = make_synthetic(3000, 2, 5, seed=21)
    spec = PartitionSpec(
        shard_size=shard_size,
        split_mode=SplitMode.NONEQUAL,
        num_clients=num_clients,
        min_fraction=min_fraction,
        seed=seed,
    )
    clients = partition(ds, spec)
    sizes = clients.n_k.tolist()
    # The floor is min_fraction of an equal share, capped at the largest
    # share every client can have at once (total // K).
    total = ds.num_samples
    floor = min(min_fraction * total / num_clients, total // num_clients)
    assert all(size >= floor for size in sizes)
    assert sum(sizes) == total
    assert sample_multiset(clients) == sample_multiset([ds])
    if min_fraction <= 0.5 and num_clients >= 5:
        assert len(set(sizes)) > 1


def test_partition_emd_ladder_ordering_on_cifar_like_data():
    # Larger shards concentrate fewer classes per client, so skew rises with
    # shard size.
    ds = make_synthetic(20_000, 4, 10, seed=31)
    values = {}
    for shard_size in (5, 50, 200):
        clients = partition(ds, equal_spec(shard_size, num_clients=50, seed=31))
        values[shard_size] = report_mean(clients)
    assert values[200] > values[50] > values[5]


def test_mean_partition_emd_trivial_cases():
    ds = LabeledDataset(np.zeros((8, 1)), np.array([0, 1] * 4), 2)
    clients = partition(ds, equal_spec(shard_size=4, num_clients=2, seed=0))
    # Two single-class clients over a balanced pool: each row and the mean
    # row read 1.
    assert report_rows(clients) == ["1.0000000000"] * 3
    assert report_mean(clients) == 1.0


# -------------------------------------------------------- make_synthetic


def test_make_synthetic_deterministic():
    a = make_synthetic(100, 4, 2, seed=7)
    b = make_synthetic(100, 4, 2, seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_make_synthetic_single_class():
    ds = make_synthetic(20, 3, 1, seed=5)
    assert set(ds.labels.tolist()) == {0}


def test_make_synthetic_balanced_classes():
    ds = make_synthetic(1000, 8, 10, seed=123)
    counts = np.bincount(ds.labels, minlength=10)
    assert all(abs(int(c) - 100) <= 1 for c in counts)


@pytest.mark.parametrize(
    ("num_samples", "num_classes", "spread"),
    [
        pytest.param(301, 5, 0.0, id="0.0"),
        pytest.param(301, 5, 1.0, id="1.0"),
        pytest.param(301, 5, 2.5, id="2.5"),
        pytest.param(3, 5, 1.0, id="no-whole-cycle-of-classes"),
        pytest.param(300, 5, 1.0, id="no-leftover-rows"),
        pytest.param(301, 1, 1.0, id="one-class"),
        pytest.param(301, 5, -1.5, id="negative-spread"),
    ],
)
def test_make_synthetic_features_are_means_plus_scaled_noise_bitwise(
    num_samples, num_classes, spread
):
    # The plain expression, from the same draws: signed zeros included.
    rng = np.random.default_rng(17)
    means = rng.normal(0.0, 1.0, size=(num_classes, 6))
    noise = rng.normal(0.0, 1.0, size=(num_samples, 6))
    expected = means[np.arange(num_samples) % num_classes] + spread * noise
    features = make_synthetic(
        num_samples, 6, num_classes, seed=17, cluster_spread=spread
    ).features
    assert np.array_equal(features, expected)
    assert np.array_equal(np.signbit(features), np.signbit(expected))


@settings(max_examples=60, deadline=None)
@given(
    num_samples=st.integers(1, 300),
    num_features=st.integers(1, 6),
    num_classes=st.integers(1, 7),
    chunk_bytes=st.sampled_from([fedclf.dataset._CHUNK_BYTES]) | st.integers(1, 2000),
    seed=st.integers(0, 2**16),
)
def test_make_synthetic_in_chunks_and_in_a_given_order_is_the_whole_draw(
    num_samples, num_features, num_classes, chunk_bytes, seed
):
    # Small chunk sizes cut the draws into many chunks of whole cycles of
    # classes, the last one often short; the default size makes one chunk
    # here, as in the plain-expression test above.
    order = np.random.default_rng(seed).permutation(num_samples)
    args = num_samples, num_features, num_classes, seed, -0.5
    with patch.object(fedclf.dataset, "_CHUNK_BYTES", chunk_bytes):
        chunked = make_synthetic(*args)
        ordered = make_synthetic(*args, order=order)
    whole = make_synthetic(*args)
    assert chunked.features.tobytes() == whole.features.tobytes()
    assert ordered.features.tobytes() == whole.subset(order).features.tobytes()
    assert np.array_equal(ordered.labels, whole.labels[order])


@pytest.mark.parametrize(
    ("test_fraction", "message"),
    [
        (0.001, "test_fraction=0.001 of 240 samples gives 0 test rows"),
        (0.999, "test_fraction=0.999 of 240 samples gives 0 training rows"),
    ],
)
def test_split_rows_names_the_empty_side(test_fraction, message):
    with pytest.raises(ValueError, match=message):
        split_rows(240, test_fraction, seed=1)


def test_split_train_test_sizes_and_determinism():
    # Each row's one feature is its own row number.
    ds = LabeledDataset(np.arange(1200.0)[:, None], np.arange(1200) % 4, 4)
    rows_a, test_a = split_train_test(ds, 1 / 6, seed=4)
    rows_b, test_b = split_train_test(ds, 1 / 6, seed=4)
    assert test_a.num_samples == 200
    assert rows_a.dtype == np.int64 and rows_a.shape == (1000,)
    assert np.array_equal(rows_a, rows_b)
    assert np.array_equal(test_a.features, test_b.features)
    assert np.array_equal(test_a.labels, test_b.labels)
    # The training and test rows are disjoint and together cover every row.
    test_rows = test_a.features[:, 0].astype(np.int64)
    assert np.array_equal(test_a.labels, ds.labels[test_rows])
    assert np.array_equal(np.sort(np.concatenate([rows_a, test_rows])), np.arange(1200))
    # The split reads only the row count.
    rows_c, test_rows_c = split_rows(1200, 1 / 6, seed=4)
    assert np.array_equal(rows_c, rows_a) and np.array_equal(test_rows_c, test_rows)


# -------------------------------------------------------------- file I/O


def test_save_load_roundtrip(tmp_path):
    ds = make_synthetic(37, 5, 3, seed=6)
    path = tmp_path / "data.fedds"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.num_samples == 37
    assert loaded.num_classes == 3
    assert np.array_equal(loaded.labels, ds.labels)
    # Features round-trip through float32 exactly.
    assert np.array_equal(loaded.features, ds.features.astype(np.float32))


def test_load_dataset_small_wellformed(tmp_path):
    ds = LabeledDataset(np.ones((3, 2)), np.array([0, 1, 0]), 2)
    path = tmp_path / "tiny.fedds"
    save_dataset(ds, path)
    assert load_dataset(path).num_samples == 3


def test_load_dataset_rejects_label_equal_to_num_classes(tmp_path):
    path = tmp_path / "bad.fedds"
    header = b"FEDDS v1 2 1 2\n"
    body = (
        np.float32(0.5).tobytes() + np.uint32(1).tobytes()
        + np.float32(0.5).tobytes() + np.uint32(2).tobytes()
    )
    path.write_bytes(header + body)
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert "out of range" in str(err.value)
    assert err.value.offset == len(header) + 8 + 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_dataset_rejects_non_finite_feature(tmp_path, bad):
    # Three samples of (2 float32 features + uint32 label) = 12 bytes each;
    # the first bad value is feature 1 of sample 1, a later one is ignored.
    features = np.array([[0.5, 1.0], [2.0, bad], [bad, 0.0]], dtype="<f4")
    labels = np.array([0, 1, 0], dtype="<u4")
    header = b"FEDDS v1 3 2 2\n"
    body = b"".join(f.tobytes() + y.tobytes() for f, y in zip(features, labels))
    path = tmp_path / "nan.fedds"
    path.write_bytes(header + body)
    with pytest.raises(DatasetFormatError, match="feature 1 of sample 1") as err:
        load_dataset(path)
    assert err.value.offset == len(header) + 12 + 4


def test_load_dataset_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.fedds"
    path.write_bytes(b"")
    with pytest.raises(DatasetFormatError, match="empty file"):
        load_dataset(path)


def test_load_dataset_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.fedds"
    path.write_bytes(b"NOPE v1 1 1 1\n" + b"\x00" * 8)
    with pytest.raises(DatasetFormatError, match="bad header"):
        load_dataset(path)


def test_load_dataset_reports_truncation_offset(tmp_path):
    path = tmp_path / "short.fedds"
    header = b"FEDDS v1 2 2 2\n"
    path.write_bytes(header + b"\x00" * 10)  # needs 24 body bytes
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(path)
    assert "truncated" in str(err.value)
    assert err.value.offset == len(header) + 10


def test_partition_report_format():
    ds = LabeledDataset(np.zeros((8, 1)), np.array([0, 1] * 4), 2)
    clients = partition(ds, equal_spec(shard_size=4, num_clients=2, seed=0))
    report = partition_report(clients)
    lines = report.strip().splitlines()
    assert lines[0] == "client_id,n_k,emd"
    assert lines[-1].startswith("mean,,")
    assert len(lines) == 4
