"""Partitioning, skew metrics, and dataset file I/O."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedclf.dataset import (
    ConfigurationError,
    DatasetFormatError,
    LabelDistribution,
    LabeledDataset,
    PartitionSpec,
    SplitMode,
    emd,
    label_distribution,
    load_dataset,
    make_synthetic,
    mean_partition_emd,
    partition,
    partition_report,
    save_dataset,
    split_train_test,
)


def equal_spec(shard_size, num_clients, seed=0):
    return PartitionSpec(
        shard_size=shard_size,
        split_mode=SplitMode.EQUAL,
        num_clients=num_clients,
        seed=seed,
    )


def sample_multiset(clients):
    out = Counter()
    for c in clients:
        for row, label in zip(c.data.features, c.data.labels):
            out[(tuple(row.tolist()), int(label))] += 1
    return out


# ---------------------------------------------------------------- types


def test_labeled_dataset_rejects_label_out_of_range():
    with pytest.raises(ValueError, match=r"labels must lie"):
        LabeledDataset(np.zeros((2, 3)), np.array([0, 2]), num_classes=2)


def test_labeled_dataset_rejects_length_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), num_classes=2)


def test_label_distribution_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        LabelDistribution(np.array([0.5, 0.4]))


# ------------------------------------------------- label_distribution


def test_label_distribution_balanced_two_class():
    ds = LabeledDataset(np.zeros((4, 1)), np.array([0, 0, 1, 1]), 2)
    assert label_distribution(ds).probs.tolist() == [0.5, 0.5]


def test_label_distribution_single_class():
    ds = LabeledDataset(np.zeros((4, 1)), np.array([0, 0, 0, 0]), 2)
    assert label_distribution(ds).probs.tolist() == [1.0, 0.0]


def test_label_distribution_with_absent_class():
    ds = LabeledDataset(np.zeros((3, 1)), np.array([0, 1, 2]), 4)
    assert label_distribution(ds).probs == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0])


def test_label_distribution_rejects_empty():
    ds = LabeledDataset(np.zeros((0, 1)), np.array([], dtype=int), 2)
    with pytest.raises(ValueError, match="empty"):
        label_distribution(ds)


# ------------------------------------------------------------------ emd


def test_emd_identical_distributions_is_zero():
    d = LabelDistribution(np.array([0.25, 0.5, 0.25]))
    assert emd(d, d) == 0.0


def test_emd_half_shift():
    a = LabelDistribution(np.array([0.5, 0.5]))
    b = LabelDistribution(np.array([1.0, 0.0]))
    assert emd(a, b) == pytest.approx(1.0)


def test_emd_disjoint_is_two():
    a = LabelDistribution(np.array([1.0, 0.0]))
    b = LabelDistribution(np.array([0.0, 1.0]))
    assert emd(a, b) == pytest.approx(2.0)


def test_emd_rejects_length_mismatch():
    a = LabelDistribution(np.array([1.0]))
    b = LabelDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="lengths differ"):
        emd(a, b)


def _distributions(n_classes):
    return (
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n_classes,
            max_size=n_classes,
        )
        .filter(lambda w: sum(w) > 1e-6)
        .map(lambda w: LabelDistribution(np.array(w) / sum(w)))
    )


@settings(max_examples=100, deadline=None)
@given(a=_distributions(4), b=_distributions(4), c=_distributions(4))
def test_emd_metric_axioms(a, b, c):
    d_ab = emd(a, b)
    assert 0.0 <= d_ab <= 2.0
    assert d_ab == pytest.approx(emd(b, a))
    assert emd(a, a) == pytest.approx(0.0, abs=1e-12)
    assert emd(a, c) <= d_ab + emd(b, c) + 1e-12


# ------------------------------------------------------------ partition


def test_partition_two_sorted_classes_single_class_clients():
    # Both possible deals of the two shards yield single-class clients.
    ds = LabeledDataset(np.arange(10, dtype=float).reshape(10, 1), np.repeat([0, 1], 5), 2)
    reference = label_distribution(ds)
    for seed in range(4):
        clients = partition(ds, equal_spec(shard_size=5, num_clients=2, seed=seed))
        for c in clients:
            assert len(set(c.data.labels.tolist())) == 1
            assert emd(label_distribution(c.data), reference) == pytest.approx(1.0)


def test_partition_singleton_shards_approach_iid():
    ds = make_synthetic(4000, 2, 2, seed=11)
    clients = partition(ds, equal_spec(shard_size=1, num_clients=2, seed=5))
    reference = label_distribution(ds)
    assert mean_partition_emd(clients, reference) < 0.1


def test_partition_conservation_and_determinism():
    ds = make_synthetic(301, 3, 4, seed=2)
    for mode in SplitMode:
        spec = PartitionSpec(
            shard_size=7, split_mode=mode, num_clients=6, seed=13
        )
        a = partition(ds, spec)
        b = partition(ds, spec)
        assert sample_multiset(a) == sample_multiset(ds_clients(ds))
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.data.features, cb.data.features)
            assert np.array_equal(ca.data.labels, cb.data.labels)


def ds_clients(ds):
    """Wrap a dataset as a one-client list for multiset comparison."""
    from fedclf.dataset import ClientDataset

    return [ClientDataset(0, ds)]


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
    assert sample_multiset(clients) == sample_multiset(ds_clients(ds))
    assert all(c.n_k >= 1 for c in clients)


def test_partition_equal_sizes_when_clients_divide_shards():
    ds = make_synthetic(6000, 4, 10, seed=1)
    clients = partition(ds, equal_spec(shard_size=50, num_clients=50, seed=3))
    assert sorted(c.n_k for c in clients) == [120] * 50


def test_partition_equal_spread_bounded_by_shard_size():
    ds = make_synthetic(233, 2, 3, seed=4)
    shard_size = 10
    clients = partition(ds, equal_spec(shard_size=shard_size, num_clients=7, seed=8))
    sizes = [c.n_k for c in clients]
    assert max(sizes) - min(sizes) <= shard_size


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
    sizes = [c.n_k for c in clients]
    # The floor is min_fraction of an equal share, capped at the largest
    # share every client can have at once (total // K).
    total = ds.num_samples
    floor = min(min_fraction * total / num_clients, total // num_clients)
    assert all(size >= floor for size in sizes)
    assert sum(sizes) == total
    assert sample_multiset(clients) == sample_multiset(ds_clients(ds))
    if min_fraction <= 0.5 and num_clients >= 5:
        assert len(set(sizes)) > 1


def test_partition_emd_ladder_ordering_on_cifar_like_data():
    # Larger shards concentrate fewer classes per client, so skew rises with
    # shard size.
    ds = make_synthetic(20_000, 4, 10, seed=31)
    reference = label_distribution(ds)
    values = {}
    for shard_size in (5, 50, 200):
        clients = partition(ds, equal_spec(shard_size, num_clients=50, seed=31))
        values[shard_size] = mean_partition_emd(clients, reference)
    assert values[200] > values[50] > values[5]


def test_mean_partition_emd_trivial_cases():
    ds = LabeledDataset(np.zeros((8, 1)), np.array([0, 1] * 4), 2)
    reference = label_distribution(ds)
    clients = partition(ds, equal_spec(shard_size=4, num_clients=2, seed=0))
    assert mean_partition_emd(clients, reference) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mean_partition_emd([], reference)


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


def test_split_train_test_sizes_and_determinism():
    ds = make_synthetic(1200, 3, 4, seed=9)
    train_a, test_a = split_train_test(ds, 1 / 6, seed=4)
    train_b, test_b = split_train_test(ds, 1 / 6, seed=4)
    assert test_a.num_samples == 200
    assert train_a.num_samples == 1000
    assert np.array_equal(train_a.features, train_b.features)
    assert np.array_equal(test_a.labels, test_b.labels)


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
    report = partition_report(clients, label_distribution(ds))
    lines = report.strip().splitlines()
    assert lines[0] == "client_id,n_k,emd"
    assert lines[-1].startswith("mean,,")
    assert len(lines) == 4
