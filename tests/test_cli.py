"""Command-line interface: partition, run, battery."""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from enum import Enum

import numpy as np
import pytest

from fedclf.cli import _config_from_sources, build_parser, main
from fedclf.dataset import PartitionSpec, SplitMode, load_dataset, save_dataset
from fedclf.selection import FactorMode, Strategy
from fedclf.server import (
    CONFIG_KEYS,
    ExperimentConfig,
    RoundRecord,
    build_experiment,
    deterministic_csv_payload,
    summary_text,
)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def built_configs(monkeypatch):
    """Stub out the experiment run; collect every config ``run`` builds."""
    configs = []

    def fake_run(cfg, out_dir=None):
        configs.append(cfg)
        return [RoundRecord(1, 0.5, 1.0, 0.5, True, (0,), 0.0)]

    monkeypatch.setattr("fedclf.cli.run_experiment", fake_run)
    return configs


# -------------------------------------------------------------- partition


def test_partition_writes_shards_and_report(tmp_path):
    out = tmp_path / "parts"
    code = run_cli(
        "partition", "--synthetic", "6x4x600", "--S", "20", "--clients", "10",
        "--mode", "equal", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    shards = sorted(out.glob("client_*.fedds"))
    assert len(shards) == 10
    first = load_dataset(shards[0])
    assert first.num_features == 4
    report = (out / "report.csv").read_text()
    assert report.splitlines()[0] == "client_id,n_k,emd"
    assert report.strip().splitlines()[-1].startswith("mean,,")


def test_partition_mean_emd_grows_with_shard_size(tmp_path):
    means = {}
    for shard_size in (5, 100):
        out = tmp_path / f"s{shard_size}"
        # 2400 samples leave a 2000-sample training split: 20 shards of 100.
        run_cli(
            "partition", "--synthetic", "10x4x2400", "--S", str(shard_size),
            "--clients", "20", "--mode", "equal", "--seed", "3", "--out", str(out),
        )
        last = (out / "report.csv").read_text().strip().splitlines()[-1]
        means[shard_size] = float(last.split(",")[2])
    assert means[100] > means[5]


def test_partition_shard_too_large_fails(tmp_path, capsys):
    code = run_cli(
        "partition", "--synthetic", "2x2x100", "--S", "90", "--clients", "4",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_partition_is_byte_reproducible(tmp_path):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli(
            "partition", "--synthetic", "4x3x400", "--S", "10", "--clients", "8",
            "--mode", "nonequal", "--seed", "9", "--out", str(out),
        )
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_partition_shards_are_the_runs_training_shards(tmp_path):
    # Three clients: the default select_k of 5 would not validate, and the
    # partition command must not need it.  The second case sets the two data
    # settings build_partition reads beyond the partition's own.
    for name, data_flags in (
        ("defaults", []),
        ("data", ["--test-fraction", "0.4", "--cluster-spread", "2.5"]),
    ):
        flags = [
            "--synthetic", "4x3x400", "--S", "10", "--clients", "3",
            "--split", "nonequal", "--min-fraction", "0.3", "--seed", "9",
            *data_flags,
        ]
        out = tmp_path / name
        assert run_cli("partition", *flags, "--out", str(out)) == 0
        args = build_parser().parse_args(["run", *flags, "--select-k", "2"])
        experiment = build_experiment(_config_from_sources(args))
        assert len(list(out.glob("client_*.fedds"))) == len(experiment.clients) == 3
        for cid, client in experiment.clients.items():
            expected = out / f"run_{cid:03d}.fedds"
            save_dataset(client.data, expected)
            written = (out / f"client_{cid:03d}.fedds").read_bytes()
            assert written == expected.read_bytes()


def test_partition_requires_exactly_one_source(tmp_path, capsys):
    assert run_cli("partition", "--out", str(tmp_path / "x")) == 1
    assert "exactly one" in capsys.readouterr().err


# -------------------------------------------------------------------- run


def test_run_defaults_match_base_protocol(tmp_path, capsys):
    # Only check the echoed configuration, not a full 100-round run.
    out = tmp_path / "run"
    code = run_cli("run", "--rounds", "1", "--out", str(out))
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "config.num_clients=50" in summary
    assert "config.select_k=5" in summary
    assert "config.rounds=100" not in summary  # overridden to 1
    assert "config.epochs=1" in summary
    assert "config.learning_rate=0.001" in summary
    assert "config.moving_avg_window=30" in summary
    assert "config.strategy=fedclf" in summary
    assert "config.factor_mode=loss" in summary


def test_run_single_round_csv_has_header_plus_one_row(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "run", "--rounds", "1", "--clients", "6", "--select-k", "2",
        "--synthetic", "3x3x240", "--S", "5", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    lines = [
        l for l in (out / "run.csv").read_text().splitlines() if not l.startswith("#")
    ]
    assert len(lines) == 2
    assert lines[0].startswith("round,")


def test_run_random_no_feedback_samples_every_round(tmp_path):
    out = tmp_path / "run"
    run_cli(
        "run", "--strategy", "random", "--no-feedback", "--rounds", "8",
        "--clients", "6", "--select-k", "2", "--synthetic", "3x3x240",
        "--S", "5", "--seed", "4", "--out", str(out),
    )
    rows = [
        l for l in (out / "run.csv").read_text().splitlines() if not l.startswith("#")
    ][1:]
    assert all(row.split(",")[4] == "1" for row in rows)


def test_run_identical_args_identical_payloads(tmp_path):
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli(
            "run", "--rounds", "6", "--clients", "8", "--select-k", "2",
            "--synthetic", "4x3x320", "--S", "8", "--lr", "0.1",
            "--seed", "11", "--out", str(out),
        )
        assert code == 0
        payloads.append(deterministic_csv_payload((out / "run.csv").read_text()))
    assert payloads[0] == payloads[1]
    selections = [
        (tmp_path / name / "selection.csv").read_bytes() for name in ("a", "b")
    ]
    assert selections[0] == selections[1]


def test_run_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "clients=6\nselect_k=2\nrounds=3\nlr=0.05\nsynthetic=3x3x240\nS=5\nseed=8\n"
    )
    out = tmp_path / "out"
    code = run_cli(
        "run", "--config", str(config), "--rounds", "5", "--out", str(out)
    )
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "rounds=5" in summary.splitlines()[0]
    assert "config.num_clients=6" in summary


def test_config_keys_and_flags_build_the_same_config(tmp_path, built_configs):
    data = str(tmp_path / "data.fedds")
    keys = {
        "clients": "6", "select_k": "2", "rounds": "3", "epochs": "2",
        "lr": "0.05", "batch": "16", "strategy": "random", "factor_mode": "acc",
        "feedback": "false", "S": "5", "split": "nonequal", "min_fraction": "0.5",
        "window": "4", "seed": "8", "synthetic": "3x4x240", "input": data,
        "model": "mlp:7", "checkpoint_every": "2",
    }
    config = tmp_path / "run.conf"
    config.write_text("".join(f"{key}={value}\n" for key, value in keys.items()))
    flags = ["--no-feedback"]
    for key, value in keys.items():
        if key != "feedback":
            flags += [f"--{key.replace('_', '-')}", value]
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "a")) == 0
    assert run_cli("run", *flags, "--out", str(tmp_path / "b")) == 0
    assert run_cli("run", "--out", str(tmp_path / "c")) == 0
    expected = ExperimentConfig(
        num_clients=6,
        select_k=2,
        rounds=3,
        epochs=2,
        learning_rate=0.05,
        batch_size=16,
        shape_tag="mlp:7",
        strategy=Strategy.RANDOM,
        factor_mode=FactorMode.ACC_RATIO,
        feedback_enabled=False,
        partition=PartitionSpec(
            shard_size=5, split_mode=SplitMode.NONEQUAL, num_clients=6, min_fraction=0.5
        ),
        moving_avg_window=4,
        seed=8,
        synthetic_shape=(3, 4, 240),
        dataset_path=data,
        checkpoint_every=2,
    )
    assert built_configs == [expected, expected, ExperimentConfig()]


def _leaf_fields(obj, prefix=""):
    """Dotted names of every field of ``obj``, nested dataclasses expanded."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaf_fields(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}"


def _other_value(default):
    """A value unlike ``default`` and its config-file text."""
    if isinstance(default, bool):
        return not default, str(not default).lower()
    if isinstance(default, Enum):
        other = next(m for m in type(default) if m is not default)
        return other, other.value
    if isinstance(default, int):
        return default + 3, str(default + 3)
    if isinstance(default, float):
        return default / 2, repr(default / 2)
    if isinstance(default, tuple):
        return (3, 4, 50), "3x4x50"
    if default is None:
        return "data.fedds", "data.fedds"
    return "mlp:7", "mlp:7"


# build_experiment sets these two from num_clients and seed.
DERIVED = ("partition.num_clients", "partition.seed")


@pytest.mark.parametrize(
    "field", [f for f in _leaf_fields(ExperimentConfig()) if f not in DERIVED]
)
def test_every_config_field_has_a_key_a_flag_and_a_summary_line(
    tmp_path, built_configs, field
):
    [k] = [k for k in CONFIG_KEYS if k.field == field]
    default = k.value(ExperimentConfig())
    value, text = _other_value(default)
    config = tmp_path / "run.conf"
    config.write_text(f"{k.key}={text}\n")
    flag = f"--{k.key.replace('_', '-')}"
    if isinstance(value, bool):
        flags = [flag if value else f"--no-{k.key.replace('_', '-')}"]
    else:
        flags = [flag, text]
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "a")) == 0
    assert run_cli("run", *flags, "--out", str(tmp_path / "b")) == 0
    assert [k.value(cfg) for cfg in built_configs] == [value, value]
    history = [RoundRecord(1, 0.5, 1.0, 0.5, True, (0,), 0.0)]
    before, after = (
        [
            line
            for line in summary_text(cfg, history).splitlines()
            if line.startswith(f"config.{k.name}=")
        ]
        for cfg in (ExperimentConfig(), built_configs[0])
    )
    assert len(before) == 1 and before != after


@pytest.mark.parametrize(
    "tag", ["mlpx:16", "softmax:junk", "softmax:", "mlp:16:3", "mlp:8x16x10"]
)
def test_run_rejects_malformed_model_tags(tmp_path, capsys, tag):
    out = tmp_path / "out"
    assert run_cli("run", "--model", tag, "--rounds", "1", "--out", str(out)) == 1
    assert f"unknown shape_tag {tag!r}" in capsys.readouterr().err
    assert not (out / "run.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_run_fails_without_a_run_log(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--synthetic", "4x4x600", "--clients", "5", "--select-k", "2",
        "--rounds", "3", "--S", "10", "--lr", "1e300", "--out", str(out),
    )
    assert code == 1
    assert "round 1: non-finite" in capsys.readouterr().err
    assert not (out / "run.csv").exists()


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("bogus=1\n")
    assert run_cli("run", "--config", str(config)) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_run_on_dataset_file(tmp_path):
    src = tmp_path / "data.fedds"
    from fedclf.dataset import make_synthetic, save_dataset

    save_dataset(make_synthetic(240, 3, 3, seed=5), src)
    out = tmp_path / "out"
    code = run_cli(
        "run", "--input", str(src), "--clients", "6", "--select-k", "2",
        "--rounds", "2", "--S", "5", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    assert (out / "run.csv").exists()


# ---------------------------------------------------------------- battery


def battery_spec(tmp_path, seeds="1,2,3"):
    spec = tmp_path / "battery.conf"
    spec.write_text(
        "clients=8\nselect_k=2\nrounds=6\nlr=0.1\nbatch=16\nwindow=3\n"
        "synthetic=4x3x480\n"
        "strategies=fedclf,random\n"
        "datasets=s10-equal\n"
        f"seeds={seeds}\n"
    )
    return spec


def test_battery_row_count_and_pivot(tmp_path):
    spec = battery_spec(tmp_path)
    out = tmp_path / "battery"
    code = run_cli("battery", str(spec), "--out", str(out))
    assert code == 0
    rows = (out / "battery.csv").read_text().strip().splitlines()
    assert rows[0] == "dataset,strategy,seed,final_ma,mean_ma_last10,sampling_occasions"
    assert len(rows) == 1 + 2 * 1 * 3  # strategies x datasets x seeds
    pivot = (out / "battery_pivot.csv").read_text().strip().splitlines()
    assert pivot[0] == "dataset,fedclf,random"
    assert len(pivot) == 2
    # Pivot cells are the seed-averaged final moving averages.
    fedclf_rows = [float(r.split(",")[3]) for r in rows[1:] if ",fedclf," in r]
    assert float(pivot[1].split(",")[1]) == pytest.approx(
        np.mean(fedclf_rows), abs=1e-9
    )


def test_battery_rerun_identical(tmp_path):
    spec = battery_spec(tmp_path, seeds="5,6")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("battery", str(spec), "--out", str(out)) == 0
        outputs.append((out / "battery.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_battery_requires_lists(tmp_path, capsys):
    spec = tmp_path / "bad.conf"
    spec.write_text("clients=8\nstrategies=fedclf\ndatasets=s10-equal\n")
    assert run_cli("battery", str(spec), "--out", str(tmp_path / "x")) == 1
    assert "seeds" in capsys.readouterr().err
