"""Command-line interface: partition, run, battery."""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from enum import Enum

import numpy as np
import pytest

import fedclf.server
from fedclf.cli import _config_from_sources, build_parser, main
from fedclf.dataset import PartitionSpec, SplitMode, load_dataset, save_dataset
from fedclf.selection import FactorMode, Strategy
from fedclf.server import (
    CONFIG_KEYS,
    Experiment,
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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--cluster-spread", "nan", "cluster_spread must be finite, got nan"),
        ("--cluster-spread", "-inf", "cluster_spread must be finite, got -inf"),
        ("--test-fraction", "nan", "test_fraction must lie in (0, 1), got nan"),
        ("--test-fraction", "1", "test_fraction must lie in (0, 1), got 1.0"),
    ],
)
def test_partition_rejects_a_bad_data_setting_before_any_work(tmp_path, capsys, flag, value, message):
    out = tmp_path / "parts"
    code = run_cli(
        "partition", "--synthetic", "3x3x240", "--clients", "6", "--S", "5",
        f"{flag}={value}", "--out", str(out),
    )
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    ("mode", "digest"),
    [
        ("equal", "51e3d3b98606003d6dee347117f5de00be2ddf5ed718f17cd18d9e0194b32c19"),
        ("nonequal", "5cd67c8d537a822f4c8ca91832ed688eefeb32a554575283f929007f31b10673"),
    ],
    ids=["equal", "nonequal"],
)
def test_partition_report_bytes_are_pinned(tmp_path, mode, digest):
    # Recorded while the split still copied the training split and the EMD
    # reference was that copy's labels.  Partitioning and the report use no
    # BLAS, so the digests hold on any machine.
    out = tmp_path / mode
    assert run_cli(
        "partition", "--synthetic", "4x3x400", "--S", "10", "--clients", "8",
        "--mode", mode, "--seed", "9", "--out", str(out),
    ) == 0
    assert hashlib.sha256((out / "report.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    ("mode", "digest"),
    [
        ("equal", "780f6fb0ed97fc5c537682c5efe749b4ab2ec4c0ff1c074378f8df3f14ba2bd5"),
        ("nonequal", "96c5375a08d6991e2a50012303161da0db434709cbbf8ed7237d1ef4da7725c7"),
    ],
    ids=["equal", "nonequal"],
)
def test_partition_shard_bytes_are_pinned(tmp_path, mode, digest):
    # One digest over every shard file, name then bytes, in name order.
    # Recorded while each client was a view object of its own; the shard
    # files use no BLAS, so the digests hold on any machine.
    out = tmp_path / mode
    assert run_cli(
        "partition", "--synthetic", "4x3x400", "--S", "10", "--clients", "8",
        "--mode", mode, "--seed", "9", "--out", str(out),
    ) == 0
    sha = hashlib.sha256()
    shards = sorted(out.glob("client_*.fedds"))
    for path in shards:
        sha.update(path.name.encode())
        sha.update(path.read_bytes())
    assert len(shards) == 8
    assert sha.hexdigest() == digest


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
        assert len(list(out.glob("client_*.fedds"))) == len(experiment.shards) == 3
        for cid, shard in enumerate(experiment.shards):
            expected = out / f"run_{cid:03d}.fedds"
            save_dataset(shard, expected)
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
        "model": "mlp:7",
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
    assert not out.exists()


def bad_out_paths(tmp_path):
    """An existing file, and a path under that file."""
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    return [afile, afile / "out"]


def test_run_with_a_bad_out_fails_before_any_round(tmp_path, capsys, monkeypatch):
    rounds = []
    monkeypatch.setattr(Experiment, "run_round", lambda self, i: rounds.append(i))
    for out in bad_out_paths(tmp_path):
        code = run_cli(
            "run", "--synthetic", "3x3x240", "--clients", "6", "--select-k", "2",
            "--S", "5", "--rounds", "100000", "--out", str(out),
        )
        assert code == 1
        assert f"cannot write output to {out}: " in capsys.readouterr().err
    assert rounds == []
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_partition_with_a_bad_out_fails_before_building_it(tmp_path, capsys, monkeypatch):
    def build_partition(cfg):
        raise AssertionError("the partition was built")

    monkeypatch.setattr("fedclf.cli.build_partition", build_partition)
    for out in bad_out_paths(tmp_path):
        code = run_cli(
            "partition", "--synthetic", "3x3x240", "--clients", "6", "--S", "5",
            "--out", str(out),
        )
        assert code == 1
        assert "not a writable directory" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    for key, value in [
        ("bogus", "1"),
        ("out", "elsewhere"),
        ("checkpoint_every", "2"),
        # Battery lists belong to battery specs only.
        ("strategies", "random"),
        ("datasets", "s5-equal"),
        ("seeds", "5"),
    ]:
        config.write_text(f"{key}={value}\n")
        assert run_cli("run", "--config", str(config)) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_run_rejects_a_repeated_config_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("lr=0.1\nrounds=1\n# a later value must not win\nlr=0.5\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
    assert f"{config}:4: key 'lr' already set on line 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, setting",
    [
        ("--lr", "nan", "learning_rate"),
        ("--lr", "inf", "learning_rate"),
        ("--cluster-spread", "nan", "cluster_spread"),
        ("--cluster-spread", "inf", "cluster_spread"),
    ],
)
def test_run_rejects_a_non_finite_setting_before_any_work(tmp_path, capsys, flag, value, setting):
    out = tmp_path / "out"
    assert run_cli("run", flag, value, "--rounds", "1", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{setting} must be finite" in err and "non-finite" not in err
    assert not out.exists()


def test_config_value_error_names_file_line_and_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("rounds=1\nlr=\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
    assert f"{config}:2: lr: could not convert string to float: ''" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_an_empty_input_path(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("input=\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config), "--out", str(out)) == 1
    assert f"{config}:1: input: empty path" in capsys.readouterr().err
    assert not out.exists()


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


def set_spec_line(spec, key, text):
    """Replace the ``key=...`` line of a battery spec with ``text``."""
    lines = spec.read_text().splitlines()
    spec.write_text("\n".join(text if x.startswith(f"{key}=") else x for x in lines) + "\n")


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


def test_battery_builds_each_groups_data_once_and_shares_its_warmup_rounds(
    tmp_path, monkeypatch
):
    # K = 8 and k = 2 give W = 4 warmup rounds, so each (dataset, seed)
    # group runs its first P = min(W - 1, R - 1) = 3 of R = 6 rounds once.
    built, rounds = [], []
    real_build = fedclf.server.build_partition
    real_round = Experiment.run_round

    def build_partition(cfg):
        built.append((cfg.partition.split_mode, cfg.seed))
        return real_build(cfg)

    def run_round(self, round_index):
        rounds.append(round_index)
        return real_round(self, round_index)

    monkeypatch.setattr(fedclf.server, "build_partition", build_partition)
    monkeypatch.setattr(Experiment, "run_round", run_round)
    spec = battery_spec(tmp_path, seeds="1,2")
    set_spec_line(spec, "strategies", "strategies=" + ",".join(s.value for s in Strategy))
    set_spec_line(spec, "datasets", "datasets=s10-equal,s10-nonequal")
    out = tmp_path / "battery"
    assert run_cli("battery", str(spec), "--out", str(out)) == 0
    groups = [(mode, seed) for mode in SplitMode for seed in (1, 2)]
    assert built == groups
    shared, total = 3, 6
    assert len(rounds) == 4 * shared + 24 * (total - shared)
    rows = (out / "battery.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1:3] for r in rows[:4]] == [
        ["fedclf", "1"], ["fedclf", "2"], ["rawloss", "1"], ["rawloss", "2"]
    ]
    assert len(rows) == 24


def test_battery_with_a_bad_out_fails_before_any_cell(tmp_path, capsys, monkeypatch):
    cells = []
    monkeypatch.setattr("fedclf.cli.run_experiment", lambda *args, **kwargs: cells.append(args))
    spec = battery_spec(tmp_path)
    for out in bad_out_paths(tmp_path):
        assert run_cli("battery", str(spec), "--out", str(out)) == 1
        assert f"cannot write output to {out}: " in capsys.readouterr().err
    assert cells == []
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_battery_rejects_out_key(tmp_path, capsys):
    # The output directory is only ever --out; a spec key would be ignored.
    spec = battery_spec(tmp_path)
    spec.write_text(spec.read_text() + f"out={tmp_path / 'spec-out'}\n")
    out = tmp_path / "battery"
    assert run_cli("battery", str(spec), "--out", str(out)) == 1
    assert "unknown config key 'out'" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "spec-out").exists()


def test_battery_rejects_a_repeated_key(tmp_path, capsys):
    spec = battery_spec(tmp_path)
    spec.write_text(spec.read_text() + "seeds=4\n")
    out = tmp_path / "battery"
    assert run_cli("battery", str(spec), "--out", str(out)) == 1
    assert f"{spec}:11: key 'seeds' already set on line 10" in capsys.readouterr().err
    assert not out.exists()


def test_battery_seed_entry_error_names_file_line_and_key(tmp_path, capsys):
    spec = battery_spec(tmp_path, seeds="1,x")
    out = tmp_path / "battery"
    assert run_cli("battery", str(spec), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{spec}:10: seeds: invalid literal for int() with base 10: 'x'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "battery"])
def test_synthetic_spec_error_names_the_key_not_the_flag(tmp_path, capsys, command):
    spec = battery_spec(tmp_path)
    set_spec_line(spec, "synthetic", "synthetic=3x3")
    out = tmp_path / "out"
    if command == "run":
        for key in ("strategies", "datasets", "seeds"):
            set_spec_line(spec, key, "")
        assert run_cli("run", "--config", str(spec), "--out", str(out)) == 1
    else:
        assert run_cli("battery", str(spec), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{spec}:7: synthetic: bad spec '3x3', want CxFxN" in err
    assert "--synthetic" not in err
    assert not out.exists()


@pytest.mark.parametrize("seeds_line, where", [(None, ""), ("seeds=", ":10")])
def test_battery_without_seeds_names_the_spec_file(tmp_path, capsys, seeds_line, where):
    spec = battery_spec(tmp_path)
    set_spec_line(spec, "seeds", seeds_line or "# no seeds")
    out = tmp_path / "battery"
    assert run_cli("battery", str(spec), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{spec}{where}: battery spec must set a non-empty 'seeds' list" in err
    assert not out.exists()


def test_battery_dataset_entry_error_names_file_line_and_key(tmp_path, capsys):
    spec = battery_spec(tmp_path)
    set_spec_line(spec, "datasets", "datasets=s-equal")
    out = tmp_path / "battery"
    assert run_cli("battery", str(spec), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{spec}:9: datasets: bad dataset entry 's-equal', want s<S>-<equal|nonequal>" in err
    assert not out.exists()


def test_battery_zero_shard_size_names_file_line_and_key(tmp_path, capsys):
    spec = battery_spec(tmp_path)
    set_spec_line(spec, "datasets", "datasets=s10-equal,s0-equal")
    out = tmp_path / "battery"
    assert run_cli("battery", str(spec), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{spec}:9: datasets: bad dataset entry 's0-equal', shard size S must be positive" in err
    assert not out.exists()


def test_battery_entry_whose_partition_fails_names_file_line_key_and_entry(tmp_path, capsys):
    spec = battery_spec(tmp_path)
    set_spec_line(spec, "datasets", "datasets=s10-equal,s500-equal")
    out = tmp_path / "battery"
    assert run_cli("battery", str(spec), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"error: {spec}:9: datasets: s500-equal: shard_size S=500 yields only 1 shards " in err
    assert not (out / "battery.csv").exists()


@pytest.mark.parametrize(
    "line, list_key",
    [
        ("strategy=random", "strategies"),
        ("seed=4", "seeds"),
        ("S=5", "datasets"),
        ("split=nonequal", "datasets"),
    ],
)
def test_battery_rejects_a_key_every_cell_sets(tmp_path, capsys, line, list_key):
    spec = battery_spec(tmp_path)
    spec.write_text(spec.read_text() + line + "\n")
    out = tmp_path / "battery"
    assert run_cli("battery", str(spec), "--out", str(out)) == 1
    key = line.partition("=")[0]
    assert f"{spec}:11: key {key!r} is set per cell by {list_key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, entries, repeated",
    [
        ("datasets", "s10-equal,s10-equal", "s10-equal"),
        ("datasets", "s10-equal,S10-Equal", "S10-Equal"),  # the same cells
        ("seeds", "1,2,1", "1"),
        ("strategies", "fedclf,random,fedclf", "fedclf"),
    ],
)
def test_battery_rejects_a_repeated_list_entry(tmp_path, capsys, key, entries, repeated):
    spec = battery_spec(tmp_path)
    set_spec_line(spec, key, f"{key}={entries}")
    out = tmp_path / "battery"
    assert run_cli("battery", str(spec), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert f"{spec}:" in err and f": {key}: entry {repeated!r} repeated" in err
    assert not out.exists()


def test_battery_requires_lists(tmp_path, capsys):
    spec = tmp_path / "bad.conf"
    spec.write_text("clients=8\nstrategies=fedclf\ndatasets=s10-equal\n")
    assert run_cli("battery", str(spec), "--out", str(tmp_path / "x")) == 1
    assert "seeds" in capsys.readouterr().err
