"""Command-line front end: partition datasets, run experiments, run batteries.

Configuration precedence: built-in defaults < ``--config`` key=value file <
explicit flags.  Each row of ``server.CONFIG_KEYS`` gives one config-file key
and its flag ``--<key>``.  Battery specs use the same key=value format plus
the list keys ``strategies``, ``datasets`` (entries like ``s50-equal``) and
``seeds``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from enum import EnumMeta
from functools import cache
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .dataset import ConfigurationError, SplitMode, partition_report, save_dataset
from .selection import Strategy
from .server import (
    CONFIG_KEYS,
    ConfigKey,
    ExperimentConfig,
    battery_groups,
    build_partition,
    check_out_dir,
    run_experiment,
    summary_text,
)

__all__ = ["main"]


def _parse_synthetic(text: str) -> tuple[int, int, int]:
    """Parse a CxFxN spec like ``10x8x6000``."""
    bad = argparse.ArgumentTypeError  # argparse shows its message as is
    try:
        c, f, n = (int(p) for p in text.split("x"))
    except ValueError:
        raise bad(f"bad spec {text!r}, want CxFxN") from None
    if c < 1 or f < 1 or n < 1:
        raise bad(f"bad spec {text!r}, counts must be positive")
    return c, f, n


def _read_kv_file(path: Path) -> dict[str, tuple[int, str]]:
    """``key -> (line number, value text)``; a key may appear once."""
    values: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {values[key][0]}")
        values[key] = lineno, value.strip()
    return values


def _parse_at(path: Path, lineno: int, key: str, parse, text: str):
    """``parse(text)``; a failure names the file, line and key."""
    try:
        return parse(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in _BOOL_TRUE:
        return True
    if lowered in _BOOL_FALSE:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("empty path, want a FEDDS dataset file")
    return str(Path(text))


_PARSERS = {
    bool: _parse_bool,
    int: int,
    float: float,
    str: str,
    str | None: _parse_path,
    tuple[int, int, int]: _parse_synthetic,
}
_KEYS = {k.key: k for k in CONFIG_KEYS}
_BATTERY_KEYS = ("strategies", "datasets", "seeds")
# Run keys that every battery cell sets from a list key.
_CELL_KEYS = {"strategy": "strategies", "seed": "seeds", "S": "datasets", "split": "datasets"}
_type_hints = cache(get_type_hints)  # each call evaluates every annotation again


def _parser(k: ConfigKey):
    """Text -> value for the type of the field ``k`` sets."""
    kind = ExperimentConfig
    for name in k.field.split("."):
        kind = _type_hints(kind)[name]
    return kind if isinstance(kind, EnumMeta) else _PARSERS[kind]


def _add_flag(parser: argparse.ArgumentParser, k: ConfigKey, *aliases: str) -> None:
    parse = _parser(k)
    if parse is _parse_bool:
        how = {"action": argparse.BooleanOptionalAction}
    else:
        choices = [m.value for m in parse] if isinstance(parse, EnumMeta) else None
        how = {"type": parse, "choices": choices}
    parser.add_argument(
        f"--{k.key.replace('_', '-')}",
        *aliases,
        dest=k.key,
        help=f"{k.help} (key {k.key}, summary config.{k.name})",
        **how,
    )


def _config_from_sources(
    args: argparse.Namespace, own_keys: tuple[str, ...] = ()
) -> ExperimentConfig:
    """Merge defaults, config file and flags into an ExperimentConfig.

    ``own_keys`` are config-file keys the caller reads itself; any other key
    that is not a ``CONFIG_KEYS`` row fails."""
    values: dict[str, object] = {}
    if getattr(args, "config", None) is not None:
        for key, (lineno, text) in _read_kv_file(args.config).items():
            if key in own_keys:
                continue
            if key not in _KEYS:
                raise ValueError(f"{args.config}:{lineno}: unknown config key {key!r}")
            parse = _parser(_KEYS[key])
            values[_KEYS[key].field] = _parse_at(args.config, lineno, key, parse, text)
    for k in CONFIG_KEYS:
        if getattr(args, k.key, None) is not None:
            values[k.field] = getattr(args, k.key)
    spec = {f.partition(".")[2]: v for f, v in values.items() if "." in f}
    cfg = replace(ExperimentConfig(), **{f: v for f, v in values.items() if "." not in f})
    # The spec's client count mirrors the run's (build_experiment sets it anyway).
    return replace(
        cfg, partition=replace(cfg.partition, num_clients=cfg.num_clients, **spec)
    )


def cmd_partition(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ValueError("partition requires --out DIR")
    if (args.input is None) == (args.synthetic is None):
        raise ValueError("give exactly one of --input FILE or --synthetic CxFxN")
    check_out_dir(args.out)
    shards, _ = build_partition(_config_from_sources(args))
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    for client_id, shard in enumerate(shards):
        save_dataset(shard, out / f"client_{client_id:03d}.fedds")
    report = partition_report(shards)
    (out / "report.csv").write_text(report)
    print(f"wrote {len(shards)} shard files and report.csv to {out}")
    print(report.splitlines()[-1])
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_sources(args)
    history = run_experiment(cfg, out_dir=args.out)
    final = history[-1]
    occasions = sum(1 for r in history if r.selection_ran)
    print(
        f"strategy={cfg.strategy.value} rounds={len(history)} "
        f"final_acc={final.test_accuracy:.4f} final_ma={final.ma_accuracy:.4f} "
        f"sampling_occasions={occasions}"
    )
    if args.out is None:
        sys.stdout.write(summary_text(cfg, history))
    return 0


def _parse_dataset_entry(entry: str) -> tuple[int, SplitMode]:
    """Parse a battery dataset entry like ``s50-equal``."""
    size, _, mode = entry.lower().partition("-")
    if size[:1] != "s" or not size[1:].isdecimal() or mode not in [m.value for m in SplitMode]:
        raise ValueError(f"bad dataset entry {entry!r}, want s<S>-<equal|nonequal>")
    if int(size[1:]) < 1:
        raise ValueError(f"bad dataset entry {entry!r}, shard size S must be positive")
    return int(size[1:]), SplitMode(mode)


def _parse_list(path: Path, values: dict, key: str, parse) -> list:
    """The comma-separated entries of list key ``key``, each parsed; an
    entry that fails to parse or repeats an earlier one fails."""
    lineno, text = values.get(key, (0, ""))
    if not text:
        where = f"{path}:{lineno}" if key in values else str(path)
        raise ValueError(f"{where}: battery spec must set a non-empty {key!r} list")
    entries = []
    for part in text.split(","):
        entry = _parse_at(path, lineno, key, parse, part.strip())
        if entry in entries:
            raise ValueError(f"{path}:{lineno}: {key}: entry {part.strip()!r} repeated")
        entries.append(entry)
    return entries


def cmd_battery(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ValueError("battery requires --out DIR")
    values = _read_kv_file(args.spec)
    for key, list_key in _CELL_KEYS.items():
        if key in values:
            raise ValueError(
                f"{args.spec}:{values[key][0]}: key {key!r} is set per cell by {list_key!r}"
            )
    strategies = _parse_list(args.spec, values, "strategies", Strategy)
    datasets = _parse_list(args.spec, values, "datasets", _parse_dataset_entry)
    seeds = _parse_list(args.spec, values, "seeds", int)
    base_cfg = _config_from_sources(argparse.Namespace(config=args.spec), _BATTERY_KEYS)
    check_out_dir(args.out)

    rows = ["dataset,strategy,seed,final_ma,mean_ma_last10,sampling_occasions"]
    pivot = ["dataset," + ",".join(s.value for s in strategies)]
    with battery_groups():
        for shard_size, split_mode in datasets:
            name = f"s{shard_size}-{split_mode.value}"
            shards = replace(base_cfg.partition, shard_size=shard_size, split_mode=split_mode)
            # The cells of one seed share their data and warmup rounds, so
            # they run together; rows keep the strategy-then-seed order.
            histories = {}
            for seed in seeds:
                for strategy in strategies:
                    # Baselines sample every round; only the calibrated-loss
                    # strategy runs with the feedback gate.
                    feedback = base_cfg.feedback_enabled and strategy is Strategy.FEDCLF
                    cfg = replace(
                        base_cfg, strategy=strategy, partition=shards, seed=seed,
                        feedback_enabled=feedback,
                    )
                    try:
                        histories[strategy, seed] = run_experiment(cfg)
                    except ConfigurationError as exc:
                        where = f"{args.spec}:{values['datasets'][0]}: datasets: {name}"
                        raise ValueError(f"{where}: {exc}") from None
            cells = []
            for strategy in strategies:
                final_ma = []
                for seed in seeds:
                    history = histories[strategy, seed]
                    final_ma.append(history[-1].ma_accuracy)
                    tail_ma = float(np.mean([r.ma_accuracy for r in history[-10:]]))
                    rows.append(
                        f"{name},{strategy.value},{seed},{final_ma[-1]:.10f},{tail_ma:.10f},"
                        f"{sum(r.selection_ran for r in history)}"
                    )
                cells.append(f"{float(np.mean(final_ma)):.10f}")
            pivot.append(f"{name}," + ",".join(cells))

    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "battery.csv").write_text("\n".join(rows) + "\n")
    (out / "battery_pivot.csv").write_text("\n".join(pivot) + "\n")
    print(f"wrote {len(rows) - 1} battery rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedclf",
        description="Deterministic federated-learning simulator with "
        "calibrated-loss selection and feedback-controlled sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="partition a dataset and report skew")
    for key in (
        "synthetic", "input", "S", "clients", "min_fraction", "seed",
        "test_fraction", "cluster_spread",
    ):
        _add_flag(p_part, _KEYS[key])
    _add_flag(p_part, _KEYS["split"], "--mode")
    p_part.add_argument("--out", type=Path, help="output directory")
    p_part.set_defaults(func=cmd_partition)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", type=Path, help="key=value config file")
    for k in CONFIG_KEYS:
        _add_flag(p_run, k)
    p_run.add_argument("--out", type=Path, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_bat = sub.add_parser("battery", help="run a strategy-comparison battery")
    p_bat.add_argument("spec", type=Path, help="battery spec file (key=value)")
    p_bat.add_argument("--out", type=Path, help="output directory")
    p_bat.set_defaults(func=cmd_battery)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
