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

from .dataset import (
    SplitMode,
    label_distribution,
    partition_report,
    save_dataset,
)
from .selection import Strategy
from .server import (
    CONFIG_KEYS,
    ConfigKey,
    ExperimentConfig,
    build_partition,
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
        raise bad(f"bad --synthetic spec {text!r}, want CxFxN") from None
    if c < 1 or f < 1 or n < 1:
        raise bad(f"bad --synthetic spec {text!r}, counts must be positive")
    return c, f, n


def _read_kv_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value.strip()
    return values


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
        for key, text in _read_kv_file(args.config).items():
            if key in own_keys:
                continue
            if key not in _KEYS:
                raise ValueError(f"unknown config key {key!r}")
            values[_KEYS[key].field] = _parser(_KEYS[key])(text)
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
    clients, train, _ = build_partition(_config_from_sources(args))
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    for client in clients:
        save_dataset(client.data, out / f"client_{client.client_id:03d}.fedds")
    report = partition_report(clients, label_distribution(train))
    (out / "report.csv").write_text(report)
    print(f"wrote {len(clients)} shard files and report.csv to {out}")
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
    text = entry.strip().lower()
    if not text.startswith("s") or "-" not in text:
        raise ValueError(f"bad dataset entry {entry!r}, want s<S>-<equal|nonequal>")
    size_text, _, mode_text = text[1:].partition("-")
    return int(size_text), SplitMode(mode_text)


def cmd_battery(args: argparse.Namespace) -> int:
    if args.out is None:
        raise ValueError("battery requires --out DIR")
    values = _read_kv_file(args.spec)
    for key in _BATTERY_KEYS:
        if key not in values or not values[key].strip():
            raise ValueError(f"battery spec must set a non-empty {key!r} list")
    strategies = [Strategy(s.strip()) for s in values["strategies"].split(",")]
    datasets = [_parse_dataset_entry(e) for e in values["datasets"].split(",")]
    seeds = [int(s.strip()) for s in values["seeds"].split(",")]
    base_cfg = _config_from_sources(argparse.Namespace(config=args.spec), _BATTERY_KEYS)

    rows: list[tuple[str, str, int, float, float, int]] = []
    for shard_size, split_mode in datasets:
        name = f"s{shard_size}-{split_mode.value}"
        for strategy in strategies:
            for seed in seeds:
                cfg = replace(
                    base_cfg,
                    strategy=strategy,
                    seed=seed,
                    partition=replace(
                        base_cfg.partition,
                        shard_size=shard_size,
                        split_mode=split_mode,
                    ),
                    # Baselines sample every round; only the calibrated-loss
                    # strategy runs with the feedback gate.
                    feedback_enabled=(
                        base_cfg.feedback_enabled and strategy is Strategy.FEDCLF
                    ),
                )
                history = run_experiment(cfg)
                ma_tail = [r.ma_accuracy for r in history[-10:]]
                rows.append(
                    (
                        name,
                        strategy.value,
                        seed,
                        history[-1].ma_accuracy,
                        float(np.mean(ma_tail)),
                        sum(1 for r in history if r.selection_ran),
                    )
                )

    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    lines = ["dataset,strategy,seed,final_ma,mean_ma_last10,sampling_occasions"]
    for name, strategy, seed, final_ma, tail_ma, occasions in rows:
        lines.append(
            f"{name},{strategy},{seed},{final_ma:.10f},{tail_ma:.10f},{occasions}"
        )
    (out / "battery.csv").write_text("\n".join(lines) + "\n")

    pivot = ["dataset," + ",".join(s.value for s in strategies)]
    for shard_size, split_mode in datasets:
        name = f"s{shard_size}-{split_mode.value}"
        cells = []
        for strategy in strategies:
            per_seed = [
                row[3] for row in rows if row[0] == name and row[1] == strategy.value
            ]
            cells.append(f"{float(np.mean(per_seed)):.10f}")
        pivot.append(f"{name}," + ",".join(cells))
    (out / "battery_pivot.csv").write_text("\n".join(pivot) + "\n")
    print(f"wrote {len(rows)} battery rows to {out}")
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
