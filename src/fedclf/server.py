"""Server round loop: gated selection, dispatch, aggregation, metrics.

Each round the server (1) consults the feedback gate, (2) selects a cohort or
reuses the previous one, (3) dispatches local training to the cohort,
(4) aggregates the returned parameters by sample-count weights, (5) evaluates
the new global model on the held-out test set, and (6) appends a round
record including the moving-average accuracy.

Client utilities are measured at the model each client received, but only
when something reads them: the server keeps the last trained cohort with its
received model and measures it when the gate opens (before ``select``) and
once at the end of ``run``.  A round that reuses the cohort only replaces the
pending cohort, whose utilities no selection would have read.

The gate resamples only when test accuracy strictly declined between the last
two rounds; rounds 1 and 2 and every warmup round always select.  Disabling
feedback selects every round.

Determinism: all randomness is derived from the experiment seed via
``seeds.split_seed``, and client results are aggregated in client-id order.
The cohort trains as one stacked block whose results are bitwise equal to
training each client alone.  In the emitted CSV, the timestamp header line
and the ``elapsed_s`` column are wall-clock measurements and are excluded
from the byte-determinism contract (see ``deterministic_csv_payload``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from enum import Enum
from functools import reduce
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .client import ClientUpdateResult, NonFiniteUpdateError, client_update, measure_utilities
from .dataset import (
    ClientDataset,
    LabeledDataset,
    PartitionSpec,
    SplitMode,
    load_dataset,
    make_synthetic,
    partition,
    split_train_test,
)
from .model import (
    ModelParams,
    TrainConfig,
    evaluate,
    init_params,
    resolve_shape_tag,
    save_params,
)
from .seeds import split_seed
from .selection import (
    FactorMode,
    GlobalTrend,
    SelectorState,
    Strategy,
    make_selector,
    record_utilities,
    select,
    selection_factor,
    update_after_round,
    warmup_rounds,
)

__all__ = [
    "RoundRecord",
    "ExperimentConfig",
    "ConfigKey",
    "CONFIG_KEYS",
    "Experiment",
    "aggregate",
    "build_partition",
    "feedback_gate",
    "moving_average",
    "run_experiment",
    "run_log_csv",
    "selection_log_csv",
    "summary_text",
    "deterministic_csv_payload",
]

RUN_LOG_HEADER = "round,accuracy,test_loss,ma_accuracy,selection_ran,selected_ids,elapsed_s"
SELECTION_LOG_HEADER = "round,strategy,sampled_flag,selected_ids,factor_mode,factor_value"


@dataclass(frozen=True)
class RoundRecord:
    """Per-round log entry."""

    round_index: int
    test_accuracy: float
    test_loss: float
    ma_accuracy: float
    selection_ran: bool
    selected_ids: tuple[int, ...]
    wall_time: float


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment run.

    ``shape_tag`` is ``"softmax"`` or ``"mlp:<hidden>"``; the data dimensions
    are filled in from the dataset.  ``synthetic_shape`` is
    (classes, features, samples) for the generated dataset and is ignored
    when ``dataset_path`` is set.  ``partition.seed`` and
    ``partition.num_clients`` are overridden from this config, so the single
    ``seed`` here determines the entire run.  ``CONFIG_KEYS`` names every
    other field.
    """

    num_clients: int = 50
    select_k: int = 5
    rounds: int = 100
    epochs: int = 1
    learning_rate: float = 0.001
    batch_size: int = 32
    shape_tag: str = "softmax"
    strategy: Strategy = Strategy.FEDCLF
    factor_mode: FactorMode = FactorMode.LOSS_RATIO
    feedback_enabled: bool = True
    partition: PartitionSpec = field(
        default_factory=lambda: PartitionSpec(
            shard_size=50, split_mode=SplitMode.EQUAL, num_clients=50
        )
    )
    moving_avg_window: int = 30
    seed: int = 0
    synthetic_shape: tuple[int, int, int] = (10, 8, 7200)
    dataset_path: str | None = None
    test_fraction: float = 1.0 / 6.0
    cluster_spread: float = 1.0
    warmup_enabled: bool = True
    compound_factors: bool = False
    checkpoint_every: int = 0

    def validate(self) -> None:
        if not 1 <= self.select_k <= self.num_clients:
            raise ValueError(
                f"need 1 <= k <= K, got k={self.select_k}, K={self.num_clients}"
            )
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.moving_avg_window < 1:
            raise ValueError("moving_avg_window must be >= 1")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        resolve_shape_tag(self.shape_tag, 1, 1)  # any data dims: checks the grammar
        if self.dataset_path is None:
            c, f, n = self.synthetic_shape
            if c < 1 or f < 1 or n < 1:
                raise ValueError(f"bad synthetic_shape {self.synthetic_shape}")


class ConfigKey(NamedTuple):
    """One run setting: its config-file key (the flag is ``--<key>`` with
    ``-`` for ``_``), the dotted ``ExperimentConfig`` field it sets, and help."""

    key: str
    field: str
    help: str

    @property
    def name(self) -> str:
        """The name in ``summary.txt`` (``config.<name>``)."""
        return self.field.rpartition(".")[2]

    def value(self, cfg: ExperimentConfig) -> object:
        return reduce(getattr, self.field.split("."), cfg)


# In summary.txt order.
CONFIG_KEYS = (
    ConfigKey("clients", "num_clients", "total clients K"),
    ConfigKey("select_k", "select_k", "clients selected per round"),
    ConfigKey("rounds", "rounds", "total rounds R"),
    ConfigKey("epochs", "epochs", "local epochs E"),
    ConfigKey("lr", "learning_rate", "learning rate"),
    ConfigKey("batch", "batch_size", "local batch size"),
    ConfigKey("model", "shape_tag", "softmax or mlp:<hidden>"),
    ConfigKey("strategy", "strategy", "selection strategy"),
    ConfigKey("factor_mode", "factor_mode", "calibration correction factor"),
    ConfigKey("feedback", "feedback_enabled", "resample only on accuracy decline"),
    ConfigKey("S", "partition.shard_size", "partition shard size"),
    ConfigKey("split", "partition.split_mode", "equal or nonequal split"),
    ConfigKey("min_fraction", "partition.min_fraction", "nonequal share floor"),
    ConfigKey("window", "moving_avg_window", "moving-average window N"),
    ConfigKey("seed", "seed", "experiment seed"),
    ConfigKey("synthetic", "synthetic_shape", "synthetic dataset spec CxFxN"),
    ConfigKey("input", "dataset_path", "FEDDS dataset file to train on"),
    ConfigKey("test_fraction", "test_fraction", "held-out test share"),
    ConfigKey("cluster_spread", "cluster_spread", "synthetic class-cluster spread"),
    ConfigKey("warmup", "warmup_enabled", "unique-sampling warmup rounds"),
    ConfigKey(
        "compound_factors",
        "compound_factors",
        "scale stale utilities by the trend since each client last trained",
    ),
    ConfigKey("checkpoint_every", "checkpoint_every", "checkpoint period"),
)


def _echo(value: object) -> str:
    """A config value as ``summary.txt`` spells it."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return "x".join(str(v) for v in value)
    return "" if value is None else str(value)


def aggregate(results: Sequence[ClientUpdateResult]) -> ModelParams:
    """Sample-count-weighted mean of the clients' returned parameters."""
    if not results:
        raise ValueError("cannot aggregate zero results")
    tags = {r.new_params.shape_tag for r in results}
    if len(tags) != 1:
        raise ValueError(f"mixed shape tags in aggregation: {sorted(tags)}")
    total = sum(r.n_k for r in results)
    if total <= 0:
        raise ValueError("total sample count is zero")
    out = np.zeros_like(results[0].new_params.values)
    for r in results:
        out += (r.n_k / total) * r.new_params.values
    return ModelParams(out, results[0].new_params.shape_tag)


def feedback_gate(
    history: Sequence[RoundRecord],
    round_index: int,
    enabled: bool = True,
    warmup: int = 0,
) -> bool:
    """Should round ``round_index`` resample its cohort?

    Rounds 1 and 2 and every warmup round always resample; with feedback
    disabled every round resamples; otherwise resample iff the test accuracy
    strictly declined between the two previous rounds.
    """
    if len(history) < round_index - 1:
        raise ValueError(
            f"history holds {len(history)} rounds, need {round_index - 1}"
        )
    if round_index <= 2 or round_index <= warmup:
        return True
    if not enabled:
        return True
    acc_prev = history[round_index - 2].test_accuracy
    acc_prev2 = history[round_index - 3].test_accuracy
    return acc_prev < acc_prev2


def moving_average(acc_history: Sequence[float], round_index: int, window: int) -> float:
    """Mean of the last ``min(window, round_index)`` accuracies."""
    if round_index < 1:
        raise ValueError("round_index must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    start = max(0, round_index - window)
    values = acc_history[start:round_index]
    return float(np.mean(values))


class Experiment:
    """One configured run over pre-built client shards and a test set."""

    def __init__(
        self,
        cfg: ExperimentConfig,
        clients: list[ClientDataset],
        test_data: LabeledDataset,
    ):
        cfg.validate()
        if len(clients) != cfg.num_clients:
            raise ValueError(
                f"{len(clients)} client shards for K={cfg.num_clients}"
            )
        self.cfg = cfg
        self.clients = {c.client_id: c for c in clients}
        self.test_data = test_data
        full_tag = resolve_shape_tag(
            cfg.shape_tag, test_data.num_features, test_data.num_classes
        )
        self.params = init_params(full_tag, split_seed(cfg.seed, "init"))
        self.selector: SelectorState = make_selector(
            cfg.strategy,
            clients,
            split_seed(cfg.seed, "selection"),
            factor_mode=cfg.factor_mode,
            warmup_enabled=cfg.warmup_enabled,
            compound_factors=cfg.compound_factors,
        )
        self.history: list[RoundRecord] = []
        self.selection_log: list[str] = [SELECTION_LOG_HEADER]
        # The last trained cohort, not yet measured: (round, ids, received model).
        self.pending: tuple[int, list[int], ModelParams] | None = None
        self.warmup = warmup_rounds(cfg.num_clients, cfg.select_k) if cfg.warmup_enabled else 0

    def _trend(self) -> GlobalTrend:
        if len(self.history) >= 2:
            return GlobalTrend(
                acc_prev=self.history[-1].test_accuracy,
                acc_prev2=self.history[-2].test_accuracy,
                loss_prev=self.history[-1].test_loss,
                loss_prev2=self.history[-2].test_loss,
            )
        return GlobalTrend.empty()

    def _dispatch(self, ids: list[int], round_index: int) -> list[ClientUpdateResult]:
        """Train the cohort in one stacked call; results in client-id order."""
        cfg = self.cfg
        train_cfgs = [
            TrainConfig(
                epochs=cfg.epochs,
                learning_rate=cfg.learning_rate,
                batch_size=cfg.batch_size,
                rng_seed=split_seed(cfg.seed, f"train-r{round_index}", cid),
            )
            for cid in ids
        ]
        try:
            return client_update([self.clients[cid] for cid in ids], self.params, train_cfgs)
        except NonFiniteUpdateError as exc:
            raise NonFiniteUpdateError(exc.client_ids, round_index) from None

    def measure_pending(self) -> None:
        """Measure the pending cohort at the model it received and store its
        utilities in the selector; errors name the round it trained in."""
        if self.pending is None:
            return
        round_index, ids, received = self.pending
        self.pending = None
        try:
            utilities = measure_utilities(
                [self.clients[cid] for cid in ids],
                received,
                want_grad_norm=self.cfg.strategy is Strategy.GRAD_NORM,
            )
        except NonFiniteUpdateError as exc:
            raise NonFiniteUpdateError(exc.client_ids, round_index) from None
        record_utilities(self.selector, ids, *utilities)

    def run_round(self, round_index: int) -> RoundRecord:
        started = time.perf_counter()
        cfg = self.cfg
        trend = self._trend()
        gate = feedback_gate(
            self.history, round_index, enabled=cfg.feedback_enabled, warmup=self.warmup
        )
        if gate:
            self.measure_pending()
            selected = select(
                self.selector, round_index, cfg.select_k, cfg.num_clients, trend
            )
        else:
            selected = self.history[-1].selected_ids

        ids = sorted(selected)
        results = self._dispatch(ids, round_index)
        self.pending = (round_index, ids, self.params)
        # Metrics of the model that was dispatched; anchors stale-loss records.
        prev = self.history[-1] if self.history else None
        self.params = aggregate(results)
        update_after_round(
            self.selector,
            results,
            global_accuracy=prev.test_accuracy if prev else None,
            global_loss=prev.test_loss if prev else None,
        )
        report = evaluate(self.params, self.test_data)
        acc_history = [r.test_accuracy for r in self.history] + [report.accuracy]
        record = RoundRecord(
            round_index=round_index,
            test_accuracy=report.accuracy,
            test_loss=report.mean_loss,
            ma_accuracy=moving_average(acc_history, round_index, cfg.moving_avg_window),
            selection_ran=gate,
            selected_ids=tuple(ids),
            wall_time=time.perf_counter() - started,
        )
        self.history.append(record)

        factor = selection_factor(trend, cfg.factor_mode)
        self.selection_log.append(
            f"{round_index},{cfg.strategy.value},{int(gate)},"
            f"{';'.join(str(i) for i in record.selected_ids)},"
            f"{cfg.factor_mode.value},"
            f"{'' if math.isnan(factor) else f'{factor:.10f}'}"
        )
        return record

    def run(self, checkpoint_dir: Path | None = None) -> list[RoundRecord]:
        for round_index in range(1, self.cfg.rounds + 1):
            self.run_round(round_index)
            if (
                checkpoint_dir is not None
                and self.cfg.checkpoint_every > 0
                and round_index % self.cfg.checkpoint_every == 0
            ):
                save_params(
                    self.params, checkpoint_dir / f"checkpoint_r{round_index:04d}.fedw"
                )
        self.measure_pending()
        return self.history


def build_partition(
    cfg: ExperimentConfig,
) -> tuple[list[ClientDataset], LabeledDataset, LabeledDataset]:
    """The run's client shards, training split and test split.

    Reads only the data, seed, client-count and partition settings of
    ``cfg``: the shards are the partition of the training split that a run
    with these settings trains on.
    """
    if cfg.dataset_path is not None:
        full = load_dataset(cfg.dataset_path)
    else:
        num_classes, num_features, num_samples = cfg.synthetic_shape
        full = make_synthetic(
            num_samples,
            num_features,
            num_classes,
            split_seed(cfg.seed, "synthetic"),
            cluster_spread=cfg.cluster_spread,
        )
    train, test = split_train_test(
        full, cfg.test_fraction, split_seed(cfg.seed, "test-split")
    )
    spec = replace(
        cfg.partition,
        num_clients=cfg.num_clients,
        seed=split_seed(cfg.seed, "partition"),
    )
    return partition(train, spec), train, test


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    """Materialize data, split, partition and wire up an Experiment."""
    cfg.validate()
    clients, _, test = build_partition(cfg)
    return Experiment(cfg, clients, test)


def run_log_csv(history: Sequence[RoundRecord], timestamp: str | None = None) -> str:
    """The run log CSV; ``timestamp`` adds a comment header when provided."""
    lines = []
    if timestamp is not None:
        lines.append(f"# started {timestamp}")
    lines.append(RUN_LOG_HEADER)
    for r in history:
        lines.append(
            f"{r.round_index},{r.test_accuracy:.10f},{r.test_loss:.10f},"
            f"{r.ma_accuracy:.10f},{int(r.selection_ran)},"
            f"{';'.join(str(i) for i in r.selected_ids)},{r.wall_time:.6f}"
        )
    return "\n".join(lines) + "\n"


def selection_log_csv(experiment: Experiment) -> str:
    return "\n".join(experiment.selection_log) + "\n"


def summary_text(cfg: ExperimentConfig, history: Sequence[RoundRecord]) -> str:
    """Flat key=value summary: final metrics, sampling occasions, config echo."""
    final = history[-1]
    occasions = sum(1 for r in history if r.selection_ran)
    lines = [
        f"rounds={len(history)}",
        f"final_accuracy={final.test_accuracy:.10f}",
        f"final_ma_accuracy={final.ma_accuracy:.10f}",
        f"final_test_loss={final.test_loss:.10f}",
        f"sampling_occasions={occasions}",
        *(f"config.{k.name}={_echo(k.value(cfg))}" for k in CONFIG_KEYS),
    ]
    return "\n".join(lines) + "\n"


def deterministic_csv_payload(csv_text: str) -> str:
    """Strip wall-clock content from a run log: comment lines and elapsed_s.

    This is the payload the determinism contract covers; everything else in
    the file must be byte-identical across reruns of the same config.
    """
    rows = []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            continue
        rows.append(line.rsplit(",", 1)[0] if "," in line else line)
    return "\n".join(rows)


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | Path | None = None
) -> list[RoundRecord]:
    """Run one experiment; optionally write run/selection logs and summary."""
    experiment = build_experiment(cfg)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    history = experiment.run(checkpoint_dir=out_path)
    if out_path is not None:
        stamp = datetime.now(timezone.utc).isoformat()
        (out_path / "run.csv").write_text(run_log_csv(history, timestamp=stamp))
        (out_path / "selection.csv").write_text(selection_log_csv(experiment))
        (out_path / "summary.txt").write_text(summary_text(cfg, history))
    return history
