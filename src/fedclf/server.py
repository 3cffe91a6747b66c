"""Server round loop: gated selection, dispatch, aggregation, metrics.

Each round the server (1) consults the feedback gate, (2) selects a cohort or
reuses the previous one, (3) dispatches local training to the cohort,
(4) aggregates the returned parameters by sample-count weights, (5) evaluates
the new global model on the held-out test set, and (6) appends a round
record including the moving-average accuracy.  The round records are the
run's whole log: ``run.csv`` and ``selection.csv`` are rendered from them.

The selector is written only where a selection will read it.  A round
measures its cohort when the next round's gate opens (that gate reads only
this round's and the previous round's test accuracy) or when it is the last
round.  It measures the utilities its strategy ranks by
(``selection.MEASURED_UTILITIES``: none for ``random`` and ``newt``) at the
model the cohort received, and writes them, the weight-change norms and the
received model's test metrics to the selector in one
``update_after_round`` call.  In any other round the same clients train
again before any selection, and would overwrite those values unread.
Nothing but the global model, the selector and the round records passes
from one round to the next.

The gate resamples only when test accuracy strictly declined between the last
two rounds; rounds 1 and 2 and every warmup round always select.  Disabling
feedback selects every round.

Determinism: all randomness is derived from the experiment seed via
``seeds.split_seed``, and client results are aggregated in client-id order.
The cohort trains as one stacked block under the experiment's one
``TrainConfig``, and its results are bitwise equal to training each client
alone.  In the emitted CSV, the timestamp header line and the ``elapsed_s``
column are wall-clock measurements and are excluded from the
byte-determinism contract (see ``deterministic_csv_payload``).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from enum import Enum
from functools import reduce
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .client import NonFiniteUpdateError, client_update, measure_utilities
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
    SampleStack,
    TrainConfig,
    evaluate,
    init_params,
    resolve_shape_tag,
)
from .seeds import split_seed
from .selection import (
    MEASURED_UTILITIES,
    FactorMode,
    GlobalTrend,
    SelectorState,
    Strategy,
    make_selector,
    select,
    selection_factor,
    update_after_round,
)

__all__ = [
    "RoundRecord",
    "ExperimentConfig",
    "ConfigKey",
    "CONFIG_KEYS",
    "Experiment",
    "aggregate",
    "build_partition",
    "check_out_dir",
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

    def validate(self) -> TrainConfig:
        """Raise ``ValueError`` on a bad setting; returns the local SGD
        settings as the ``TrainConfig`` every cohort trains under."""
        if not 1 <= self.select_k <= self.num_clients:
            raise ValueError(
                f"need 1 <= k <= K, got k={self.select_k}, K={self.num_clients}"
            )
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.moving_avg_window < 1:
            raise ValueError("moving_avg_window must be >= 1")
        resolve_shape_tag(self.shape_tag, 1, 1)  # any data dims: checks the grammar
        self.check_data_settings()
        return TrainConfig(self.epochs, self.learning_rate, self.batch_size)

    def check_data_settings(self) -> None:
        """Raise ``ValueError`` on a bad setting of the data ``build_partition``
        builds: the synthetic shape, cluster spread or test fraction."""
        if self.dataset_path is None:
            c, f, n = self.synthetic_shape
            if c < 1 or f < 1 or n < 1:
                raise ValueError(f"bad synthetic_shape {self.synthetic_shape}")
            if not math.isfinite(self.cluster_spread):
                raise ValueError(f"cluster_spread must be finite, got {self.cluster_spread}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")


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
)


def _echo(value: object) -> str:
    """A config value as ``summary.txt`` spells it."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return "x".join(str(v) for v in value)
    return "" if value is None else str(value)


def aggregate(trained: ModelParams, n_k: Sequence[int]) -> ModelParams:
    """Sample-count-weighted mean of a ``(g, P)`` stack of trained parameters;
    row ``i`` has weight ``n_k[i]``, and rows are summed in order."""
    if trained.values.ndim != 2 or len(trained.values) != len(n_k):
        raise ValueError(
            f"{trained.values.shape} parameter stack for {len(n_k)} sample counts"
        )
    if not n_k:
        raise ValueError("cannot aggregate zero results")
    total = sum(n_k)
    if total <= 0:
        raise ValueError("total sample count is zero")
    out = np.zeros_like(trained.values[0])
    for n, row in zip(n_k, trained.values):
        out += (n / total) * row
    return ModelParams(out, trained.shape_tag)


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


def _trend(history: Sequence[RoundRecord]) -> GlobalTrend:
    """Test accuracy and loss of the last two records; empty before that."""
    if len(history) < 2:
        return GlobalTrend.empty()
    prev2, prev = history[-2], history[-1]
    return GlobalTrend(
        acc_prev=prev.test_accuracy,
        acc_prev2=prev2.test_accuracy,
        loss_prev=prev.test_loss,
        loss_prev2=prev2.test_loss,
    )


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
    """One configured run over pre-built client shards and a test set.

    ``train_cfg`` is ``cfg.validate()``.  ``test_stack`` is the test split
    as a one-block ``SampleStack`` over its own arrays, built once.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        clients: list[ClientDataset],
        test_data: LabeledDataset,
    ):
        self.train_cfg = cfg.validate()
        if len(clients) != cfg.num_clients:
            raise ValueError(
                f"{len(clients)} client shards for K={cfg.num_clients}"
            )
        self.cfg = cfg
        self.clients = {c.client_id: c for c in clients}
        self.test_stack = SampleStack(
            test_data.features, test_data.labels, (test_data.num_samples,), test_data.num_classes
        )
        full_tag = resolve_shape_tag(
            cfg.shape_tag, test_data.num_features, test_data.num_classes
        )
        self.params = init_params(full_tag, split_seed(cfg.seed, "init"))
        self.selector: SelectorState = make_selector(
            cfg.strategy,
            clients,
            cfg.select_k,
            split_seed(cfg.seed, "selection"),
            factor_mode=cfg.factor_mode,
            warmup_enabled=cfg.warmup_enabled,
            compound_factors=cfg.compound_factors,
        )
        self.history: list[RoundRecord] = []
        # Test (accuracy, loss) of the initial model: round 1's anchors.  Only
        # compound mode reads anchors, so only it evaluates the initial model.
        self.initial_metrics: tuple[float | None, float | None] = (None, None)
        if cfg.compound_factors:
            self.initial_metrics = self._test_metrics()

    def _test_metrics(self) -> tuple[float, float]:
        """Test accuracy and mean loss of the current global model."""
        result = evaluate(self.params, self.test_stack)
        hits = result.per_sample_hits  # a sum of 0.0/1.0 values is the count
        return int(np.count_nonzero(hits)) / hits.size, float(np.mean(result.per_sample_losses))

    def run_round(self, round_index: int) -> RoundRecord:
        """Run the next round and append its record.

        The cohort trains in one stacked call, rows in client-id order.  When
        the next round's gate opens, or this is the last round, the cohort is
        then measured at the model it received, for the utilities its
        strategy ranks by, and the record's ``wall_time`` includes that.  A
        non-finite update or utility raises ``NonFiniteUpdateError`` naming
        this round; a non-finite utility is found after this round's record
        is appended.
        """
        expected = len(self.history) + 1
        if round_index != expected:
            raise ValueError(f"round {round_index} out of order, expected round {expected}")
        started = time.perf_counter()
        cfg = self.cfg
        gate = feedback_gate(self.history, round_index, cfg.feedback_enabled, self.selector.warmup)
        if gate:
            selected = select(self.selector, round_index, _trend(self.history))
        else:
            selected = self.history[-1].selected_ids

        ids = sorted(selected)
        cohort = [self.clients[cid] for cid in ids]
        seeds = [split_seed(cfg.seed, f"train-r{round_index}", cid) for cid in ids]
        received = self.params
        try:
            trained, deltas = client_update(cohort, received, self.train_cfg, seeds)
            self.params = aggregate(trained, [c.n_k for c in cohort])
            accuracy, loss = self._test_metrics()
            window = cfg.moving_avg_window
            recent = [r.test_accuracy for r in self.history[max(0, round_index - window) :]]
            recent.append(accuracy)
            record = RoundRecord(
                round_index=round_index,
                test_accuracy=accuracy,
                test_loss=loss,
                ma_accuracy=moving_average(recent, len(recent), window),
                selection_ran=gate,
                selected_ids=tuple(ids),
                wall_time=time.perf_counter() - started,
            )
            self.history.append(record)
            if round_index == cfg.rounds or feedback_gate(
                self.history, round_index + 1, cfg.feedback_enabled, self.selector.warmup
            ):
                measured = MEASURED_UTILITIES[cfg.strategy]
                want_grad_norm = "grad_norm_utility" in measured
                utilities = None, None
                if measured:
                    utilities = measure_utilities(cohort, received, want_grad_norm)
                if round_index == 1:
                    anchor = self.initial_metrics
                else:
                    received_from = self.history[round_index - 2]
                    anchor = received_from.test_accuracy, received_from.test_loss
                update_after_round(self.selector, ids, deltas, *utilities, *anchor)
                record = replace(record, wall_time=time.perf_counter() - started)
                self.history[-1] = record
        except NonFiniteUpdateError as exc:
            raise NonFiniteUpdateError(exc.client_ids, round_index) from None
        return record

    def run(self) -> list[RoundRecord]:
        for round_index in range(1, self.cfg.rounds + 1):
            self.run_round(round_index)
        return self.history


def build_partition(cfg: ExperimentConfig) -> tuple[list[ClientDataset], LabeledDataset]:
    """The run's client shards and test split.

    Reads only the data, seed, client-count and partition settings of
    ``cfg``: the shards are the partition of the training split that a run
    with these settings trains on.  Checks those settings before any work.
    The split yields only the training rows' index, so ``partition`` gathers
    the training rows once, straight from the generated or loaded dataset.
    """
    cfg.check_data_settings()
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
    train_rows, test = split_train_test(
        full, cfg.test_fraction, split_seed(cfg.seed, "test-split")
    )
    spec = replace(
        cfg.partition,
        num_clients=cfg.num_clients,
        seed=split_seed(cfg.seed, "partition"),
    )
    return partition(full, spec, train_rows), test


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    """Check every setting, then materialize data, split, partition and wire
    up an Experiment."""
    cfg.validate()
    clients, test = build_partition(cfg)
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


def selection_log_csv(cfg: ExperimentConfig, history: Sequence[RoundRecord]) -> str:
    """The selection log CSV; each row's factor is the one-round correction
    factor that round's trend (its two previous records) gives."""
    lines = [SELECTION_LOG_HEADER]
    for i, r in enumerate(history):
        factor = selection_factor(_trend(history[:i]), cfg.factor_mode)
        lines.append(
            f"{r.round_index},{cfg.strategy.value},{int(r.selection_ran)},"
            f"{';'.join(str(c) for c in r.selected_ids)},{cfg.factor_mode.value},"
            f"{'' if math.isnan(factor) else f'{factor:.10f}'}"
        )
    return "\n".join(lines) + "\n"


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


def check_out_dir(out_dir: str | Path) -> None:
    """Raise ``ValueError``, creating nothing, unless the first of ``out_dir``
    and its ancestors that exists is a writable directory."""
    path = Path(out_dir)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir() or not os.access(existing, os.W_OK):
        raise ValueError(f"cannot write output to {path}: {existing} is not a writable directory")


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | Path | None = None
) -> list[RoundRecord]:
    """Run one experiment; once it completes, write its run and selection
    logs and summary to ``out_dir`` when one is given.  A bad ``out_dir``
    fails before the first round."""
    experiment = build_experiment(cfg)
    if out_dir is not None:
        check_out_dir(out_dir)
    history = experiment.run()
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        stamp = datetime.now(timezone.utc).isoformat()
        (out_path / "run.csv").write_text(run_log_csv(history, timestamp=stamp))
        (out_path / "selection.csv").write_text(selection_log_csv(cfg, history))
        (out_path / "summary.txt").write_text(summary_text(cfg, history))
    return history
