"""Deterministic federated-learning simulator with calibrated-loss selection."""

from .client import NonFiniteUpdateError, client_update
from .dataset import (
    LabeledDataset,
    PartitionSpec,
    Shards,
    SplitMode,
    load_dataset,
    make_synthetic,
    partition,
    save_dataset,
)
from .model import (
    ModelParams,
    TrainConfig,
    evaluate,
    init_params,
    sgd_epochs,
)
from .selection import (
    FactorMode,
    GlobalTrend,
    SelectorState,
    Strategy,
    make_selector,
    select,
    update_after_round,
    utilities,
)
from .server import (
    Experiment,
    ExperimentConfig,
    RoundRecord,
    aggregate,
    feedback_gate,
    moving_average,
    run_experiment,
)

__version__ = "0.1.0"
