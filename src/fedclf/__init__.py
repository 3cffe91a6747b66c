"""Deterministic federated-learning simulator with calibrated-loss selection."""

from .client import ClientUpdateResult, NonFiniteUpdateError, client_update
from .dataset import (
    ClientDataset,
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
    save_dataset,
)
from .model import (
    EvalReport,
    ModelParams,
    TrainConfig,
    evaluate,
    grad_check,
    init_params,
    sgd_epochs,
)
from .selection import (
    ClientRecord,
    FactorMode,
    GlobalTrend,
    SelectorState,
    Strategy,
    calibrate,
    make_selector,
    select,
    update_after_round,
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
