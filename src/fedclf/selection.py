"""Participant selection: warmup coverage, calibrated-loss utility, baselines.

The first ``ceil(K / k)`` selections draw disjoint client sets so every client
trains once and acquires a loss measurement ("unique sampling").  After that,
clients are ranked by a per-strategy utility and the top ``k`` are chosen,
ties broken toward the lower client id.

The calibrated-loss strategy keeps the raw loss utility for clients that
trained in the most recent round and multiplies everyone else's stale utility
by a global-trend correction factor: the ratio of the global test loss over
the last two rounds (default), or the accuracy ratio in the alternate mode.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .client import ClientUpdateResult
from .dataset import ClientDataset
from .seeds import split_seed

__all__ = [
    "Strategy",
    "FactorMode",
    "ClientRecord",
    "GlobalTrend",
    "SelectorState",
    "SelectionError",
    "make_selector",
    "warmup_rounds",
    "selection_factor",
    "calibrate",
    "select",
    "update_after_round",
]

logger = logging.getLogger(__name__)

# Simulated-duration penalty for the Oort-style baseline.
OORT_PENALTY_ALPHA = 2.0


class Strategy(str, Enum):
    FEDCLF = "fedclf"
    RAW_LOSS = "rawloss"
    RANDOM = "random"
    OORT_LIKE = "oort"
    NEWT_LIKE = "newt"
    GRAD_NORM = "gradnorm"


class FactorMode(str, Enum):
    LOSS_RATIO = "loss"
    ACC_RATIO = "acc"


class SelectionError(RuntimeError):
    """Selector state and inputs disagree; indicates a harness bug."""


@dataclass
class ClientRecord:
    """Server-side bookkeeping for one client."""

    client_id: int
    n_k: int
    last_loss_utility: float | None = None
    last_grad_norm_utility: float | None = None
    last_weight_delta_norm: float | None = None
    # Global metrics of the model the client last measured against; used by
    # the compounding calibration mode.
    loss_at_last_training: float | None = None
    acc_at_last_training: float | None = None


@dataclass(frozen=True)
class GlobalTrend:
    """Accuracy and global test loss of the last two completed rounds."""

    acc_prev: float
    acc_prev2: float
    loss_prev: float
    loss_prev2: float

    @classmethod
    def empty(cls) -> "GlobalTrend":
        return cls(math.nan, math.nan, math.nan, math.nan)


@dataclass
class SelectorState:
    strategy: Strategy
    records: dict[int, ClientRecord]
    rng_seed: int
    factor_mode: FactorMode = FactorMode.LOSS_RATIO
    warmup_enabled: bool = True
    compound_factors: bool = False
    sampled_once: set[int] = field(default_factory=set)
    last_round_selected: set[int] = field(default_factory=set)
    # Fixed simulated per-client round durations (Oort-style baseline only).
    durations: dict[int, float] = field(default_factory=dict)
    preferred_duration: float = math.inf


def make_selector(
    strategy: Strategy,
    clients: list[ClientDataset],
    rng_seed: int,
    factor_mode: FactorMode = FactorMode.LOSS_RATIO,
    warmup_enabled: bool = True,
    compound_factors: bool = False,
) -> SelectorState:
    """Build selector state covering ``clients``.

    For the Oort-style baseline, per-client round durations are simulated
    once from a seeded lognormal and the preferred duration is their median.
    """
    records = {c.client_id: ClientRecord(c.client_id, c.n_k) for c in clients}
    state = SelectorState(
        strategy=strategy,
        records=records,
        rng_seed=rng_seed,
        factor_mode=factor_mode,
        warmup_enabled=warmup_enabled,
        compound_factors=compound_factors,
    )
    if strategy is Strategy.OORT_LIKE:
        rng = np.random.default_rng(split_seed(rng_seed, "durations"))
        ids = sorted(records)
        samples = rng.lognormal(mean=math.log(10.0), sigma=0.5, size=len(ids))
        state.durations = {cid: float(d) for cid, d in zip(ids, samples)}
        state.preferred_duration = float(np.median(samples))
    return state


def warmup_rounds(num_clients: int, k: int) -> int:
    return math.ceil(num_clients / k)


def selection_factor(trend: GlobalTrend, factor_mode: FactorMode) -> float:
    """The one-round correction factor; NaN when the trend cannot supply it."""
    if factor_mode is FactorMode.LOSS_RATIO:
        num, den = trend.loss_prev, trend.loss_prev2
    else:
        num, den = trend.acc_prev, trend.acc_prev2
    if not (math.isfinite(num) and math.isfinite(den)) or den <= 0.0:
        return math.nan
    return num / den


def calibrate(record: ClientRecord, factor: float) -> float:
    """Stale loss utility times the round's correction factor.

    Callers skip this for clients selected in the last round (their utility is
    fresh).  An undefined (NaN) factor leaves the raw utility.
    """
    if record.last_loss_utility is None:
        raise SelectionError(
            f"client {record.client_id} has no stored loss utility"
        )
    if math.isnan(factor):
        return record.last_loss_utility
    return record.last_loss_utility * factor


def _compound_factor(record: ClientRecord, trend: GlobalTrend, mode: FactorMode) -> float:
    """Factor against the global metrics at the client's last measurement."""
    if mode is FactorMode.LOSS_RATIO:
        num, den = trend.loss_prev, record.loss_at_last_training
    else:
        num, den = trend.acc_prev, record.acc_at_last_training
    if den is None or not (math.isfinite(num) and math.isfinite(den)) or den <= 0.0:
        return math.nan
    return num / den


def _oort_system_factor(state: SelectorState, cid: int) -> float:
    duration = state.durations.get(cid)
    if duration is None or duration <= state.preferred_duration:
        return 1.0
    return (state.preferred_duration / duration) ** OORT_PENALTY_ALPHA


def _utility(
    state: SelectorState, record: ClientRecord, trend: GlobalTrend, factor: float
) -> float:
    strategy = state.strategy
    if strategy is Strategy.NEWT_LIKE:
        if record.last_weight_delta_norm is None:
            return float(record.n_k)
        return record.last_weight_delta_norm * record.n_k
    if record.last_loss_utility is None:
        if state.warmup_enabled:
            raise SelectionError(
                f"client {record.client_id} reached ranking without a "
                "stored utility; warmup should have covered it"
            )
        return math.inf  # forced exploration when warmup was disabled
    if strategy is Strategy.RAW_LOSS:
        return record.last_loss_utility
    if strategy is Strategy.GRAD_NORM:
        if record.last_grad_norm_utility is None:
            raise SelectionError(
                f"client {record.client_id} has no gradient-norm utility; "
                "enable per-sample gradient norms for this strategy"
            )
        return record.last_grad_norm_utility
    if strategy is Strategy.OORT_LIKE:
        return record.last_loss_utility * _oort_system_factor(state, record.client_id)
    # Calibrated loss: fresh utility for last-round participants, corrected
    # stale utility for everyone else.
    if record.client_id in state.last_round_selected:
        return record.last_loss_utility
    if state.compound_factors:
        factor = _compound_factor(record, trend, state.factor_mode)
    return calibrate(record, factor)


def _warmup_pick(state: SelectorState, round_index: int, k: int) -> set[int]:
    all_ids = sorted(state.records)
    available = sorted(set(all_ids) - state.sampled_once)
    rng = np.random.default_rng(split_seed(state.rng_seed, "warmup", round_index))
    if len(available) >= k:
        chosen = rng.choice(available, size=k, replace=False)
        return {int(c) for c in chosen}
    # Final warmup round when k does not divide K: take everyone still
    # unsampled and pad from already-sampled clients.
    chosen = set(available)
    pool = sorted(state.sampled_once - chosen)
    pad = rng.choice(pool, size=k - len(chosen), replace=False)
    return chosen | {int(c) for c in pad}


def select(
    state: SelectorState,
    round_index: int,
    k: int,
    num_clients: int,
    trend: GlobalTrend,
) -> set[int]:
    """Choose ``k`` of ``num_clients`` clients for this round.

    Warmup rounds draw seeded-uniformly from clients never sampled; later
    rounds rank by the strategy's utility and keep the top ``k`` (utility
    descending, then client id ascending).  The returned set is recorded as
    the most recent cohort.
    """
    if not 1 <= k <= num_clients:
        raise ValueError(f"need 1 <= k <= K, got k={k}, K={num_clients}")
    if len(state.records) != num_clients:
        raise SelectionError(
            f"selector covers {len(state.records)} clients, expected {num_clients}"
        )

    if state.warmup_enabled and round_index <= warmup_rounds(num_clients, k):
        selected = _warmup_pick(state, round_index, k)
    elif state.strategy is Strategy.RANDOM:
        rng = np.random.default_rng(
            split_seed(state.rng_seed, "random-select", round_index)
        )
        ids = sorted(state.records)
        selected = {int(c) for c in rng.choice(ids, size=k, replace=False)}
    else:
        factor = selection_factor(trend, state.factor_mode)
        scored = [
            (-_utility(state, record, trend, factor), cid)
            for cid, record in state.records.items()
        ]
        scored.sort()
        selected = {cid for _, cid in scored[:k]}
        if (
            state.strategy is Strategy.FEDCLF
            and not state.compound_factors
            and math.isnan(factor)
        ):
            raw = sum(
                cid not in state.last_round_selected and r.last_loss_utility is not None
                for cid, r in state.records.items()
            )
            if raw:
                logger.warning(
                    "round %d: correction factor undefined, %d clients kept raw "
                    "utilities",
                    round_index,
                    raw,
                )

    state.sampled_once |= selected
    state.last_round_selected = set(selected)
    return selected


def update_after_round(
    state: SelectorState,
    results: list[ClientUpdateResult],
    global_accuracy: float | None = None,
    global_loss: float | None = None,
) -> SelectorState:
    """Fold the round's client reports into the selector records.

    ``global_accuracy`` / ``global_loss`` are the test metrics of the model
    the clients trained from; they anchor the compounding calibration mode.
    Clients that did not train keep their (now stale) records untouched.
    """
    if not results:
        raise SelectionError("update_after_round called with no results")
    for result in results:
        if result.client_id not in state.last_round_selected:
            raise SelectionError(
                f"result for client {result.client_id}, which was not selected"
            )
        record = state.records[result.client_id]
        record.last_loss_utility = result.loss_utility
        record.n_k = result.n_k
        record.last_weight_delta_norm = result.weight_delta_norm
        if result.grad_norm_utility is not None:
            record.last_grad_norm_utility = result.grad_norm_utility
        record.loss_at_last_training = global_loss
        record.acc_at_last_training = global_accuracy
    return state
