"""Participant selection: warmup coverage, calibrated-loss utility, baselines.

The first ``ceil(K / k)`` selections draw disjoint client sets so every client
trains once and acquires a loss measurement ("unique sampling").  After that,
clients are ranked by a per-strategy utility and the top ``k`` are chosen,
ties broken toward the lower client id.  ``k`` and the warmup length are
fixed when the selector is built.

The calibrated-loss strategy keeps the raw loss utility for clients that
trained in the most recent round and multiplies everyone else's stale utility
by a global-trend correction factor: the ratio of the global test loss over
the last two rounds (default), or the accuracy ratio in the alternate mode.

The selector state is one numpy column per client field, indexed by client id
(clients are numbered ``0..K-1``); each strategy's utility is one expression
over those columns.  ``select`` is the only reader of the measured columns,
and ``update_after_round`` their only writer: the server calls it at the
end of a round whose next round selects, and of the last round, with the
cohort that round trained, measured for the columns ``MEASURED_UTILITIES``
names for its strategy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import ClientDataset
from .seeds import split_seed

__all__ = [
    "Strategy",
    "FactorMode",
    "GlobalTrend",
    "SelectorState",
    "SelectionError",
    "MEASURED_UTILITIES",
    "make_selector",
    "selection_factor",
    "utilities",
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


# The measured utility columns each strategy ranks by.  ``random`` never
# ranks, and ``newt`` ranks by the weight-change norm, which training gives.
MEASURED_UTILITIES: dict[Strategy, tuple[str, ...]] = {
    Strategy.FEDCLF: ("loss_utility",),
    Strategy.RAW_LOSS: ("loss_utility",),
    Strategy.RANDOM: (),
    Strategy.OORT_LIKE: ("loss_utility",),
    Strategy.NEWT_LIKE: (),
    Strategy.GRAD_NORM: ("loss_utility", "grad_norm_utility"),
}


class FactorMode(str, Enum):
    LOSS_RATIO = "loss"
    ACC_RATIO = "acc"


class SelectionError(RuntimeError):
    """Selector state and inputs disagree; indicates a harness bug."""


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
    """Selector settings plus one column per client field, indexed by id.

    ``k`` clients are selected per round; the first ``warmup`` selections
    (0 with warmup disabled) are warmup draws.  NaN in a utility or anchor
    column means "not measured yet".
    """

    strategy: Strategy
    rng_seed: int
    factor_mode: FactorMode
    k: int
    warmup: int
    compound_factors: bool
    n_k: np.ndarray
    loss_utility: np.ndarray
    grad_norm_utility: np.ndarray
    weight_delta_norm: np.ndarray
    # Global test loss and accuracy of the model each client last trained
    # from; they anchor the compounding calibration mode.
    loss_anchor: np.ndarray
    acc_anchor: np.ndarray
    # Simulated-duration penalty of the Oort-style baseline; ones otherwise.
    oort_penalty: np.ndarray
    sampled_once: np.ndarray
    last_round_selected: np.ndarray


def make_selector(
    strategy: Strategy,
    clients: list[ClientDataset],
    k: int,
    rng_seed: int,
    factor_mode: FactorMode = FactorMode.LOSS_RATIO,
    warmup_enabled: bool = True,
    compound_factors: bool = False,
) -> SelectorState:
    """Build a selector that picks ``k`` of ``clients``, whose ids must be
    ``0..K-1``.  With warmup enabled, the first ``ceil(K / k)`` rounds are
    warmup rounds.

    For the Oort-style baseline, per-client round durations are simulated
    once from a seeded lognormal; clients slower than the median duration
    are penalized by ``(median / duration) ** OORT_PENALTY_ALPHA``.
    """
    ids = [c.client_id for c in clients]
    if sorted(ids) != list(range(len(ids))):
        raise SelectionError(f"client ids must be 0..{len(ids) - 1}, got {sorted(ids)}")
    if not 1 <= k <= len(ids):
        raise ValueError(f"need 1 <= k <= K, got k={k}, K={len(ids)}")
    n_k = np.zeros(len(ids), dtype=np.int64)
    n_k[ids] = [c.n_k for c in clients]
    penalty = np.ones(len(ids))
    if strategy is Strategy.OORT_LIKE:
        rng = np.random.default_rng(split_seed(rng_seed, "durations"))
        durations = rng.lognormal(mean=math.log(10.0), sigma=0.5, size=len(ids))
        preferred = float(np.median(durations))
        # Python's ``**`` (libm pow): numpy squares, which can differ in the
        # last bit.
        penalty = np.array(
            [min(1.0, (preferred / d) ** OORT_PENALTY_ALPHA) for d in durations.tolist()]
        )
    nan_columns = ("loss_utility", "grad_norm_utility", "weight_delta_norm",
                   "loss_anchor", "acc_anchor")
    return SelectorState(
        strategy=strategy,
        rng_seed=rng_seed,
        factor_mode=factor_mode,
        k=k,
        warmup=math.ceil(len(ids) / k) if warmup_enabled else 0,
        compound_factors=compound_factors,
        n_k=n_k,
        oort_penalty=penalty,
        sampled_once=np.zeros(len(ids), dtype=bool),
        last_round_selected=np.zeros(len(ids), dtype=bool),
        **{name: np.full(len(ids), np.nan) for name in nan_columns},
    )


def _ratio(num, den):
    """``num / den`` where both are finite and ``den > 0``; NaN elsewhere."""
    defined = np.isfinite(num) & np.isfinite(den) & (den > 0.0)
    return np.divide(num, den, out=np.full(np.shape(defined), np.nan), where=defined)


def selection_factor(trend: GlobalTrend, factor_mode: FactorMode) -> float:
    """The one-round correction factor; NaN when the trend cannot supply it."""
    if factor_mode is FactorMode.LOSS_RATIO:
        return float(_ratio(trend.loss_prev, trend.loss_prev2))
    return float(_ratio(trend.acc_prev, trend.acc_prev2))


def _require(missing: np.ndarray, round_index: int, what: str) -> None:
    if missing.any():
        ids = ", ".join(str(c) for c in np.flatnonzero(missing).tolist())
        raise SelectionError(f"round {round_index}: client(s) {ids} {what}")


def utilities(state: SelectorState, trend: GlobalTrend, round_index: int) -> np.ndarray:
    """The utility each client is ranked by, indexed by client id.

    A client with no loss utility ranks first (``inf``, forced exploration)
    when warmup is disabled; with warmup enabled it is an error.  The
    calibrated-loss strategy scales stale utilities by the correction factor
    (per client, against its anchor, in compound mode); a stale client whose
    factor is undefined keeps its raw utility, and one warning per round
    counts them.  The random strategy does not rank; its column is the raw
    loss utility, which the server never measures for it.
    """
    if state.strategy is Strategy.NEWT_LIKE:
        delta = state.weight_delta_norm
        return np.where(np.isnan(delta), state.n_k, delta * state.n_k)
    loss = state.loss_utility
    unmeasured = np.isnan(loss)
    if state.warmup:
        _require(
            unmeasured,
            round_index,
            "reached ranking without a stored utility; warmup should have covered it",
        )
    if state.strategy is Strategy.GRAD_NORM:
        utility = state.grad_norm_utility
        _require(
            ~unmeasured & np.isnan(utility),
            round_index,
            "have no gradient-norm utility; enable per-sample gradient norms "
            "for this strategy",
        )
    elif state.strategy is Strategy.OORT_LIKE:
        utility = loss * state.oort_penalty
    elif state.strategy is Strategy.FEDCLF:
        if not state.compound_factors:
            factor = selection_factor(trend, state.factor_mode)
        elif state.factor_mode is FactorMode.LOSS_RATIO:
            factor = _ratio(trend.loss_prev, state.loss_anchor)
        else:
            factor = _ratio(trend.acc_prev, state.acc_anchor)
        stale, undefined = ~state.last_round_selected, np.isnan(factor)
        raw = np.count_nonzero(stale & undefined & ~unmeasured)
        if raw:
            logger.warning(
                "round %d: correction factor undefined, %d clients kept raw utilities",
                round_index,
                raw,
            )
        utility = np.where(stale & ~undefined, loss * factor, loss)
    else:
        utility = loss
    return np.where(unmeasured, np.inf, utility)


def _warmup_pick(state: SelectorState, round_index: int) -> np.ndarray:
    k = state.k
    available = np.flatnonzero(~state.sampled_once)
    rng = np.random.default_rng(split_seed(state.rng_seed, "warmup", round_index))
    if available.size >= k:
        return rng.choice(available, size=k, replace=False)
    # Final warmup round when k does not divide K: take everyone still
    # unsampled and pad from already-sampled clients.
    pad = rng.choice(
        np.flatnonzero(state.sampled_once), size=k - available.size, replace=False
    )
    return np.concatenate([available, pad])


def select(state: SelectorState, round_index: int, trend: GlobalTrend) -> set[int]:
    """Choose ``state.k`` clients for round ``round_index``.

    The first ``state.warmup`` rounds draw seeded-uniformly from clients
    never sampled; later rounds rank by ``utilities`` and keep the top ``k``
    (utility descending, then client id ascending).  The returned set is
    recorded as the most recent cohort.
    """
    if round_index <= state.warmup:
        chosen = _warmup_pick(state, round_index)
    elif state.strategy is Strategy.RANDOM:
        rng = np.random.default_rng(
            split_seed(state.rng_seed, "random-select", round_index)
        )
        chosen = rng.choice(state.n_k.size, size=state.k, replace=False)
    else:
        chosen = np.argsort(-utilities(state, trend, round_index), kind="stable")[: state.k]

    state.sampled_once[chosen] = True
    state.last_round_selected[:] = False
    state.last_round_selected[chosen] = True
    return set(chosen.tolist())


def update_after_round(
    state: SelectorState,
    client_ids: list[int],
    weight_delta_norms: np.ndarray,
    loss_utility: np.ndarray | None = None,
    grad_norm_utility: np.ndarray | None = None,
    global_accuracy: float | None = None,
    global_loss: float | None = None,
) -> None:
    """Store what the most recent cohort reported, once it is measured.

    The arrays are aligned with ``client_ids``: each client's weight-change
    norm from its last training round and its utilities measured at the
    model it received (``None`` for a utility its strategy does not rank
    by, whose column is left as it is).  ``global_accuracy`` /
    ``global_loss`` are that model's test metrics; they anchor the
    compounding calibration mode.
    Clients outside the cohort keep their (now stale) entries untouched.
    """
    if not client_ids:
        raise SelectionError("update_after_round called with no clients")
    for cid in client_ids:
        if not (0 <= cid < state.n_k.size and state.last_round_selected[cid]):
            raise SelectionError(f"result for client {cid}, which was not selected")
    state.weight_delta_norm[client_ids] = weight_delta_norms
    if loss_utility is not None:
        state.loss_utility[client_ids] = loss_utility
    if grad_norm_utility is not None:
        state.grad_norm_utility[client_ids] = grad_norm_utility
    state.loss_anchor[client_ids] = math.nan if global_loss is None else global_loss
    state.acc_anchor[client_ids] = math.nan if global_accuracy is None else global_accuracy
