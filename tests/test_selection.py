"""Selector behaviour: warmup coverage, calibration, ranking, bookkeeping."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from fedclf.client import ClientUpdateResult
from fedclf.dataset import ClientDataset, make_synthetic
from fedclf.model import init_params, softmax_tag
from fedclf.selection import (
    ClientRecord,
    FactorMode,
    GlobalTrend,
    SelectionError,
    Strategy,
    calibrate,
    make_selector,
    select,
    selection_factor,
    update_after_round,
    warmup_rounds,
)


def make_clients(k=10, n=6):
    return [ClientDataset(i, make_synthetic(n, 2, 2, seed=i)) for i in range(k)]


def unit_trend(acc=0.5, loss=1.0):
    return GlobalTrend(acc_prev=acc, acc_prev2=acc, loss_prev=loss, loss_prev2=loss)


def trained_selector(strategy, utilities, seed=0, last_round=()):  # noqa: D103
    clients = make_clients(len(utilities))
    state = make_selector(strategy, clients, rng_seed=seed)
    for cid, utility in utilities.items():
        record = state.records[cid]
        record.last_loss_utility = utility
        record.last_grad_norm_utility = utility
        record.last_weight_delta_norm = utility
    state.sampled_once = set(utilities)
    state.last_round_selected = set(last_round)
    return state


def dummy_result(cid, loss_utility=1.0, n_k=6, delta=0.5):
    params = init_params(softmax_tag(2, 2), seed=cid)
    return ClientUpdateResult(
        client_id=cid,
        new_params=params,
        loss_utility=loss_utility,
        mean_loss=loss_utility / n_k,
        n_k=n_k,
        weight_delta_norm=delta,
    )


# -------------------------------------------------------------- calibrate


def test_calibrate_unit_factor_is_identity():
    record = ClientRecord(0, 10, last_loss_utility=3.7)
    assert calibrate(record, selection_factor(unit_trend(), FactorMode.LOSS_RATIO)) == 3.7


def test_calibrate_loss_ratio():
    record = ClientRecord(0, 10, last_loss_utility=10.0)
    trend = GlobalTrend(acc_prev=0.5, acc_prev2=0.4, loss_prev=0.8, loss_prev2=1.0)
    factor = selection_factor(trend, FactorMode.LOSS_RATIO)
    assert calibrate(record, factor) == pytest.approx(8.0)


def test_calibrate_acc_ratio():
    record = ClientRecord(0, 10, last_loss_utility=10.0)
    trend = GlobalTrend(acc_prev=0.55, acc_prev2=0.50, loss_prev=1.0, loss_prev2=1.0)
    factor = selection_factor(trend, FactorMode.ACC_RATIO)
    assert calibrate(record, factor) == pytest.approx(11.0)


def test_calibrate_guard_returns_raw_and_warns(caplog):
    record = ClientRecord(0, 10, last_loss_utility=5.0)
    bad = GlobalTrend(acc_prev=0.5, acc_prev2=0.4, loss_prev=1.0, loss_prev2=0.0)
    assert calibrate(record, selection_factor(bad, FactorMode.LOSS_RATIO)) == 5.0
    nan_trend = GlobalTrend.empty()
    assert calibrate(record, selection_factor(nan_trend, FactorMode.ACC_RATIO)) == 5.0
    # Ranking warns once per round, not once per client.
    utilities = {i: float(i) for i in range(6)}
    state = trained_selector(Strategy.FEDCLF, utilities, last_round={5})
    with caplog.at_level(logging.WARNING, logger="fedclf.selection"):
        assert select(state, 9, k=2, num_clients=6, trend=bad) == {4, 5}
    [message] = caplog.messages
    assert message == "round 9: correction factor undefined, 5 clients kept raw utilities"


def test_calibrate_requires_stored_utility():
    with pytest.raises(SelectionError, match="no stored loss utility"):
        calibrate(ClientRecord(0, 10), 1.0)


# ----------------------------------------------------------------- warmup


def test_warmup_covers_every_client_once():
    clients = make_clients(50)
    state = make_selector(Strategy.FEDCLF, clients, rng_seed=7)
    seen: list[set[int]] = []
    for r in range(1, 11):
        chosen = select(state, r, k=5, num_clients=50, trend=GlobalTrend.empty())
        assert len(chosen) == 5
        for earlier in seen:
            assert not (chosen & earlier)
        seen.append(chosen)
    assert set().union(*seen) == set(range(50))
    assert state.sampled_once == set(range(50))


def test_warmup_rounds_ceil():
    assert warmup_rounds(50, 5) == 10
    assert warmup_rounds(50, 7) == 8
    assert warmup_rounds(3, 3) == 1


def test_warmup_pads_final_round_when_k_does_not_divide():
    clients = make_clients(10)
    state = make_selector(Strategy.RAW_LOSS, clients, rng_seed=3)
    union: set[int] = set()
    for r in range(1, warmup_rounds(10, 4) + 1):
        chosen = select(state, r, k=4, num_clients=10, trend=GlobalTrend.empty())
        assert len(chosen) == 4
        union |= chosen
    assert union == set(range(10))


# ---------------------------------------------------------------- ranking


def test_top_k_tie_breaks_toward_lower_id():
    state = trained_selector(Strategy.FEDCLF, {0: 5.0, 1: 5.0, 2: 1.0})
    chosen = select(state, 99, k=2, num_clients=3, trend=unit_trend())
    assert chosen == {0, 1}


def test_top_k_matches_brute_force_sort():
    rng = np.random.default_rng(5)
    for trial in range(30):
        size = int(rng.integers(2, 20))
        k = int(rng.integers(1, size + 1))
        utilities = {i: float(rng.choice([0.5, 1.0, 2.0, 3.0])) for i in range(size)}
        state = trained_selector(Strategy.RAW_LOSS, utilities, seed=trial)
        chosen = select(state, 50, k=k, num_clients=size, trend=unit_trend())
        ranked = sorted(utilities, key=lambda cid: (-utilities[cid], cid))
        assert chosen == set(ranked[:k])
        if len(chosen) < size:
            worst_in = min(utilities[c] for c in chosen)
            best_out = max(utilities[c] for c in set(utilities) - chosen)
            assert worst_in >= best_out


def test_fedclf_equals_rawloss_under_unit_factor():
    rng = np.random.default_rng(11)
    for trial in range(40):
        size = int(rng.integers(3, 25))
        k = int(rng.integers(1, size + 1))
        utilities = {i: float(rng.uniform(0.1, 9.0)) for i in range(size)}
        last = set(
            int(c) for c in rng.choice(size, size=min(k, size), replace=False)
        )
        a = trained_selector(Strategy.FEDCLF, utilities, seed=trial, last_round=last)
        b = trained_selector(Strategy.RAW_LOSS, utilities, seed=trial, last_round=last)
        trend = unit_trend()
        assert select(a, 60, k, size, trend) == select(b, 60, k, size, trend)


def test_calibration_preserves_order_of_stale_clients():
    utilities = {0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 8.0}
    for factor in (0.25, 1.0, 3.0):
        trend = GlobalTrend(
            acc_prev=0.5, acc_prev2=0.5, loss_prev=factor, loss_prev2=1.0
        )
        state = trained_selector(Strategy.FEDCLF, utilities, last_round={4})
        chosen = select(state, 70, k=3, num_clients=5, trend=trend)
        stale_ranking = [cid for cid in (0, 1, 2, 3) if cid in chosen]
        # Stale clients keep their relative order under any positive factor.
        assert stale_ranking == sorted(
            stale_ranking, key=lambda cid: -utilities[cid]
        )


def test_fedclf_last_round_clients_not_calibrated():
    utilities = {0: 10.0, 1: 9.0, 2: 1.0}
    # Factor 0.5 halves stale utilities; client 1 trained last round so its
    # raw 9.0 beats client 0's calibrated 5.0.
    trend = GlobalTrend(acc_prev=0.5, acc_prev2=0.5, loss_prev=0.5, loss_prev2=1.0)
    state = trained_selector(Strategy.FEDCLF, utilities, last_round={1})
    chosen = select(state, 80, k=1, num_clients=3, trend=trend)
    assert chosen == {1}


def test_random_strategy_is_repeatable():
    utilities = {i: 1.0 for i in range(12)}
    state = trained_selector(Strategy.RANDOM, utilities, seed=21)
    first = select(state, 30, k=4, num_clients=12, trend=unit_trend())
    second = select(state, 30, k=4, num_clients=12, trend=unit_trend())
    assert first == second
    third = select(state, 31, k=4, num_clients=12, trend=unit_trend())
    assert len(third) == 4


def test_gradnorm_strategy_uses_gradient_utilities():
    utilities = {0: 1.0, 1: 2.0, 2: 3.0}
    state = trained_selector(Strategy.GRAD_NORM, utilities)
    state.records[0].last_grad_norm_utility = 9.0  # overrides loss ordering
    chosen = select(state, 40, k=1, num_clients=3, trend=unit_trend())
    assert chosen == {0}


def test_newt_strategy_ranks_by_delta_times_samples():
    state = trained_selector(Strategy.NEWT_LIKE, {0: 1.0, 1: 1.0, 2: 1.0})
    state.records[0].last_weight_delta_norm = 0.1
    state.records[1].last_weight_delta_norm = 5.0
    state.records[2].last_weight_delta_norm = 1.0
    chosen = select(state, 40, k=1, num_clients=3, trend=unit_trend())
    assert chosen == {1}


def test_newt_untrained_clients_rank_by_sample_count():
    clients = make_clients(3)
    state = make_selector(Strategy.NEWT_LIKE, clients, rng_seed=0, warmup_enabled=False)
    state.records[2].n_k = 50
    chosen = select(state, 1, k=1, num_clients=3, trend=GlobalTrend.empty())
    assert chosen == {2}


def test_untrained_clients_forced_when_warmup_disabled():
    clients = make_clients(4)
    state = make_selector(Strategy.FEDCLF, clients, rng_seed=0, warmup_enabled=False)
    state.records[1].last_loss_utility = 100.0
    chosen = select(state, 2, k=2, num_clients=4, trend=unit_trend())
    # Untrained clients get infinite utility; the trained one loses.
    assert 1 not in chosen


def test_oort_penalizes_slow_clients():
    clients = make_clients(6)
    state = make_selector(Strategy.OORT_LIKE, clients, rng_seed=4)
    for cid in range(6):
        state.records[cid].last_loss_utility = 1.0
    state.sampled_once = set(range(6))
    slowest = max(state.durations, key=state.durations.get)
    fastest = min(state.durations, key=state.durations.get)
    chosen = select(state, 30, k=3, num_clients=6, trend=unit_trend())
    assert fastest in chosen
    assert slowest not in chosen


def test_select_validates_k_and_coverage():
    state = trained_selector(Strategy.RAW_LOSS, {0: 1.0, 1: 2.0})
    with pytest.raises(ValueError, match="1 <= k <= K"):
        select(state, 5, k=3, num_clients=2, trend=unit_trend())
    with pytest.raises(SelectionError, match="covers"):
        select(state, 5, k=1, num_clients=9, trend=unit_trend())


# ------------------------------------------------------ update_after_round


def test_update_after_round_refreshes_selected_records():
    clients = make_clients(50)
    state = make_selector(Strategy.FEDCLF, clients, rng_seed=8)
    chosen = select(state, 1, k=5, num_clients=50, trend=GlobalTrend.empty())
    results = [dummy_result(cid, loss_utility=float(cid)) for cid in sorted(chosen)]
    update_after_round(state, results)
    trained = [
        cid for cid, rec in state.records.items() if rec.last_loss_utility is not None
    ]
    assert sorted(trained) == sorted(chosen)
    untouched = set(range(50)) - chosen
    assert all(state.records[cid].last_loss_utility is None for cid in untouched)


def test_update_after_round_rejects_empty_results():
    state = trained_selector(Strategy.FEDCLF, {0: 1.0}, last_round={0})
    with pytest.raises(SelectionError, match="no results"):
        update_after_round(state, [])


def test_update_after_round_rejects_unselected_client():
    state = trained_selector(Strategy.FEDCLF, {0: 1.0, 1: 1.0}, last_round={0})
    with pytest.raises(SelectionError, match="not selected"):
        update_after_round(state, [dummy_result(1)])


def test_update_after_round_is_idempotent():
    state = trained_selector(Strategy.FEDCLF, {0: 1.0, 1: 1.0}, last_round={0})
    result = dummy_result(0, loss_utility=2.5)
    update_after_round(state, [result], global_accuracy=0.5, global_loss=0.9)
    snapshot = vars(state.records[0]).copy()
    update_after_round(state, [result], global_accuracy=0.5, global_loss=0.9)
    assert vars(state.records[0]) == snapshot


def test_compound_mode_uses_loss_at_last_training():
    utilities = {0: 10.0, 1: 1.0}
    state = trained_selector(Strategy.FEDCLF, utilities, last_round={1})
    state.compound_factors = True
    state.records[0].loss_at_last_training = 2.0
    # Current global loss 0.5 against anchored 2.0: stale utility scales by
    # 0.25 regardless of the one-round ratio.
    trend = GlobalTrend(acc_prev=0.5, acc_prev2=0.5, loss_prev=0.5, loss_prev2=0.5)
    chosen = select(state, 60, k=1, num_clients=2, trend=trend)
    assert chosen == {0}  # 10 * 0.25 = 2.5 still beats raw 1.0

    state = trained_selector(Strategy.FEDCLF, utilities, last_round={1})
    state.compound_factors = True
    state.records[0].loss_at_last_training = 20.0
    chosen = select(state, 61, k=1, num_clients=2, trend=trend)
    assert chosen == {1}  # 10 * 0.025 = 0.25 now loses


def test_selection_determinism_for_identical_state():
    for strategy in Strategy:
        utilities = {i: float(i % 4) + 0.5 for i in range(9)}
        a = trained_selector(strategy, utilities, seed=13, last_round={1, 2})
        b = trained_selector(strategy, utilities, seed=13, last_round={1, 2})
        trend = unit_trend()
        assert select(a, 44, 3, 9, trend) == select(b, 44, 3, 9, trend)
