"""Selector behaviour: warmup coverage, calibration, ranking, bookkeeping."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedclf.dataset import ClientDataset, PartitionSpec, SplitMode, make_synthetic
from fedclf.model import evaluate
from fedclf.seeds import split_seed
from fedclf.selection import (
    MEASURED_UTILITIES,
    FactorMode,
    GlobalTrend,
    SelectionError,
    Strategy,
    make_selector,
    select,
    update_after_round,
    utilities,
)
from fedclf.server import ExperimentConfig, build_experiment

# Selector columns where NaN means "not measured yet".
MEASURED = (
    "loss_utility", "grad_norm_utility", "weight_delta_norm", "loss_anchor", "acc_anchor"
)
COLUMNS = (*MEASURED, "n_k", "oort_penalty", "sampled_once", "last_round_selected")


def make_clients(k=10, n=6):
    return [ClientDataset(i, make_synthetic(n, 2, 2, seed=i)) for i in range(k)]


def unit_trend(acc=0.5, loss=1.0):
    return GlobalTrend(acc_prev=acc, acc_prev2=acc, loss_prev=loss, loss_prev2=loss)


def trained_selector(strategy, values, k=1, seed=0, last_round=(), **options):
    """A selector of ``k`` clients past warmup whose loss, gradient-norm and
    weight-change utilities all equal ``values`` (client id -> value)."""
    state = make_selector(strategy, make_clients(len(values)), k, seed, **options)
    ids, column = list(values), list(values.values())
    state.loss_utility[ids] = column
    state.grad_norm_utility[ids] = column
    state.weight_delta_norm[ids] = column
    state.sampled_once[ids] = True
    state.last_round_selected[list(last_round)] = True
    return state


# ------------------------------------------------------------ calibration


def test_calibrate_unit_factor_is_identity():
    state = trained_selector(Strategy.FEDCLF, {0: 3.7, 1: 1.0}, last_round={1})
    for mode in FactorMode:
        state.factor_mode = mode
        assert utilities(state, unit_trend(), 9)[0] == 3.7


def test_calibrate_loss_ratio():
    state = trained_selector(Strategy.FEDCLF, {0: 10.0, 1: 1.0}, last_round={1})
    trend = GlobalTrend(acc_prev=0.5, acc_prev2=0.4, loss_prev=0.8, loss_prev2=1.0)
    assert utilities(state, trend, 9)[0] == pytest.approx(8.0)


def test_calibrate_acc_ratio():
    state = trained_selector(
        Strategy.FEDCLF, {0: 10.0, 1: 1.0}, last_round={1},
        factor_mode=FactorMode.ACC_RATIO,
    )
    trend = GlobalTrend(acc_prev=0.55, acc_prev2=0.50, loss_prev=1.0, loss_prev2=1.0)
    assert utilities(state, trend, 9)[0] == pytest.approx(11.0)


def test_calibrate_guard_returns_raw_and_warns(caplog):
    bad = GlobalTrend(acc_prev=0.5, acc_prev2=0.4, loss_prev=1.0, loss_prev2=0.0)
    state = trained_selector(Strategy.FEDCLF, {0: 5.0, 1: 1.0}, last_round={1})
    assert utilities(state, bad, 9)[0] == 5.0
    state.factor_mode = FactorMode.ACC_RATIO
    assert utilities(state, GlobalTrend.empty(), 9)[0] == 5.0
    # Ranking warns once per round, not once per client.
    caplog.clear()
    values = {i: float(i) for i in range(6)}
    state = trained_selector(Strategy.FEDCLF, values, k=2, last_round={5})
    with caplog.at_level(logging.WARNING, logger="fedclf.selection"):
        assert select(state, 9, trend=bad) == {4, 5}
    [message] = caplog.messages
    assert message == "round 9: correction factor undefined, 5 clients kept raw utilities"


def test_compound_undefined_anchor_keeps_raw_and_warns(caplog):
    state = trained_selector(
        Strategy.FEDCLF, {0: 10.0, 1: 8.0, 2: 6.0, 3: 1.0}, last_round={3},
        compound_factors=True,
    )
    state.loss_anchor[[0, 2, 3]] = [2.0, 0.0, 4.0]  # client 1 has no anchor
    with caplog.at_level(logging.WARNING, logger="fedclf.selection"):
        column = utilities(state, unit_trend(loss=1.0), 7)
    assert column.tolist() == [5.0, 8.0, 6.0, 1.0]
    [message] = caplog.messages
    assert message == "round 7: correction factor undefined, 2 clients kept raw utilities"


def test_compound_run_anchors_clients_trained_in_round_one(caplog):
    # Round 1's cohort is anchored at the initial model's test metrics, so no
    # client keeps its raw utility (this run warned in rounds 6 to 12 while
    # round-1 clients had no anchor).
    cfg = ExperimentConfig(
        num_clients=10, select_k=2, rounds=12, synthetic_shape=(4, 4, 600),
        partition=PartitionSpec(
            shard_size=10, split_mode=SplitMode.EQUAL, num_clients=10
        ),
        feedback_enabled=False, compound_factors=True,
    )
    experiment = build_experiment(cfg)
    initial = evaluate(experiment.params, experiment.test_stack)
    loss, accuracy = np.mean(initial.per_sample_losses), np.mean(initial.per_sample_hits)
    with caplog.at_level(logging.WARNING, logger="fedclf.selection"):
        ids = list(experiment.run_round(1).selected_ids)
        assert ids == [0, 1]
        assert experiment.selector.loss_anchor[ids].tolist() == [loss] * 2
        assert experiment.selector.acc_anchor[ids].tolist() == [accuracy] * 2
        for round_index in range(2, cfg.rounds + 1):
            experiment.run_round(round_index)
    assert caplog.messages == []


def test_calibrate_requires_stored_utility():
    state = trained_selector(Strategy.FEDCLF, {0: 1.0, 1: 1.0})
    state.loss_utility[1] = np.nan
    with pytest.raises(SelectionError, match="round 3: client.s. 1 reached ranking"):
        utilities(state, unit_trend(), 3)


# ----------------------------------------------------------------- warmup


def test_warmup_covers_every_client_once():
    clients = make_clients(50)
    state = make_selector(Strategy.FEDCLF, clients, 5, rng_seed=7)
    seen: list[set[int]] = []
    for r in range(1, 11):
        chosen = select(state, r, trend=GlobalTrend.empty())
        assert len(chosen) == 5
        for earlier in seen:
            assert not (chosen & earlier)
        seen.append(chosen)
    assert set().union(*seen) == set(range(50))
    assert state.sampled_once.all()


def test_warmup_rounds_ceil():
    for size, k, warmup in ((50, 5, 10), (50, 7, 8), (3, 3, 1), (3, 1, 3)):
        clients = make_clients(size)
        assert make_selector(Strategy.FEDCLF, clients, k, rng_seed=0).warmup == warmup
        state = make_selector(Strategy.FEDCLF, clients, k, rng_seed=0, warmup_enabled=False)
        assert state.warmup == 0


def test_warmup_pads_final_round_when_k_does_not_divide():
    clients = make_clients(10)
    state = make_selector(Strategy.RAW_LOSS, clients, 4, rng_seed=3)
    union: set[int] = set()
    for r in range(1, 4):
        chosen = select(state, r, trend=GlobalTrend.empty())
        assert len(chosen) == 4
        union |= chosen
    assert union == set(range(10))


def test_make_selector_requires_ids_zero_to_k_minus_one():
    clients = [ClientDataset(i, make_synthetic(4, 2, 2, seed=i)) for i in (0, 2)]
    with pytest.raises(SelectionError, match="client ids must be 0..1"):
        make_selector(Strategy.FEDCLF, clients, 1, rng_seed=0)


def test_make_selector_validates_k():
    for k in (0, 3):
        with pytest.raises(ValueError, match="1 <= k <= K"):
            make_selector(Strategy.RAW_LOSS, make_clients(2), k, rng_seed=0)


# ---------------------------------------------------------------- ranking


def test_top_k_tie_breaks_toward_lower_id():
    state = trained_selector(Strategy.FEDCLF, {0: 5.0, 1: 5.0, 2: 1.0}, k=2)
    chosen = select(state, 99, trend=unit_trend())
    assert chosen == {0, 1}


def test_top_k_matches_brute_force_sort():
    rng = np.random.default_rng(5)
    for trial in range(30):
        size = int(rng.integers(2, 20))
        k = int(rng.integers(1, size + 1))
        values = {i: float(rng.choice([0.5, 1.0, 2.0, 3.0])) for i in range(size)}
        state = trained_selector(Strategy.RAW_LOSS, values, k=k, seed=trial)
        chosen = select(state, 50, trend=unit_trend())
        ranked = sorted(values, key=lambda cid: (-values[cid], cid))
        assert chosen == set(ranked[:k])
        if len(chosen) < size:
            worst_in = min(values[c] for c in chosen)
            best_out = max(values[c] for c in set(values) - chosen)
            assert worst_in >= best_out


def test_ties_among_many_clients_break_toward_lower_id():
    # 200 clients in three tied groups: big enough that a sort that is not
    # stable reorders ties on any numpy build.
    values = {i: float(i % 3) for i in range(200)}
    state = trained_selector(Strategy.RAW_LOSS, values, k=90)
    chosen = select(state, 50, trend=unit_trend())
    assert chosen == set(sorted(values, key=lambda cid: (-values[cid], cid))[:90])


def test_fedclf_equals_rawloss_under_unit_factor():
    rng = np.random.default_rng(11)
    for trial in range(40):
        size = int(rng.integers(3, 25))
        k = int(rng.integers(1, size + 1))
        values = {i: float(rng.uniform(0.1, 9.0)) for i in range(size)}
        last = set(
            int(c) for c in rng.choice(size, size=min(k, size), replace=False)
        )
        a = trained_selector(Strategy.FEDCLF, values, k=k, seed=trial, last_round=last)
        b = trained_selector(Strategy.RAW_LOSS, values, k=k, seed=trial, last_round=last)
        trend = unit_trend()
        assert select(a, 60, trend) == select(b, 60, trend)


def test_calibration_preserves_order_of_stale_clients():
    values = {0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 8.0}
    for factor in (0.25, 1.0, 3.0):
        trend = GlobalTrend(
            acc_prev=0.5, acc_prev2=0.5, loss_prev=factor, loss_prev2=1.0
        )
        state = trained_selector(Strategy.FEDCLF, values, k=3, last_round={4})
        chosen = select(state, 70, trend=trend)
        stale_ranking = [cid for cid in (0, 1, 2, 3) if cid in chosen]
        # Stale clients keep their relative order under any positive factor.
        assert stale_ranking == sorted(
            stale_ranking, key=lambda cid: -values[cid]
        )


def test_fedclf_last_round_clients_not_calibrated():
    values = {0: 10.0, 1: 9.0, 2: 1.0}
    # Factor 0.5 halves stale utilities; client 1 trained last round so its
    # raw 9.0 beats client 0's calibrated 5.0.
    trend = GlobalTrend(acc_prev=0.5, acc_prev2=0.5, loss_prev=0.5, loss_prev2=1.0)
    state = trained_selector(Strategy.FEDCLF, values, last_round={1})
    chosen = select(state, 80, trend=trend)
    assert chosen == {1}


def test_random_strategy_is_repeatable():
    values = {i: 1.0 for i in range(12)}
    state = trained_selector(Strategy.RANDOM, values, k=4, seed=21)
    first = select(state, 30, trend=unit_trend())
    second = select(state, 30, trend=unit_trend())
    assert first == second
    third = select(state, 31, trend=unit_trend())
    assert len(third) == 4


def test_gradnorm_strategy_uses_gradient_utilities():
    state = trained_selector(Strategy.GRAD_NORM, {0: 1.0, 1: 2.0, 2: 3.0})
    state.grad_norm_utility[0] = 9.0  # overrides loss ordering
    chosen = select(state, 40, trend=unit_trend())
    assert chosen == {0}
    state.grad_norm_utility[2] = np.nan
    with pytest.raises(SelectionError, match="client.s. 2 have no gradient-norm"):
        select(state, 41, trend=unit_trend())


def test_newt_strategy_ranks_by_delta_times_samples():
    state = trained_selector(Strategy.NEWT_LIKE, {0: 1.0, 1: 1.0, 2: 1.0})
    state.weight_delta_norm[:] = [0.1, 5.0, 1.0]
    chosen = select(state, 40, trend=unit_trend())
    assert chosen == {1}


def test_newt_untrained_clients_rank_by_sample_count():
    clients = make_clients(3)
    state = make_selector(Strategy.NEWT_LIKE, clients, 1, rng_seed=0, warmup_enabled=False)
    state.n_k[2] = 50
    chosen = select(state, 1, trend=GlobalTrend.empty())
    assert chosen == {2}


def test_untrained_clients_forced_when_warmup_disabled():
    clients = make_clients(4)
    state = make_selector(Strategy.FEDCLF, clients, 2, rng_seed=0, warmup_enabled=False)
    state.loss_utility[1] = 100.0
    chosen = select(state, 2, trend=unit_trend())
    # Untrained clients get infinite utility; the trained one loses.
    assert 1 not in chosen


def test_oort_penalizes_slow_clients():
    state = trained_selector(Strategy.OORT_LIKE, {cid: 1.0 for cid in range(6)}, k=3, seed=4)
    durations = np.random.default_rng(split_seed(4, "durations")).lognormal(
        mean=math.log(10.0), sigma=0.5, size=6
    )
    preferred = float(np.median(durations))
    assert state.oort_penalty.tolist() == [
        1.0 if d <= preferred else (preferred / d) ** 2.0 for d in durations.tolist()
    ]
    chosen = select(state, 30, trend=unit_trend())
    assert int(np.argmin(durations)) in chosen
    assert int(np.argmax(durations)) not in chosen


# ---------------------------------------------------- reference property


def _reference_utilities(case):
    """Plain per-client oracle: each utility in Python floats."""
    strategy, trend, mode = case["strategy"], case["trend"], case["mode"]
    durations = np.random.default_rng(split_seed(case["seed"], "durations")).lognormal(
        mean=math.log(10.0), sigma=0.5, size=case["size"]
    )
    preferred = float(np.median(durations))

    def ratio(num, den):
        if den is None or not (math.isfinite(num) and math.isfinite(den)) or den <= 0.0:
            return math.nan
        return num / den

    def utility(cid):
        loss, delta = case["loss_utility"][cid], case["weight_delta_norm"][cid]
        n_k = case["n_k"][cid]
        if strategy is Strategy.NEWT_LIKE:
            return float(n_k) if delta is None else delta * n_k
        if loss is None:
            return math.inf
        if strategy is Strategy.RAW_LOSS:
            return loss
        if strategy is Strategy.GRAD_NORM:
            return case["grad_norm_utility"][cid]
        if strategy is Strategy.OORT_LIKE:
            d = float(durations[cid])
            return loss * (1.0 if d <= preferred else (preferred / d) ** 2.0)
        if cid in case["last"]:
            return loss
        if mode is FactorMode.LOSS_RATIO:
            num, den, anchor = trend.loss_prev, trend.loss_prev2, case["loss_anchor"][cid]
        else:
            num, den, anchor = trend.acc_prev, trend.acc_prev2, case["acc_anchor"][cid]
        factor = ratio(num, anchor if case["compound"] else den)
        return loss if math.isnan(factor) else loss * factor

    return [utility(cid) for cid in range(case["size"])]


# Few distinct values, so ties are common.
_values = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.01, 50.0)
_trend_values = st.sampled_from([math.nan, 0.0, -0.5, 0.5, 1.0, 2.0]) | st.floats(0.01, 5.0)
_CASE_CLIENTS = make_clients(12)


@st.composite
def _selector_cases(draw):
    size = draw(st.integers(2, len(_CASE_CLIENTS)))
    k = draw(st.integers(1, size))
    warmup = draw(st.booleans())
    column = lambda values: draw(st.lists(values, min_size=size, max_size=size))  # noqa: E731
    return {
        "size": size,
        "k": k,
        "seed": draw(st.integers(0, 2**32)),
        "strategy": draw(st.sampled_from(Strategy)),
        "mode": draw(st.sampled_from(FactorMode)),
        "compound": draw(st.booleans()),
        "warmup": warmup,
        "round": math.ceil(size / k) + draw(st.integers(1, 5)),
        "n_k": column(st.integers(1, 40)),
        "loss_utility": column(_values if warmup else st.none() | _values),
        "grad_norm_utility": column(_values),
        "weight_delta_norm": column(st.none() | _values),
        "loss_anchor": column(st.none() | _trend_values),
        "acc_anchor": column(st.none() | _trend_values),
        "last": set(draw(st.lists(st.integers(0, size - 1), max_size=k))),
        "trend": GlobalTrend(*(draw(_trend_values) for _ in range(4))),
    }


@settings(max_examples=300, deadline=None)
@given(case=_selector_cases())
def test_select_matches_per_client_reference(case):
    size = case["size"]
    state = make_selector(
        case["strategy"], _CASE_CLIENTS[:size], case["k"], rng_seed=case["seed"],
        factor_mode=case["mode"], warmup_enabled=case["warmup"],
        compound_factors=case["compound"],
    )
    state.n_k[:] = case["n_k"]
    for name in MEASURED:
        getattr(state, name)[:] = [math.nan if v is None else v for v in case[name]]
    state.sampled_once[:] = True
    state.last_round_selected[list(case["last"])] = True
    k, round_index = case["k"], case["round"]
    if case["strategy"] is Strategy.RANDOM:
        seed = split_seed(case["seed"], "random-select", round_index)
        picked = np.random.default_rng(seed).choice(list(range(size)), size=k, replace=False)
        expected = {int(c) for c in picked}
    else:
        reference = _reference_utilities(case)
        assert utilities(state, case["trend"], round_index).tolist() == reference
        expected = set(sorted(range(size), key=lambda cid: (-reference[cid], cid))[:k])
    chosen = select(state, round_index, case["trend"])
    assert chosen == expected
    assert len(chosen) == k


# ------------------------------------------------------ update_after_round


def test_update_after_round_refreshes_selected_records():
    clients = make_clients(50)
    state = make_selector(Strategy.FEDCLF, clients, 5, rng_seed=8)
    chosen = sorted(select(state, 1, trend=GlobalTrend.empty()))
    values = np.array(chosen, dtype=float)
    update_after_round(
        state, chosen, values, values + 0.5, global_accuracy=0.25, global_loss=1.5
    )
    trained = np.flatnonzero(~np.isnan(state.weight_delta_norm)).tolist()
    assert trained == chosen
    assert state.weight_delta_norm[trained].tolist() == [float(c) for c in trained]
    assert state.loss_utility[trained].tolist() == [c + 0.5 for c in trained]
    assert (state.loss_anchor[trained] == 1.5).all()
    assert (state.acc_anchor[trained] == 0.25).all()
    for name in MEASURED:
        assert np.isnan(np.delete(getattr(state, name), trained)).all()
    # Gradient-norm utilities are stored only when measured.
    assert np.isnan(state.grad_norm_utility).all()
    update_after_round(state, trained[:2], values[:2], np.zeros(2), np.array([3.0, 4.0]))
    assert state.grad_norm_utility[trained[:2]].tolist() == [3.0, 4.0]
    assert state.loss_utility[trained].tolist() == [0.0, 0.0, *(values[2:] + 0.5)]
    assert np.isnan(state.loss_anchor[trained[:2]]).all()


def test_update_after_round_without_utilities_stores_norms_and_anchors():
    # A strategy that ranks by no measured utility stores only what training
    # and the test split give; its utility columns stay unmeasured.
    state = make_selector(Strategy.NEWT_LIKE, make_clients(2), 2, rng_seed=3)
    assert select(state, 1, GlobalTrend.empty()) == {0, 1}
    update_after_round(state, [0, 1], np.array([2.5, 3.5]), global_accuracy=0.5, global_loss=0.9)
    assert state.weight_delta_norm.tolist() == [2.5, 3.5]
    assert state.loss_anchor.tolist() == [0.9, 0.9]
    assert state.acc_anchor.tolist() == [0.5, 0.5]
    assert np.isnan(state.loss_utility).all() and np.isnan(state.grad_norm_utility).all()


def test_measured_utilities_name_utility_columns_for_every_strategy():
    assert set(MEASURED_UTILITIES) == set(Strategy)
    for strategy, columns in MEASURED_UTILITIES.items():
        assert set(columns) <= {"loss_utility", "grad_norm_utility"}, strategy
        # Gradient norms are measured in the same pass as the losses.
        assert "grad_norm_utility" not in columns or "loss_utility" in columns
    assert MEASURED_UTILITIES[Strategy.RANDOM] == MEASURED_UTILITIES[Strategy.NEWT_LIKE] == ()


def test_update_after_round_rejects_empty_results():
    state = trained_selector(Strategy.FEDCLF, {0: 1.0}, last_round={0})
    with pytest.raises(SelectionError, match="no clients"):
        update_after_round(state, [], np.array([]), np.array([]))


def test_update_after_round_rejects_unselected_client():
    state = trained_selector(Strategy.FEDCLF, {0: 1.0, 1: 1.0}, last_round={0})
    with pytest.raises(SelectionError, match="client 1, which was not selected"):
        update_after_round(state, [0, 1], np.array([0.5, 0.5]), np.ones(2))
    with pytest.raises(SelectionError, match="client 7, which was not selected"):
        update_after_round(state, [7], np.array([0.5]), np.ones(1))
    # A rejected update writes nothing.
    assert np.isnan(state.loss_anchor).all()


def test_update_after_round_is_idempotent():
    state = trained_selector(Strategy.FEDCLF, {0: 1.0, 1: 1.0}, last_round={0})
    update_after_round(state, [0], [2.5], [4.0], [1.5], global_accuracy=0.5, global_loss=0.9)
    snapshot = {name: getattr(state, name).copy() for name in COLUMNS}
    update_after_round(state, [0], [2.5], [4.0], [1.5], global_accuracy=0.5, global_loss=0.9)
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(state, name), snapshot[name])


def test_compound_mode_uses_loss_at_last_training():
    values = {0: 10.0, 1: 1.0}
    state = trained_selector(
        Strategy.FEDCLF, values, last_round={1}, compound_factors=True
    )
    state.loss_anchor[0] = 2.0
    # Current global loss 0.5 against anchored 2.0: stale utility scales by
    # 0.25 regardless of the one-round ratio.
    trend = GlobalTrend(acc_prev=0.5, acc_prev2=0.5, loss_prev=0.5, loss_prev2=0.5)
    chosen = select(state, 60, trend=trend)
    assert chosen == {0}  # 10 * 0.25 = 2.5 still beats raw 1.0

    state = trained_selector(
        Strategy.FEDCLF, values, last_round={1}, compound_factors=True
    )
    state.loss_anchor[0] = 20.0
    chosen = select(state, 61, trend=trend)
    assert chosen == {1}  # 10 * 0.025 = 0.25 now loses


def test_compound_acc_mode_uses_accuracy_at_last_training():
    state = trained_selector(
        Strategy.FEDCLF, {0: 10.0, 1: 1.0}, last_round={1},
        compound_factors=True, factor_mode=FactorMode.ACC_RATIO,
    )
    state.acc_anchor[0] = 0.8
    state.loss_anchor[0] = 0.1  # read in acc mode, it would scale by 4
    trend = GlobalTrend(acc_prev=0.4, acc_prev2=0.4, loss_prev=0.4, loss_prev2=0.4)
    assert utilities(state, trend, 60).tolist() == [5.0, 1.0]


def test_selection_determinism_for_identical_state():
    for strategy in Strategy:
        values = {i: float(i % 4) + 0.5 for i in range(9)}
        a = trained_selector(strategy, values, k=3, seed=13, last_round={1, 2})
        b = trained_selector(strategy, values, k=3, seed=13, last_round={1, 2})
        trend = unit_trend()
        assert select(a, 44, trend) == select(b, 44, trend)
