"""A whole-run reference simulator, written without the server's round loop.

``reference_run(cfg)`` returns the round records a run of ``cfg`` must
produce.  It shares only these with ``src/``: the data build
(``build_partition``), ``split_seed``, ``init_params``, the seeded numpy
draws (warmup, ``random`` and the Oort durations, drawn here again from the
same seeds) and the record type the CSV writers read.  Everything else is
spelled out plainly:

- each client trains alone with ``reference_sgd`` and is evaluated with
  ``reference_evaluate`` (both in ``test_model``);
- the global model is the weighted sum of the trained rows in client-id
  order;
- every cohort is measured right after its round, at the model it received,
  for every utility, whatever the strategy ranks by;
- clients are ranked by ``sorted(key=lambda c: (-u[c], c))`` over plain
  Python floats.

So the round loop's deferred measurement, reuse rounds, anchors, stacked
cohorts and battery sharing are checked against a loop that has none of
them.
"""

from __future__ import annotations

import math

import numpy as np

from fedclf.model import ModelParams, TrainConfig, init_params
from fedclf.seeds import split_seed
from fedclf.selection import FactorMode, Strategy
from fedclf.server import ExperimentConfig, RoundRecord, build_partition
from test_model import reference_evaluate, reference_sgd

NAN = math.nan


def _ratio(num: float, den: float) -> float:
    """``num / den`` where both are finite and ``den > 0``; NaN elsewhere."""
    if math.isfinite(num) and math.isfinite(den) and den > 0.0:
        return num / den
    return NAN


def _oort_penalty(num_clients: int, selection_seed: int) -> list[float]:
    """Oort's straggler penalty: ``(median / duration) ** 2``, capped at 1,
    over seeded lognormal round durations."""
    rng = np.random.default_rng(split_seed(selection_seed, "durations"))
    durations = rng.lognormal(mean=math.log(10.0), sigma=0.5, size=num_clients)
    preferred = float(np.median(durations))
    return [min(1.0, (preferred / d) ** 2.0) for d in durations.tolist()]


def reference_run(cfg: ExperimentConfig) -> list[RoundRecord]:
    """The round records of a run of ``cfg``; ``wall_time`` is 0."""
    shards, test = build_partition(cfg)
    num_clients, k = cfg.num_clients, cfg.select_k
    clients = [shards[c] for c in range(num_clients)]
    n_k = [client.num_samples for client in clients]
    kind, _, hidden = cfg.shape_tag.partition(":")
    dims = (test.num_features, *([int(hidden)] if hidden else []), test.num_classes)
    tag = f"{kind}:{'x'.join(map(str, dims))}"
    train = TrainConfig(cfg.epochs, cfg.learning_rate, cfg.batch_size)
    selection_seed = split_seed(cfg.seed, "selection")
    warmup = math.ceil(num_clients / k) if cfg.warmup_enabled else 0
    penalty = (
        _oort_penalty(num_clients, selection_seed)
        if cfg.strategy is Strategy.OORT_LIKE
        else [1.0] * num_clients
    )

    def test_metrics(values: np.ndarray) -> tuple[float, float]:
        losses, hits, _ = reference_evaluate(
            values[None], test.features[None], test.labels[None], dims
        )
        return int(np.count_nonzero(hits[0])) / hits[0].size, float(np.mean(losses[0]))

    # Per client: utilities measured at the model it last received, the norm
    # of its last weight change, and the test accuracy and loss of that model.
    loss_utility = [NAN] * num_clients
    grad_norm_utility = [NAN] * num_clients
    delta_norm = [NAN] * num_clients
    acc_anchor = [NAN] * num_clients
    loss_anchor = [NAN] * num_clients
    sampled: set[int] = set()

    def ranked_utility(c: int, history: list[RoundRecord]) -> float:
        strategy = cfg.strategy
        if strategy is Strategy.NEWT_LIKE:
            return n_k[c] if math.isnan(delta_norm[c]) else delta_norm[c] * n_k[c]
        loss = loss_utility[c]
        if math.isnan(loss):
            assert not warmup, f"client {c} unmeasured after warmup"
            return math.inf
        if strategy is Strategy.GRAD_NORM:
            return grad_norm_utility[c]
        if strategy is Strategy.OORT_LIKE:
            return loss * penalty[c]
        if strategy is Strategy.RAW_LOSS:
            return loss
        # FedCLF: a client outside the previous round's cohort is stale, and
        # its utility is scaled by the global trend where that is defined.
        if history and c in history[-1].selected_ids:
            return loss
        acc_mode = cfg.factor_mode is FactorMode.ACC_RATIO
        if len(history) < 2:
            factor = NAN
        elif cfg.compound_factors:
            prev = history[-1]
            factor = (
                _ratio(prev.test_accuracy, acc_anchor[c])
                if acc_mode
                else _ratio(prev.test_loss, loss_anchor[c])
            )
        else:
            prev, prev2 = history[-1], history[-2]
            factor = (
                _ratio(prev.test_accuracy, prev2.test_accuracy)
                if acc_mode
                else _ratio(prev.test_loss, prev2.test_loss)
            )
        return loss if math.isnan(factor) else loss * factor

    def pick(round_index: int, history: list[RoundRecord]) -> list[int]:
        if round_index <= warmup:
            rng = np.random.default_rng(split_seed(selection_seed, "warmup", round_index))
            available = [c for c in range(num_clients) if c not in sampled]
            if len(available) >= k:
                return rng.choice(np.array(available), size=k, replace=False).tolist()
            pad = rng.choice(np.array(sorted(sampled)), size=k - len(available), replace=False)
            return available + pad.tolist()
        if cfg.strategy is Strategy.RANDOM:
            rng = np.random.default_rng(split_seed(selection_seed, "random-select", round_index))
            return rng.choice(num_clients, size=k, replace=False).tolist()
        u = [ranked_utility(c, history) for c in range(num_clients)]
        return sorted(range(num_clients), key=lambda c: (-u[c], c))[:k]

    values = init_params(tag, split_seed(cfg.seed, "init")).values
    metrics = [test_metrics(values)]  # of the model after each round; [0] initial
    history: list[RoundRecord] = []
    cohort: list[int] = []
    for r in range(1, cfg.rounds + 1):
        resample = (
            r <= 2
            or r <= warmup
            or not cfg.feedback_enabled
            or history[r - 2].test_accuracy < history[r - 3].test_accuracy
        )
        if resample:
            cohort = sorted(pick(r, history))
            sampled.update(cohort)
        received = values
        trained = [
            reference_sgd(
                ModelParams(received, tag), clients[c], train, split_seed(cfg.seed, f"train-r{r}", c)
            )
            for c in cohort
        ]
        total = sum(n_k[c] for c in cohort)
        values = np.zeros_like(received)
        for c, row in zip(cohort, trained):
            values += (n_k[c] / total) * row
        metrics.append(test_metrics(values))
        accuracy, loss = metrics[r]
        accuracies = [rec.test_accuracy for rec in history] + [accuracy]
        window = accuracies[max(0, r - cfg.moving_avg_window) :]
        history.append(
            RoundRecord(r, accuracy, loss, float(np.mean(window)), resample, tuple(cohort), 0.0)
        )
        for c, row in zip(cohort, trained):
            n = n_k[c]
            x, y = clients[c].features[None], clients[c].labels[None]
            losses, _, grad_norms = reference_evaluate(received[None], x, y, dims)
            loss_utility[c] = n * np.sqrt((losses[0] ** 2).sum() / n)
            grad_norm_utility[c] = n * np.sqrt((grad_norms[0] ** 2).sum() / n)
            change = row - received
            delta_norm[c] = float(np.sqrt(np.add.reduce(change * change)))
            acc_anchor[c], loss_anchor[c] = metrics[r - 1]
    return history
