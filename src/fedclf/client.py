"""Local training and utility measurement for a cohort of clients.

``client_update`` trains a cohort from the received global model and returns
the trained parameters as one ``(g, P)`` stack, row ``i`` for the ``i``-th
client, with each client's weight-change norm.  ``measure_utilities``
measures the statistics selection ranks by, at the model the clients
received.  The server calls it only when a selection is about to read them
(and once at run end), since a cohort that trains again in the next round
would overwrite them unread.

The cohort is trained and measured as one stacked parameter block: shards of
equal size are evaluated together, and ``sgd_epochs`` gathers the cohort's
batch schedules into one sample block before the first step, so at each SGD
step the clients at the same position of their schedules take one stacked
step on a slice of it.  The cohort trains under its experiment's one
``TrainConfig``, and every client keeps its own seeded batch schedule, so
each result is bitwise equal to training or measuring that client alone.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence

import numpy as np

from .dataset import ClientDataset
from .model import ModelParams, SampleStack, TrainConfig, evaluate, sgd_epochs

__all__ = [
    "NonFiniteUpdateError",
    "client_update",
    "measure_utilities",
    "rms_utility",
]


class NonFiniteUpdateError(ValueError):
    """Local training diverged: a trained parameter, weight change or
    utility is not finite."""

    def __init__(self, client_ids: Sequence[int], round_index: int | None = None):
        where = "" if round_index is None else f"round {round_index}: "
        super().__init__(
            f"{where}non-finite parameters, weight change or utility for client(s) "
            + ", ".join(str(c) for c in client_ids)
        )
        self.client_ids = tuple(client_ids)
        self.round_index = round_index


def rms_utility(per_sample: np.ndarray) -> float | np.ndarray:
    """Sample count times the root-mean-square of per-sample values (over
    the last axis, so a stack of rows gives one utility per row)."""
    per_sample = np.asarray(per_sample, dtype=np.float64)
    n = per_sample.shape[-1]
    return n * np.sqrt((per_sample**2).sum(axis=-1) / n)


def _raise_non_finite(clients: Sequence[ClientDataset], finite: np.ndarray) -> None:
    """Raise ``NonFiniteUpdateError`` naming the clients where ``finite`` is false."""
    if not finite.all():
        raise NonFiniteUpdateError([clients[i].client_id for i in np.flatnonzero(~finite)])


def _by_size(clients: Sequence[ClientDataset]) -> list[tuple[list[int], SampleStack]]:
    """Cohort positions grouped by ``n_k``, with each group's stacked shards."""
    groups = defaultdict(list)
    for i, client in enumerate(clients):
        groups[client.n_k].append(i)
    return [
        (rows, SampleStack.of([clients[i].data for i in rows]))
        for rows in groups.values()
    ]


def measure_utilities(
    clients: Sequence[ClientDataset],
    params: ModelParams,
    want_grad_norm: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Utilities of every client at ``params``, in the order of ``clients``.

    Returns the loss utilities ``n_k * RMS(per-sample losses)`` and, when
    ``want_grad_norm`` is set, the gradient-norm utilities ``n_k * RMS`` of
    per-sample gradient norms (else ``None``).  Raises
    ``NonFiniteUpdateError`` naming every client with a non-finite utility.
    """
    loss = np.empty(len(clients))
    grad_norm = np.empty(len(clients)) if want_grad_norm else None
    for rows, stack in _by_size(clients):
        report = evaluate(params, stack, want_grad_norms=want_grad_norm)
        loss[rows] = rms_utility(report.per_sample_losses)
        if want_grad_norm:
            grad_norm[rows] = rms_utility(report.per_sample_grad_norms)
    finite = np.isfinite(loss)
    if want_grad_norm:
        finite &= np.isfinite(grad_norm)
    _raise_non_finite(clients, finite)
    return loss, grad_norm


def client_update(
    clients: Sequence[ClientDataset],
    global_params: ModelParams,
    cfg: TrainConfig,
    seeds: Sequence[int],
) -> tuple[ModelParams, np.ndarray]:
    """Train every client of the cohort from ``global_params`` under ``cfg``,
    client ``i`` with ``seeds[i]``.

    Returns the ``(g, P)`` stack of trained parameters and the weight-change
    norm of each row, both in the order of ``clients``.  Raises
    ``NonFiniteUpdateError`` naming every client whose trained parameters or
    weight-change norm is not finite.
    """
    trained = sgd_epochs(global_params, [c.data for c in clients], cfg, seeds)
    # Per row, exactly np.linalg.norm of a 1-D vector (an axis=1 norm is not).
    deltas = np.array([math.sqrt(d @ d) for d in trained.values - global_params.values])
    _raise_non_finite(clients, np.isfinite(trained.values).all(axis=1) & np.isfinite(deltas))
    return trained, deltas
