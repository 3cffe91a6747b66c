"""Local training and utility measurement for a cohort of clients.

``client_update`` trains a cohort from the received global model and returns
the trained parameters as one ``(g, P)`` stack, row ``i`` for the ``i``-th
client, with each client's weight-change norm, all rows in one reduction.
``measure_utilities`` measures the statistics selection ranks by, at the
model the clients received.  The server calls it at the end of a round only
when the next round selects or the round is the last, since a cohort that
trains again in the next round would overwrite them unread, and only for a
strategy that ranks by a measured utility (not ``random`` or ``newt``).

The cohort is trained and measured as one stacked parameter block, whatever
its shard sizes: ``measure_utilities`` stacks the cohort's shards, ordered by
``n_k`` so equal sizes form one run, into one ragged ``SampleStack``, makes
one ``evaluate`` call and reduces only each block's RMS of the per-row
losses (and gradient norms) it returns; ``sgd_epochs`` makes one
``gradient`` call per SGD step over the models still training.  The cohort trains under its
experiment's one ``TrainConfig``, and every client keeps its own seeded batch
schedule, so each result is bitwise equal to training or measuring that
client alone.
"""

from __future__ import annotations

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


def rms_utility(stack: SampleStack, per_sample: np.ndarray) -> np.ndarray:
    """Each block's sample count times the root-mean-square of its rows of
    ``per_sample`` (one value per row of ``stack``)."""
    return np.array(stack.sizes) * np.sqrt(stack.block_means(per_sample**2))


def _raise_non_finite(clients: Sequence[ClientDataset], finite: np.ndarray) -> None:
    """Raise ``NonFiniteUpdateError`` naming the clients where ``finite`` is false."""
    if not finite.all():
        raise NonFiniteUpdateError([clients[i].client_id for i in np.flatnonzero(~finite)])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's L2 norm, squaring ``rows`` in place: one reduction, whose
    pairwise order does not depend on where a row lies in memory, so each
    row's norm is bitwise that of the row alone."""
    return np.sqrt(np.add.reduce(np.multiply(rows, rows, out=rows), axis=1))


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
    # Stacked by size, so clients of equal n_k form one run.
    order = sorted(range(len(clients)), key=lambda i: clients[i].n_k)
    stack = SampleStack.of([clients[i].data for i in order])
    result = evaluate(params, stack, want_grad_norms=want_grad_norm)
    loss = np.empty(len(clients))
    loss[order] = rms_utility(stack, result.per_sample_losses)
    grad_norm = None
    if want_grad_norm:
        grad_norm = np.empty(len(clients))
        grad_norm[order] = rms_utility(stack, result.per_sample_grad_norms)
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
    deltas = _row_norms(trained.values - global_params.values)
    _raise_non_finite(clients, np.isfinite(trained.values).all(axis=1) & np.isfinite(deltas))
    return trained, deltas
