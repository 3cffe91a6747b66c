"""Local training step: a cohort of clients trains on the received global model.

The statistics the server needs for selection are measured at the *received*
parameters, before any weight update, so utilities always rank clients
against the model they were handed.

The cohort is trained and evaluated as one stacked parameter block: shards of
equal size are evaluated together, and at each SGD step the clients whose
batches have the same size take one stacked step.  Every client keeps its own
seeded batch schedule, so each result is bitwise equal to training that client
alone.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ClientDataset
from .model import ModelParams, SampleStack, TrainConfig, evaluate, sgd_epochs

__all__ = ["ClientUpdateResult", "NonFiniteUpdateError", "client_update", "rms_utility"]


@dataclass(frozen=True)
class ClientUpdateResult:
    """What a client reports back after a round.

    ``loss_utility`` is ``n_k * RMS(per-sample losses)``; ``mean_loss`` is the
    plain mean of the same losses.  ``grad_norm_utility`` (``n_k * RMS`` of
    per-sample gradient norms) is present only when requested.
    """

    client_id: int
    new_params: ModelParams
    loss_utility: float
    mean_loss: float
    n_k: int
    weight_delta_norm: float
    grad_norm_utility: float | None = None


class NonFiniteUpdateError(ValueError):
    """Local training diverged: a trained parameter, loss utility or weight
    change is not finite."""

    def __init__(self, client_ids: Sequence[int], round_index: int | None = None):
        where = "" if round_index is None else f"round {round_index}: "
        super().__init__(
            f"{where}non-finite parameters, loss utility or weight change after "
            "local training for client(s) " + ", ".join(str(c) for c in client_ids)
        )
        self.client_ids = tuple(client_ids)
        self.round_index = round_index


def rms_utility(per_sample: np.ndarray) -> float | np.ndarray:
    """Sample count times the root-mean-square of per-sample values (over
    the last axis, so a stack of rows gives one utility per row)."""
    per_sample = np.asarray(per_sample, dtype=np.float64)
    n = per_sample.shape[-1]
    return n * np.sqrt((per_sample**2).sum(axis=-1) / n)


def _by_size(clients: Sequence[ClientDataset]) -> list[tuple[list[int], SampleStack]]:
    """Cohort positions grouped by ``n_k``, with each group's stacked shards."""
    groups = defaultdict(list)
    for i, client in enumerate(clients):
        groups[client.n_k].append(i)
    return [
        (rows, SampleStack.of([clients[i].data for i in rows]))
        for rows in groups.values()
    ]


def client_update(
    clients: Sequence[ClientDataset],
    global_params: ModelParams,
    cfgs: Sequence[TrainConfig],
    want_grad_norm: bool = False,
) -> list[ClientUpdateResult]:
    """Measure utilities at the received params, then train every client.

    ``cfgs`` holds one training config per client; results come back in the
    order of ``clients``.  Raises ``NonFiniteUpdateError`` naming every
    client whose trained parameters, loss utility or weight-change norm is
    not finite.
    """
    tag = global_params.shape_tag
    pre = {}
    for rows, stack in _by_size(clients):
        report = evaluate(
            global_params, stack, want_per_sample=True, want_grad_norms=want_grad_norm
        )
        norms = (
            rms_utility(report.per_sample_grad_norms)
            if want_grad_norm
            else [None] * len(rows)
        )
        pre.update(
            zip(rows, zip(rms_utility(report.per_sample_losses), report.mean_loss, norms))
        )

    trained = sgd_epochs(global_params, [c.data for c in clients], cfgs).values
    deltas = [np.linalg.norm(row - global_params.values) for row in trained]
    finite = (
        np.isfinite(trained).all(axis=1)
        & np.isfinite([pre[i][0] for i in range(len(clients))])
        & np.isfinite(deltas)
    )
    if not finite.all():
        raise NonFiniteUpdateError([clients[i].client_id for i in np.flatnonzero(~finite)])

    results = []
    for i, client in enumerate(clients):
        loss_utility, mean_loss, grad_norm_utility = pre[i]
        results.append(
            ClientUpdateResult(
                client_id=client.client_id,
                new_params=ModelParams(trained[i], tag),
                loss_utility=float(loss_utility),
                mean_loss=float(mean_loss),
                n_k=client.n_k,
                weight_delta_norm=float(deltas[i]),
                grad_norm_utility=None if grad_norm_utility is None else float(grad_norm_utility),
            )
        )
    return results
