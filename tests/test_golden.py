"""Golden-output lock: SHA-256 of every deterministic output over a fixed matrix.

Each cell runs 20 rounds and hashes ``deterministic_csv_payload(run.csv)``,
``selection.csv`` and ``summary.txt``.  The ``battery`` entry hashes
``battery.csv`` and ``battery_pivot.csv`` of one ``fedclf battery`` at the
``BASE`` settings: every strategy on both ``DATASETS`` with seeds 1 and 2.  A
refactor or speed-up must leave every hash unchanged; a deliberate behaviour change re-records the fixture with

    PYTHONPATH=src python tests/test_golden.py --record

and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fedclf.cli import main as cli_main
from fedclf.dataset import PartitionSpec, SplitMode
from fedclf.selection import FactorMode, Strategy
from fedclf.server import ExperimentConfig, deterministic_csv_payload, run_experiment

FIXTURE = Path(__file__).resolve().parent / "golden_hashes.json"

BASE = ExperimentConfig(
    num_clients=50,
    select_k=5,
    rounds=20,
    learning_rate=0.01,
    batch_size=32,
    seed=1,
    synthetic_shape=(10, 8, 7200),
)
DATASETS = {
    "s1-equal": PartitionSpec(1, SplitMode.EQUAL, 50),
    "s60-nonequal": PartitionSpec(60, SplitMode.NONEQUAL, 50),
}


def _cells() -> dict[str, ExperimentConfig]:
    cells = {}
    for model in ("softmax", "mlp:16"):
        for dataset, spec in DATASETS.items():
            for strategy in Strategy:
                # As in a battery: only the calibrated-loss strategy is gated.
                cells[f"{model}/{dataset}/{strategy.value}"] = replace(
                    BASE,
                    shape_tag=model,
                    partition=spec,
                    strategy=strategy,
                    feedback_enabled=strategy is Strategy.FEDCLF,
                )
    nonequal = replace(BASE, partition=DATASETS["s60-nonequal"])
    cells["softmax/s60-nonequal/fedclf-acc"] = replace(
        nonequal, factor_mode=FactorMode.ACC_RATIO
    )
    cells["softmax/s60-nonequal/fedclf-compound"] = replace(
        nonequal, compound_factors=True
    )
    cells["mlp:16/s60-nonequal/fedclf-epochs2"] = replace(
        nonequal, shape_tag="mlp:16", epochs=2
    )
    # A batch larger than most shards: full-batch and ragged clients mix.
    cells["softmax/s60-nonequal/fedclf-batch150"] = replace(nonequal, batch_size=150)
    return cells


CELLS = _cells()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_hashes(cfg: ExperimentConfig, out_dir: Path) -> dict[str, str]:
    run_experiment(cfg, out_dir=out_dir)
    return {
        "run": _sha(deterministic_csv_payload((out_dir / "run.csv").read_text())),
        "selection": _sha((out_dir / "selection.csv").read_text()),
        "summary": _sha((out_dir / "summary.txt").read_text()),
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(FIXTURE.read_text())


def battery_hashes(out_dir: Path) -> dict[str, str]:
    c, f, n = BASE.synthetic_shape
    spec = out_dir / "battery.conf"
    out_dir.mkdir(parents=True, exist_ok=True)
    spec.write_text(
        f"clients={BASE.num_clients}\nselect_k={BASE.select_k}\nrounds={BASE.rounds}\n"
        f"lr={BASE.learning_rate}\nbatch={BASE.batch_size}\nsynthetic={c}x{f}x{n}\n"
        f"strategies={','.join(s.value for s in Strategy)}\n"
        f"datasets={','.join(DATASETS)}\nseeds=1,2\n"
    )
    if cli_main(["battery", str(spec), "--out", str(out_dir / "out")]) != 0:
        raise RuntimeError("battery failed")
    return {
        "battery": _sha((out_dir / "out" / "battery.csv").read_text()),
        "pivot": _sha((out_dir / "out" / "battery_pivot.csv").read_text()),
    }


def test_fixture_covers_every_cell(golden):
    assert sorted(golden) == sorted([*CELLS, "battery"])


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_outputs_unchanged(name, golden, tmp_path):
    assert cell_hashes(CELLS[name], tmp_path) == golden[name]


def test_golden_battery_unchanged(golden, tmp_path):
    assert battery_hashes(tmp_path) == golden["battery"]


def _record() -> None:
    import tempfile

    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in sorted(CELLS.items()):
            hashes[name] = cell_hashes(cfg, Path(tmp) / name.replace("/", "_"))
        hashes["battery"] = battery_hashes(Path(tmp) / "battery")
    FIXTURE.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(hashes)} cells to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
