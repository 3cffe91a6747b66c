"""Benchmark workloads, their experiment runners and the output-correctness gate.

Every workload has a fixed pool of experiment seeds whose ``run.csv``
payload hashes are recorded in ``references.json``.  The benchmark's
``--seed`` sets the order in which the pool is visited (and, for the battery,
the order of its strategies and datasets); a run always covers whole passes
over the pool, so work counts repeat exactly from run to run.  One further
seed per workload is held out: it is recorded but only ``--holdout`` runs it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import fedclf.cli
import fedclf.server
from fedclf.dataset import PartitionSpec, SplitMode
from fedclf.selection import Strategy
from fedclf.server import ExperimentConfig, deterministic_csv_payload, run_log_csv

from refclock import RefClock
from tracing import patched

REFERENCES = Path(__file__).resolve().parent / "references.json"
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    config: ExperimentConfig
    pool: tuple[int, ...]
    holdout: int
    battery: bool = False


def _config(**overrides) -> ExperimentConfig:
    """The paper's configuration, with ``overrides`` applied."""
    base = ExperimentConfig(
        num_clients=50,
        select_k=5,
        rounds=100,
        learning_rate=0.01,
        batch_size=32,
        strategy=Strategy.FEDCLF,
        feedback_enabled=True,
        synthetic_shape=(10, 8, 7200),
        partition=PartitionSpec(shard_size=50, split_mode=SplitMode.EQUAL, num_clients=50),
    )
    return replace(base, **overrides)


BATTERY_DATASETS = ("s1-equal", "s60-nonequal")

WORKLOADS = {
    w.name: w
    for w in (
        # Per-call Python overhead dominates (client_update is ~84% of a round):
        # overhead cuts and cohort stacking show here, selection changes should not.
        Workload(
            "paper-default",
            _config(),
            pool=(1, 2, 3, 4, 5, 6, 7, 8),
            holdout=9,
        ),
        # Matmul FLOPs dominate; shows whether overhead cuts still matter once
        # compute does, and its k=20 cohort is the best case for a stacked kernel.
        Workload(
            "mlp-wide",
            _config(
                num_clients=200,
                select_k=20,
                shape_tag="mlp:64",
                synthetic_shape=(10, 32, 28800),
                partition=PartitionSpec(50, SplitMode.EQUAL, 200),
            ),
            pool=(1, 2),
            holdout=3,
        ),
        # Feedback off, so every post-warmup round ranks 1,000 records: the only
        # workload where selection and a 1,000-shard nonequal partition do
        # real work.  Clients are tiny (about 20 samples, one SGD step).
        Workload(
            "many-clients",
            _config(
                num_clients=1000,
                select_k=10,
                rounds=300,
                feedback_enabled=False,
                synthetic_shape=(10, 8, 24000),
                partition=PartitionSpec(10, SplitMode.NONEQUAL, 1000),
            ),
            pool=(1, 2, 3),
            holdout=4,
        ),
        # The only workload through the cli layer (one battery command, 6
        # strategies x 2 partitions) and the gradnorm, oort, newt, random paths.
        Workload(
            "battery",
            _config(),
            pool=(1,),
            holdout=2,
            battery=True,
        ),
    )
}


@dataclass
class Stats:
    """End-to-end measurements and the correctness tally of one run.

    Times are reference seconds (see ``refclock``); ``wall_rounds_per_s``
    and ``busy_s`` are the same calls in wall seconds.
    """

    attempted: int = 0
    failed: int = 0
    setup_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    rounds_per_s: list[float] = field(default_factory=list)
    wall_rounds_per_s: list[float] = field(default_factory=list)
    final_ma: list[float] = field(default_factory=list)
    busy_s: float = 0.0  # wall time of the timed calls

    def tally(self, key: str, history, references: dict[str, str]) -> None:
        """Count one experiment; it fails unless its run.csv hash matches."""
        self.attempted += 1
        if references.get(key) != run_hash(history):
            self.failed += 1
            print(f"perfbench: output mismatch for experiment {key}", file=sys.stderr)
            return
        self.final_ma.append(history[-1].ma_accuracy)


def run_hash(history) -> str:
    payload = deterministic_csv_payload(run_log_csv(history))
    return hashlib.sha256(payload.encode()).hexdigest()


def load_references(workload: str) -> dict[str, str]:
    return json.loads(REFERENCES.read_text())[workload]


def experiment_seeds(workload: Workload, seed: int, holdout: bool) -> list[int]:
    """The pool in the order the workload seed gives it (or the held-out seed)."""
    if holdout:
        return [workload.holdout]
    order = list(workload.pool)
    random.Random(seed).shuffle(order)
    return order


def run_experiment(
    cfg: ExperimentConfig, stats: Stats, references, tracer=None, clock=None
) -> None:
    """Build and run one experiment, timing setup and every round from outside.

    The round loop's time is the sum of its rounds; ``clock`` calibrates
    between them.
    """
    clock = clock or RefClock(None)
    key = str(cfg.seed)
    if tracer is not None:
        tracer.experiment = key
    setups, rounds = [], []
    try:
        # Untraced, setup is repeated so setup_s is a median of many builds
        # spread over the run; the last build is the one that runs.  Traced,
        # it is built once so work counts are per experiment.
        for _ in range(SETUP_REPEATS if tracer is None else 1):
            clock.tick()
            started = clock.now()
            experiment = fedclf.server.build_experiment(cfg)
            setups.append((started, clock.now()))
        for round_index in range(1, cfg.rounds + 1):
            clock.tick()
            started = clock.now()
            experiment.run_round(round_index)
            rounds.append((started, clock.now()))
        clock.calibrate()
    except Exception:  # a failed experiment is counted, the run goes on
        traceback.print_exc()
        stats.attempted += 1
        stats.failed += 1
        return
    stats.setup_s.extend(clock.reference_s(*iv) for iv in setups)
    round_s = [clock.reference_s(*iv) for iv in rounds]
    stats.round_s.extend(round_s)
    stats.rounds_per_s.append(cfg.rounds / sum(round_s))
    wall = sum(end - start for start, end in rounds)
    stats.wall_rounds_per_s.append(cfg.rounds / wall)
    stats.busy_s += wall
    stats.tally(key, experiment.history, references)


def battery_argv(
    cfg: ExperimentConfig, seeds: list[int], order_seed: int, out_dir: Path
) -> tuple[list[str], int]:
    """Write a battery spec at ``cfg`` settings; return the CLI argv and cell count."""
    strategies = [s.value for s in Strategy]
    datasets = list(BATTERY_DATASETS)
    rng = random.Random(order_seed)
    rng.shuffle(strategies)
    rng.shuffle(datasets)
    c, f, n = cfg.synthetic_shape
    spec = out_dir / "battery.conf"
    out_dir.mkdir(parents=True, exist_ok=True)
    spec.write_text(
        f"clients={cfg.num_clients}\n"
        f"select_k={cfg.select_k}\n"
        f"rounds={cfg.rounds}\n"
        f"lr={cfg.learning_rate}\n"
        f"batch={cfg.batch_size}\n"
        f"synthetic={c}x{f}x{n}\n"
        f"strategies={','.join(strategies)}\n"
        f"datasets={','.join(datasets)}\n"
        f"seeds={','.join(str(s) for s in seeds)}\n"
    )
    argv = ["battery", str(spec), "--out", str(out_dir / "out")]
    return argv, len(strategies) * len(datasets) * len(seeds)


def cell_key(cfg: ExperimentConfig) -> str:
    part = cfg.partition
    return f"{cfg.seed}/s{part.shard_size}-{part.split_mode.value}/{cfg.strategy.value}"


class BatteryProbe:
    """Timers the battery workload needs for its end-to-end metrics.

    The battery drives the round loop itself, so cell outputs, setup and
    round times (as ``clock`` intervals) are caught at the bindings the
    battery calls through; ``clock`` calibrates after each of them.
    """

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = clock or RefClock(None)
        self.cells: list[tuple[ExperimentConfig, list]] = []
        self.setups: list[tuple[float, float]] = []
        self.rounds: list[tuple[float, float]] = []

    def _capture(self, fn):
        def run_experiment(cfg, out_dir=None):
            if self.tracer is not None:
                self.tracer.experiment = cell_key(cfg)
            history = fn(cfg, out_dir)
            self.cells.append((cfg, history))
            return history

        return run_experiment

    def _timer(self, sink: list[tuple[float, float]]):
        clock = self.clock

        def make(fn):
            def timed(*args, **kwargs):
                started = clock.now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    sink.append((started, clock.now()))
                    clock.tick()

            return timed

        return make

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(fedclf.cli, "run_experiment", self._capture))
            stack.enter_context(
                patched(fedclf.server, "build_experiment", self._timer(self.setups))
            )
            stack.enter_context(
                patched(fedclf.server.Experiment, "run_round", self._timer(self.rounds))
            )
            yield self


def battery_hashes(cfg: ExperimentConfig, seeds: list[int], out_dir: Path) -> dict[str, str]:
    """run.csv hashes of every cell of one plain battery command."""
    argv, _ = battery_argv(cfg, seeds, 0, out_dir)
    probe = BatteryProbe()
    with probe.installed():
        code = fedclf.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"battery exited with code {code}")
    return {cell_key(cfg): run_hash(history) for cfg, history in probe.cells}


def run_battery(
    cfg: ExperimentConfig,
    seeds: list[int],
    order_seed: int,
    out_dir: Path,
    stats: Stats,
    references,
    tracer=None,
    clock=None,
) -> None:
    """Run one ``fedclf battery`` command and check every cell's run.csv."""
    argv, expected = battery_argv(cfg, seeds, order_seed, out_dir)
    probe = BatteryProbe(tracer, clock)
    clock = probe.clock
    with probe.installed():
        clock.tick()
        started = clock.now()
        try:
            if tracer is None:
                code = fedclf.cli.main(argv)
            else:
                code = tracer.span("cli.battery")(fedclf.cli.main)(argv)
        except Exception:  # counted below as cells that never finished
            traceback.print_exc()
            code = -1
        ended = clock.now()
    clock.calibrate()
    for cell_cfg, history in probe.cells:
        stats.tally(cell_key(cell_cfg), history, references)
    # Cells that never finished fail; so does a nonzero exit with all cells done.
    missing = expected - len(probe.cells)
    failures = missing or int(code != 0)
    if failures:
        stats.attempted += failures
        stats.failed += failures
        return
    # The cells' builds are bimodal (s1-equal and s60-nonequal partitions in
    # equal numbers), so a median over them would sit between the two modes;
    # one mean per battery command is the setup sample instead.
    stats.setup_s.append(statistics.fmean(clock.reference_s(*iv) for iv in probe.setups))
    stats.round_s.extend(clock.reference_s(*iv) for iv in probe.rounds)
    rounds = sum(len(h) for _, h in probe.cells)
    stats.rounds_per_s.append(rounds / clock.reference_s(started, ended))
    stats.wall_rounds_per_s.append(rounds / (ended - started))
    stats.busy_s += ended - started
