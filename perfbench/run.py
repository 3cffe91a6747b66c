"""Layered benchmark of the fedclf simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --workload mlp-wide --holdout --seed 1
    python3 perfbench/run.py --record   # re-record references.json

It drives the simulator through its public API in this one process, from
``src/`` of the checkout it sits in, and repeats whole passes over the
workload's experiments for about ``--seconds``.  With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json: ``rounds_per_s`` is the median over
timed calls (an experiment's round loop, or one battery command), the
``round_ms`` percentiles are over every round, ``setup_s`` is the median
``build_experiment`` time (for the battery, of each command's mean cell
build).  These times are in reference seconds: wall time scaled by a
calibration loop run between rounds, which cancels the swings in CPU speed
a shared host gives the process (see ``refclock.py``); the wall-time
``rounds_per_s`` and the calibration figures go to the result file.
``correct_ratio`` is the share of experiments whose ``run.csv``
payload hash matches ``references.json``.  With
``--trace 1`` each timed call runs untraced and then traced, and the
per-layer metrics come from the traced calls; the median traced/untraced
ratio is ``trace.overhead_pct``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Results,
spans and an environment record go to ``perfbench/out/``.

BLAS threads are deliberately not pinned; ``FEDCLF_THREADS`` is removed from
the environment so client dispatch runs serially, the reference path.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WARMUP_ROUNDS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FEDCLF_THREADS")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; exit nonzero if fedclf is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import fedclf
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fedclf from {SRC}: {exc}")
    if SRC not in Path(fedclf.__file__).resolve().parents:
        sys.exit(f"perfbench: fedclf was imported from {fedclf.__file__}, not {SRC}")


def environment(fedclf_threads: str | None) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    env["FEDCLF_THREADS"] = fedclf_threads
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_text,
        "thread_env": env,
    }


def percentile(values: list[float], q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def warm_up(workload, out_dir: Path) -> None:
    """One short discarded experiment (or battery) so caches and imports settle."""
    import fedclf.server
    from workloads import battery_hashes

    cfg = replace(workload.config, rounds=WARMUP_ROUNDS, seed=workload.pool[0])
    if workload.battery:
        battery_hashes(cfg, [cfg.seed], out_dir / "warmup")
    else:
        fedclf.server.run_experiment(cfg)


def run_unit(workload, seeds, order_seed, stats, references, tracer, clock) -> None:
    """One timed call: an experiment, or one battery command over ``seeds``."""
    from workloads import run_battery, run_experiment

    if workload.battery:
        run_battery(
            workload.config, seeds, order_seed, OUT / "battery", stats, references,
            tracer, clock,
        )
    else:
        (seed,) = seeds
        run_experiment(
            replace(workload.config, seed=seed), stats, references, tracer, clock
        )


def end_to_end(stats) -> dict[str, float]:
    round_ms = [s * 1e3 for s in stats.round_s]
    return {
        "rounds_per_s": statistics.median(stats.rounds_per_s) if stats.rounds_per_s else 0.0,
        "round_ms.p50": percentile(round_ms, 50) if len(round_ms) > 1 else 0.0,
        "round_ms.p95": percentile(round_ms, 95) if len(round_ms) > 1 else 0.0,
        "setup_s": statistics.median(stats.setup_s) if stats.setup_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_ma_accuracy": statistics.fmean(stats.final_ma) if stats.final_ma else 0.0,
        "correct_ratio": 1.0 - stats.failed / stats.attempted if stats.attempted else 0.0,
    }


def run_workload(args) -> dict:
    """Measure one workload; returns the result object printed last."""
    from refclock import REFERENCE_S, RefClock
    from tracing import Tracer, layer_metrics, train_flops_per_sample
    from workloads import WORKLOADS, Stats, experiment_seeds, load_references

    workload = WORKLOADS[args.workload]
    references = load_references(workload.name)
    seeds = experiment_seeds(workload, args.seed, args.holdout)
    warm_up(workload, OUT / "battery")

    units = [seeds] if workload.battery else [[seed] for seed in seeds]
    untraced = Stats()
    traced = Stats()
    tracer = Tracer() if args.trace else None
    # Traced runs compare each call with an untraced twin in wall time, so
    # neither calibrates.
    clock = RefClock(None) if args.trace else RefClock()
    clock.calibrate()
    traced_ratios: list[float] = []
    pass_s: list[float] = []
    started = perf_counter()
    while True:
        t0 = perf_counter()
        for unit in units:
            plain_before, traced_before = untraced.busy_s, traced.busy_s
            run_unit(workload, unit, args.seed, untraced, references, None, clock)
            if tracer is None:
                continue
            # Each traced call follows its untraced twin, so both see the
            # same machine load and their ratio is the tracing overhead.
            with tracer.installed():
                run_unit(workload, unit, args.seed, traced, references, tracer, clock)
            plain = untraced.busy_s - plain_before
            if plain > 0 and traced.busy_s > traced_before:
                traced_ratios.append((traced.busy_s - traced_before) / plain)
        pass_s.append(perf_counter() - t0)
        # Stop on a whole pass, as near the requested duration as passes allow.
        if perf_counter() - started + statistics.median(pass_s) / 2 >= args.seconds:
            break
    measured_s = perf_counter() - started

    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    if tracer is None:
        metrics = end_to_end(untraced)
        units = {m["name"]: m["unit"] for m in args.benchmark["end_to_end"]}
    else:
        c, f, _ = workload.config.synthetic_shape
        flops = train_flops_per_sample(workload.config.shape_tag, f, c)
        overhead = (
            100.0 * (statistics.median(traced_ratios) - 1.0) if traced_ratios else 0.0
        )
        metrics = layer_metrics(tracer, flops, overhead)
        units = {m["name"]: m["unit"] for m in args.benchmark["per_layer"]}
        tracer.write_csv(OUT / f"spans-{workload.name}-seed{args.seed}.csv")

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "experiment_seeds": seeds,
        "trace": args.trace,
        "measured_s": measured_s,
        "passes": len(pass_s),
        "round_samples": len(untraced.round_s),
        "setup_samples": len(untraced.setup_s),
        "timed_calls": len(untraced.rounds_per_s),
        "failed_ratio": failed / attempted if attempted else 1.0,
        "wall_rounds_per_s": (
            statistics.median(untraced.wall_rounds_per_s)
            if untraced.wall_rounds_per_s
            else 0.0
        ),
        "calibrations": len(clock.loop_s),
        "calibration_s.p50": statistics.median(clock.loop_s) if clock.loop_s else None,
        "reference_s": REFERENCE_S,
        "environment": args.environment,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    for name, value in metrics.items():
        print(f"{workload.name:14s} {name:30s} {value:14.6g} {units[name]}")
    print(
        f"{workload.name:14s} attempted={attempted} failed={failed} "
        f"failed_ratio={detail['failed_ratio']:g} round_samples={detail['round_samples']} "
        f"setup_samples={detail['setup_samples']} passes={detail['passes']} "
        f"measured_s={measured_s:.2f}"
    )
    if clock.loop_s:
        print(
            f"{workload.name:14s} wall_rounds_per_s={detail['wall_rounds_per_s']:.6g} "
            f"calibrations={len(clock.loop_s)} "
            f"calibration_s.p50={detail['calibration_s.p50']:.6g} "
            f"(reference {REFERENCE_S})"
        )
    if tracer is not None:
        round_ms = metrics["server.round_ms"]
        shares = ", ".join(
            f"{name.removesuffix('_ms')} {metrics[name] / round_ms:.1%}"
            for name in (
                "client.update_ms", "model.sgd_ms", "client.evaluate_ms",
                "server.test_eval_ms", "selection.select_ms", "server.aggregate_ms",
                "selection.update_ms", "server.round_self_ms",
            )
        ) if round_ms else "no rounds traced"
        print(f"{workload.name:14s} share of traced round: {shares}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": detail["metrics"],
    }


def run_all(args, names: list[str]) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--holdout"] if args.holdout else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def record() -> None:
    """Re-record references.json from the plain ``run_experiment`` path."""
    import fedclf.server
    from workloads import REFERENCES, WORKLOADS, battery_hashes, run_hash

    references = {}
    for workload in WORKLOADS.values():
        seeds = [*workload.pool, workload.holdout]
        if workload.battery:
            refs = battery_hashes(workload.config, seeds, OUT / "record")
        else:
            refs = {
                str(seed): run_hash(
                    fedclf.server.run_experiment(replace(workload.config, seed=seed))
                )
                for seed in seeds
            }
        references[workload.name] = dict(sorted(refs.items()))
        print(f"recorded {len(refs)} references for {workload.name}")
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--holdout", action="store_true", help="run only the held-out experiment seed"
    )
    parser.add_argument("--record", action="store_true", help="re-record references")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    fedclf_threads = os.environ.pop("FEDCLF_THREADS", None)
    _import_program()
    OUT.mkdir(parents=True, exist_ok=True)
    if args.record:
        record()
        return 0

    args.benchmark = benchmark
    args.environment = environment(fedclf_threads)
    (OUT / "env.json").write_text(json.dumps(args.environment, indent=1) + "\n")
    if args.workload == "all":
        result = run_all(args, names)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
