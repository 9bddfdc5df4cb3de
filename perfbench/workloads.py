"""The three benchmark workloads, their output checks and their metrics.

Each workload is a closed loop with one client, this process: the next
iteration starts when the previous one has returned.

- selftrain: one bond and one guided_bond cell at fraction 0.05, in-process
  through `experiment.run_cell`.  SGD, backward, forward and teacher scoring
  do the work; cross-fit and the pool are bypassed.
- crossfit: bde:guided_bond+supervised and bde:guided_bond+guided_bond at
  fraction 0.05, same seed, k=2, in-process.  Cross-fit estimation runs twice
  on identical inputs and validation takes a larger share.
- sweep: supervised over every fraction x 5 seeds through
  `experiment.run_experiment` with 2 pool workers into a fresh directory.
  Fixed per-cell costs and the pool dominate.

The workload seed picks the model seeds; corpus, mask seed and epoch counts
come from the experiment config.
"""
from __future__ import annotations

import csv
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from partialner import bde, experiment
from partialner.experiment import ExperimentConfig, MethodSpec

from . import probes
from .spans import Tracer

WORKLOADS = ("selftrain", "crossfit", "sweep")
FRACTION = 0.05
BDE_K = 2
SWEEP_WORKERS = 2
SWEEP_SEEDS = 5
SETUP_REPEATS = 5
IN_PROCESS_METHODS = {
    "selftrain": ("bond", "guided_bond"),
    "crossfit": ("bde:guided_bond+supervised", "bde:guided_bond+guided_bond"),
}
SHORT_NAMES = {"supervised": "supervised", "bond": "bond", "guided_bond": "guided_bond",
               "bde:guided_bond+supervised": "bde_gb_sup",
               "bde:guided_bond+guided_bond": "bde_gb_gb"}
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")


def workload_config(base: ExperimentConfig, workload: str, seed: int) -> ExperimentConfig:
    if workload == "sweep":
        seeds = tuple(SWEEP_SEEDS * seed + i for i in range(SWEEP_SEEDS))
        return replace(base, methods=("supervised",), seeds=seeds,
                       workers=SWEEP_WORKERS)
    if workload in IN_PROCESS_METHODS:
        return replace(base, methods=IN_PROCESS_METHODS[workload],
                       fractions=(FRACTION,), seeds=(seed,), bde_k=BDE_K, workers=1)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


@dataclass
class Prepared:
    """Corpora and cached partial corpora, built once per process."""

    train: object
    dev: object
    test: object
    masks: dict


def prepare(config: ExperimentConfig, cache_dir: str) -> Prepared:
    """The set-up `setup_s` times: corpora plus every mask into `cache_dir`."""
    train, dev, test = experiment.load_corpora(config)
    masks = {f: experiment.masked_partial(train, f, config.mask_seed, cache_dir)
             for f in config.fractions}
    return Prepared(train, dev, test, masks)


@dataclass
class Cell:
    method: str
    fraction: float
    seed: int
    f1: float | None
    val_f1: float | None
    error: str
    wall_s: float


@dataclass
class Iteration:
    wall_s: float
    cells: list[Cell]
    problems: list[str] = field(default_factory=list)


def run_iteration(config: ExperimentConfig, prepared: Prepared, out_dir: str,
                  tracer: Tracer | None = None) -> Iteration:
    """One pass over the workload's cells; output checks run after the clock stops."""
    os.makedirs(out_dir)
    root = tracer.span("bench.iteration") if tracer else nullcontext()
    if config.workers == 1:
        partial, kept = prepared.masks[FRACTION]
        lineage_dir = os.path.join(out_dir, "lineage")
        os.makedirs(lineage_dir)
        records, walls = [], []
        start = time.perf_counter()
        with root:
            for method in config.methods:
                t0 = time.perf_counter()
                records.append(experiment.run_cell(
                    MethodSpec.parse(method), partial, kept, prepared.dev,
                    prepared.test, config, FRACTION, config.seeds[0], lineage_dir))
                walls.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        cells = [Cell(r.method, r.fraction, r.seed, r.f1, r.val_f1, r.error, w)
                 for r, w in zip(records, walls)]
        problems = _check_lineage(lineage_dir)
    else:
        start = time.perf_counter()
        with root:
            results = experiment.run_experiment(config, out_dir)
        wall = time.perf_counter() - start
        cells = _read_results(results)
        problems = [f"verify_report: {p}" for p in experiment.verify_report(out_dir)]
    shutil.rmtree(out_dir)
    return Iteration(wall, cells, problems)


def _check_lineage(lineage_dir: str) -> list[str]:
    problems = []
    for name in sorted(os.listdir(lineage_dir)):
        try:
            bde.LineageRecord.read_csv(os.path.join(lineage_dir, name)).verify()
        except (AssertionError, ValueError, KeyError) as exc:
            problems.append(f"lineage {name}: {exc}")
    return problems


def _read_results(path: str) -> list[Cell]:
    def num(text):
        return float(text) if text else None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [Cell(row["method"], float(row["fraction"]), int(row["seed"]),
                     num(row["f1"]), num(row["val_f1"]), row["error"],
                     int(row["wall_ms"]) / 1000)
                for row in csv.DictReader(fh)]


def check(iterations: list[Iteration]) -> list[str]:
    """Finite F1 in [0, 1] and bit-identical F1 for a cell across repeats."""
    problems = [p for it in iterations for p in it.problems]
    seen: dict[tuple, tuple] = {}
    for it in iterations:
        for c in it.cells:
            if c.error:
                continue
            key = (c.method, c.fraction, c.seed)
            for label, v in (("f1", c.f1), ("val_f1", c.val_f1)):
                if v is None or not math.isfinite(v) or not 0.0 <= v <= 1.0:
                    problems.append(f"{key}: {label} {v!r} not a finite value in [0, 1]")
            if seen.setdefault(key, (c.f1, c.val_f1)) != (c.f1, c.val_f1):
                problems.append(f"{key}: F1 {(c.f1, c.val_f1)!r} differs from "
                                f"an earlier repeat {seen[key]!r}")
    return problems


def measure(config: ExperimentConfig, prepared: Prepared, work_dir: str,
            seconds: float) -> list[Iteration]:
    """Iterations until the next one would end past `seconds`; at least one."""
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        iterations.append(run_iteration(
            config, prepared, os.path.join(work_dir, f"iter{len(iterations)}")))
        elapsed = time.perf_counter() - start
        if elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            return iterations


def setup_times(workload: str, config_path: str, work_dir: str,
                repeats: int = SETUP_REPEATS) -> list[float]:
    """Set-up wall times, each in a fresh interpreter with a fresh mask cache."""
    times = []
    for i in range(repeats):
        cache = os.path.join(work_dir, f"setup{i}")
        out = subprocess.run(
            [sys.executable, PROBE, "--config", config_path, "--workload", workload,
             "--cache", cache],
            check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
        shutil.rmtree(cache, ignore_errors=True)
    return times


def peak_rss_mb() -> float:
    """This process's peak RSS plus, per pool worker, the largest child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + SWEEP_WORKERS * child) / 1024.0


def cell_summary(iterations: list[Iteration]) -> dict:
    """Per-method median cell time and mean test F1: context, not gated."""
    by_method: dict[str, list[Cell]] = {}
    for it in iterations:
        for c in it.cells:
            by_method.setdefault(c.method, []).append(c)
    return {
        "cell_s": {SHORT_NAMES.get(m, m): statistics.median(c.wall_s for c in cs)
                   for m, cs in by_method.items()},
        "f1_mean": {m: statistics.fmean(c.f1 for c in cs if not c.error)
                    if any(not c.error for c in cs) else None
                    for m, cs in by_method.items()},
    }


def end_to_end(iterations: list[Iteration], setup: list[float], rss_mb: float,
               ) -> dict[str, float]:
    cells = [c for it in iterations for c in it.cells]
    ok = sum(1 for c in cells if not c.error)
    return {
        "setup_s": statistics.median(setup),
        "cells_per_s": len(cells) / sum(it.wall_s for it in iterations),
        "cell_s.p50": statistics.median(c.wall_s for c in cells),
        "peak_rss_mb": rss_mb,
        "cell_ok_share": ok / len(cells),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 base: ExperimentConfig, config_path: str, work_dir: str,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result with metrics and context.

    Untraced: time iterations for `seconds`, then time set-up in fresh
    interpreters (after reading peak RSS, so their memory is not counted).
    Traced: set up under the probes, then one untraced and one traced
    iteration; their wall-time difference is the tracing overhead.
    """
    config = workload_config(base, workload, seed)
    cache = os.path.join(work_dir, "masks")
    if not trace:
        prepared = prepare(config, cache)
        iterations = measure(config, prepared, work_dir, seconds)
        rss = peak_rss_mb()
        metrics = end_to_end(iterations, setup_times(workload, config_path, work_dir,
                                                     setup_repeats), rss)
        tracer = None
    else:
        tracer = Tracer()
        with probes.installed(tracer), tracer.span("bench.setup"):
            prepared = prepare(config, cache)
        plain = run_iteration(config, prepared, os.path.join(work_dir, "plain"))
        with probes.installed(tracer):
            traced = run_iteration(config, prepared, os.path.join(work_dir, "traced"),
                                   tracer)
        iterations = [plain, traced]
        metrics = probes.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        metrics["trace.overhead_share"] = (traced.wall_s - plain.wall_s) / plain.wall_s
    problems = check(iterations)
    cells = [c for it in iterations for c in it.cells]
    return {
        "correct": not problems,
        "attempted": len(cells),
        "failed": sum(1 for c in cells if c.error),
        "metrics": metrics,
        "context": {"workload": workload, "seed": seed, "trace": int(trace),
                    "iterations": len(iterations),
                    "iteration_s": [it.wall_s for it in iterations],
                    **cell_summary(iterations), "problems": problems,
                    "errors": sorted({c.error for c in cells if c.error})},
        "tracer": tracer,
    }
