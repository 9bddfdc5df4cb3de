#!/usr/bin/env python3
r"""Run the benchmark on two checkouts in alternating pairs and apply the
claim rule to every end-to-end metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload selftrain \
        --pairs 10 --seed 0 --out BENCH_<n>.json

Each pair runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each tree, with the command prefix (BLAS thread
settings) and the run length T (`run_seconds`) of CHANGE's BENCHMARK.json;
even pairs run PARENT first and odd pairs CHANGE first.  Every run uses the same seed, as the benchmark command
does.  The output file holds every run's metrics, cell times and F1 means
and, per end-to-end metric, both sides' medians and quartiles
(numpy.percentile 25/75, linear), the pairs the change wins, how much worse
the change's median is than the parent's relative to it, whether the
claim rule holds and whether the metric is resolved.  The claim holds when
the change wins at least 9 of 10 pairs, its median beats the parent's by
more than the parent's interquartile range, every change run is correct and
the change fails no larger share of its attempted cells than the parent.  A
metric is unresolved when the parent's interquartile range, relative to its
median, is wider than the metric's bound, unless every change run beats
every parent run: its spread then cannot tell a regression from noise.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

SIDES = ("parent", "change")
WIN_SHARE = 0.9  # pairs the change must win: 9 of 10


def benchmark_spec(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_tree(tree: str, prefix: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced benchmark run in `tree`: its result line and, from the
    context line before it, the per-method cell times and F1 means."""
    cmd = [*prefix, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True,
                         timeout=600 + 20 * seconds)
    context, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "run_s": round(time.perf_counter() - start, 2),
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "cell_s": context["cell_s"], "f1_mean": context["f1_mean"]}


def run_pairs(trees: dict, prefix: list[str], workload: str, pairs: int, seed: int,
              seconds: float, runner=None) -> list[dict]:
    """`pairs` pairs of runs, alternating which side goes first; one record
    per run, in the order they ran.  `runner` defaults to `run_tree`."""
    runner = runner or run_tree
    runs = []
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = runner(trees[side], prefix, workload, seed, seconds)
            runs.append(dict(pair=pair, side=side, seed=seed, **result))
            print(f"pair {pair} {side}: {result['metrics']}", file=sys.stderr, flush=True)
    return runs


def failed_share(runs: list[dict], side: str) -> float:
    attempted = sum(r["attempted"] for r in runs if r["side"] == side)
    failed = sum(r["failed"] for r in runs if r["side"] == side)
    return failed / attempted if attempted else 0.0


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: medians, quartiles, pairs won, the claim rule
    and whether the parent's spread resolves the metric."""
    pairs = sorted({r["pair"] for r in runs})
    value = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    runs_ok = (all(r["correct"] for r in runs if r["side"] == "change")
               and failed_share(runs, "change") <= failed_share(runs, "parent"))
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        sides = {side: [value[p, side][name] for p in pairs] for side in SIDES}
        stats = {side: {"median": float(np.median(v)),
                        "q1": float(np.percentile(v, 25)),
                        "q3": float(np.percentile(v, 75))} for side, v in sides.items()}
        wins = sum(1 for p, c in zip(sides["parent"], sides["change"])
                   if (c < p if lower else c > p))
        gain = stats["parent"]["median"] - stats["change"]["median"]
        gain = gain if lower else -gain
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        median = abs(stats["parent"]["median"])
        worse = -gain / median if median else 0.0
        spread = iqr / median if median else (math.inf if iqr else 0.0)
        beats_all = (max(sides["change"]) < min(sides["parent"]) if lower
                     else min(sides["change"]) > max(sides["parent"]))
        bound = spec.get("bound")
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], **{
                f"{side}_{k}": v for side in SIDES for k, v in stats[side].items()},
            "change_wins": wins, "pairs": len(pairs),
            "median_gain": gain, "parent_iqr": iqr,
            "claim_holds": (wins >= math.ceil(WIN_SHARE * len(pairs)) and gain > iqr
                            and runs_ok),
            "median_worse_by": worse, "bound": bound,
            "within_bound": bound is None or worse <= bound,
            "resolved": bound is None or spread <= bound or beats_all,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    spec = benchmark_spec(trees["change"])
    runs = run_pairs(trees, spec["command"], args.workload, args.pairs, args.seed,
                     spec["run_seconds"])
    result = {"workload": args.workload, "pairs": args.pairs, "seed": args.seed,
              "seconds": spec["run_seconds"], "command": spec["command"], "trees": trees,
              "summary": summarize(runs, spec["end_to_end"]), "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for name, s in result["summary"].items():
        print(f"{name:14s} parent {s['parent_median']:.4g} change {s['change_median']:.4g} "
              f"wins {s['change_wins']}/{s['pairs']} gain {s['median_gain']:.4g} "
              f"iqr {s['parent_iqr']:.4g} claim {s['claim_holds']} "
              f"within_bound {s['within_bound']} resolved {s['resolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
