#!/usr/bin/env python3
r"""Time a benchmark set-up layer by layer, in fresh interpreters.

    python3 scripts/profile_setup.py TREE [TREE2] --workload sweep \
        --repeats 5 [--config configs/experiment_full.json] [--out FILE.json]

Each run starts a new interpreter with one BLAS thread, puts TREE's `src`
first on its path and times four parts of the set-up that perfbench's
`setup_s` measures:

- import: `import partialner.experiment`;
- corpora: `experiment.load_corpora(config)`;
- masks: the `experiment.mask_entities` calls made by the next part;
- sidecars: `experiment.masked_partial` for each of the workload's fractions
  into an empty directory, minus its masks.

The fractions are the workload's (`perfbench.workloads.workload_config`).
With one tree it runs `--repeats` times.  With two it runs `--repeats`
pairs in alternating order (TREE TREE2, TREE2 TREE, ...), and counts per
part the pairs in which TREE2 was faster.  It prints each part's median per
tree and writes every run to `--out` as JSON.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARTS = ("import", "corpora", "masks", "sidecars")

# Runs in the fresh interpreter: argv is src, config, cache dir, fractions.
CHILD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from partialner import experiment
t1 = time.perf_counter()
config = experiment.ExperimentConfig.from_json(sys.argv[2])
t2 = time.perf_counter()
train = experiment.load_corpora(config)[0]
t3 = time.perf_counter()
masks, draw = [], experiment.mask_entities
def timed(*args):
    start = time.perf_counter()
    try:
        return draw(*args)
    finally:
        masks.append(time.perf_counter() - start)
experiment.mask_entities = timed
for fraction in json.loads(sys.argv[4]):
    experiment.masked_partial(train, fraction, config.mask_seed, sys.argv[3])
t4 = time.perf_counter()
print(json.dumps({"import": t1 - t0, "corpora": t3 - t2, "masks": sum(masks),
                  "sidecars": t4 - t3 - sum(masks)}))
"""


def workload_fractions(config_path: str, workload: str) -> list[float]:
    """The fractions whose masks the workload's set-up draws."""
    sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src")) if p not in sys.path]
    from partialner.experiment import ExperimentConfig
    from perfbench.workloads import workload_config
    config = ExperimentConfig.from_json(config_path)
    return list(workload_config(config, workload, 0).fractions)


def run_once(tree: str, config_path: str, fractions: list[float]) -> dict[str, float]:
    """The part times of one set-up of `tree`, in a fresh interpreter."""
    cache = tempfile.mkdtemp(prefix="profile_setup_")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    try:
        out = subprocess.run(
            [sys.executable, "-c", CHILD, os.path.join(tree, "src"), config_path, cache,
             json.dumps(fractions)],
            check=True, capture_output=True, text=True, env=env, timeout=300)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_all(trees: list[str], repeats: int, config_path: str, fractions: list[float],
            runner=None) -> list[dict]:
    """`repeats` runs of each tree; with two trees the order alternates per pair."""
    runner = runner or run_once
    runs = []
    for pair in range(repeats):
        sides = range(len(trees)) if pair % 2 == 0 else reversed(range(len(trees)))
        for side in sides:
            tree = trees[side]
            parts = runner(tree, config_path, fractions)
            runs.append({"pair": pair, "side": side, "tree": tree, "parts": parts})
            print(f"pair {pair} {tree}: " + " ".join(
                f"{p} {parts[p]:.3f}" for p in PARTS), file=sys.stderr, flush=True)
    return runs


def summarize(trees: list[str], runs: list[dict]) -> dict:
    """Per part: each tree's median, in `trees` order, and with two trees the
    pairs the second won and its median over the first's."""
    times = {(r["pair"], r["side"]): r["parts"] for r in runs}
    pairs = sorted({r["pair"] for r in runs})
    out = {}
    for part in PARTS:
        medians = [statistics.median(times[p, side][part] for p in pairs)
                   for side in range(len(trees))]
        entry = {"median": medians}
        if len(trees) == 2:
            entry["second_wins"] = sum(1 for p in pairs
                                       if times[p, 1][part] < times[p, 0][part])
            entry["ratio"] = medians[1] / medians[0] if medians[0] else None
        out[part] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", help="one or two checkouts")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--config", default=os.path.join(ROOT, "configs", "experiment_full.json"))
    ap.add_argument("--out", help="JSON file to write")
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("at most two trees")
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    trees = [os.path.abspath(t) for t in args.trees]
    config_path = os.path.abspath(args.config)
    fractions = workload_fractions(config_path, args.workload)
    runs = run_all(trees, args.repeats, config_path, fractions)
    summary = summarize(trees, runs)
    for part, s in summary.items():
        line = " ".join(f"{m:.4f}" for m in s["median"])
        if "second_wins" in s:
            line += f" second wins {s['second_wins']}/{args.repeats}"
        print(f"{part:9s} {line}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "config": config_path,
                       "fractions": fractions, "repeats": args.repeats, "trees": trees,
                       "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
