"""partialner benchmark: time one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload selftrain --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

With --trace 0 the run measures the end-to-end metrics of BENCHMARK.json
with no wrapper installed; with --trace 1 it reports the per-layer metrics
and the tracing overhead.  Each metric is printed by name and unit, then a
context line (environment, per-method cell times, F1 means), and as the last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Spans and the full result are written under `.perfbench_out/` in the
checkout.  Exits 2 without a result when the checkout lacks the sources.
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

import bootstrap

OUT_DIR = os.path.join(bootstrap.ROOT, ".perfbench_out")
WORK_DIR = os.path.join(bootstrap.ROOT, ".perfbench_work")
CONFIG = os.path.join(bootstrap.ROOT, "configs", "experiment_full.json")


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(bootstrap.ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(bootstrap.ROOT))
        out = subprocess.run(["git", "-C", bootstrap.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.BLAS_THREAD_VARS},
        "commit": commit,
    }


def units() -> dict[str, str]:
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args) -> int:
    from partialner.experiment import ExperimentConfig

    from perfbench import workloads

    work = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            ExperimentConfig.from_json(CONFIG), CONFIG, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer")
    if tracer is not None:
        tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))
    unit = units()
    metrics = {name: {"value": value, "unit": unit[name]}
               for name, value in result["metrics"].items()}
    context = dict(result["context"], env=environment())
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, metrics=metrics, context=context), fh, indent=1)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']!r:>24} {m['unit']}")
    for problem in context["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(context))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced and then traced."""
    from perfbench import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {workload} trace={trace}", flush=True)
            out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                                 timeout=900)
            print(out.stdout, end="", flush=True)
            last = json.loads(out.stdout.strip().splitlines()[-1])
            combined["correct"] &= last["correct"]
            if trace == 0:
                combined["attempted"] += last["attempted"]
                combined["failed"] += last["failed"]
            for name, m in last["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all", "selftrain", "crossfit", "sweep"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = bootstrap.missing_sources()
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)} under {bootstrap.ROOT}",
              file=sys.stderr)
        return 2
    bootstrap.prepare_process()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
