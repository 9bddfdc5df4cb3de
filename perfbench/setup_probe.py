"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is importing the package, `experiment.load_corpora` and
`experiment.masked_partial` for each of the workload's fractions into an
empty cache directory.

    python3 perfbench/setup_probe.py --config CONFIG --workload NAME --cache DIR
"""
import argparse
import time

start = time.perf_counter()

import bootstrap  # noqa: E402  (the script's own directory is on sys.path)

bootstrap.prepare_process()

from partialner.experiment import ExperimentConfig  # noqa: E402

from perfbench import workloads  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--cache", required=True)
    args = ap.parse_args()
    config = workloads.workload_config(ExperimentConfig.from_json(args.config),
                                       args.workload, 0)
    workloads.prepare(config, args.cache)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
