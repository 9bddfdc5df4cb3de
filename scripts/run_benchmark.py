#!/usr/bin/env python3
"""Run the benchmark experiment matrix.

Thin wrapper over `partialner experiment` that defaults to the full
benchmark config.  Use --smoke for a two-minute sanity matrix instead.
The full matrix is embarrassingly parallel across cells; the default
worker count is one per core.  Speed is measured by perfbench/, not here.
"""
import argparse
import os
import sys

from partialner import cli

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "configs")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="run the small sanity matrix instead of the benchmark")
    ap.add_argument("--config", help="explicit experiment config (overrides --smoke)")
    ap.add_argument("--out", help="run directory (default: out_dir from the config)")
    args = ap.parse_args()

    config = args.config or os.path.join(
        CONFIG_DIR, "experiment_smoke.json" if args.smoke else "experiment_full.json")
    argv = ["experiment", "--config", config]
    if args.out:
        argv += ["--out", args.out]
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
