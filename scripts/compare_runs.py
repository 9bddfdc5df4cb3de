#!/usr/bin/env python3
"""Compare two experiment run directories byte for byte.

    python3 scripts/compare_runs.py RUN_A RUN_B

Compares `results.csv` (every column but `wall_ms`), `summary.md`,
`config_echo.json`, and the names and bytes of every file under `lineage/`
and `masks/`.  Prints one line per difference and exits 0 only when there
is none, 1 otherwise.
"""
import argparse
import csv
import os
import sys

FILES = ("summary.md", "config_echo.json")
DIRS = ("lineage", "masks")
RESULTS = "results.csv"
IGNORED_COLUMN = "wall_ms"


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _results_rows(path: str) -> list[list[str]] | None:
    """results.csv rows with the wall_ms column removed, header included."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        return None
    drop = rows[0].index(IGNORED_COLUMN) if rows and IGNORED_COLUMN in rows[0] else None
    return [[c for i, c in enumerate(row) if i != drop] for row in rows]


def _compare(a, b, name: str) -> list[str]:
    """Differences between two readings of one file; None is a missing file."""
    if a == b:
        return []
    if a is None or b is None:
        return [f"{name}: only in {'B' if a is None else 'A'}"]
    if isinstance(a, bytes):
        return [f"{name}: contents differ"]
    if len(a) != len(b):
        return [f"{name}: {len(a)} rows in A, {len(b)} in B"]
    return [f"{name} row {i}: {ra} != {rb}"
            for i, (ra, rb) in enumerate(zip(a, b)) if ra != rb]


def compare(run_a: str, run_b: str) -> list[str]:
    """Every difference between two run directories, one line each."""
    diffs = _compare(_results_rows(os.path.join(run_a, RESULTS)),
                     _results_rows(os.path.join(run_b, RESULTS)), RESULTS)
    names = list(FILES)
    for sub in DIRS:
        for run in (run_a, run_b):
            d = os.path.join(run, sub)
            names += [f"{sub}/{n}" for n in os.listdir(d)] if os.path.isdir(d) else []
    for name in dict.fromkeys(names):
        diffs += _compare(_read_bytes(os.path.join(run_a, name)),
                          _read_bytes(os.path.join(run_b, name)), name)
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("run_a")
    ap.add_argument("run_b")
    args = ap.parse_args(argv)
    for run in (args.run_a, args.run_b):
        if not os.path.isdir(run):
            ap.error(f"not a directory: {run}")
    diffs = compare(args.run_a, args.run_b)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s)" if diffs else "no difference")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
