#!/usr/bin/env python3
"""Compare two run directories byte for byte.

    python3 scripts/compare_runs.py RUN_A RUN_B

Compares the names and bytes of every file under the two directories,
`results.csv` in every column but `wall_ms`, and an `.npz` file array by
array (names, dtype, shape and bytes), naming each array that differs: an
`experiment` run directory or a `train` output directory.  Prints one line
per difference and exits 0 only when there is none, 1 otherwise.
"""
import argparse
import csv
import os
import sys
import zipfile

import numpy as np

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


def _npz_arrays(path: str) -> dict | bytes | None:
    """name -> (dtype, shape, bytes) of every array in an .npz file, or the
    file's bytes if numpy cannot read it as one."""
    try:
        with np.load(path, allow_pickle=False) as z:
            return {n: (z[n].dtype.str, z[n].shape, z[n].tobytes()) for n in z.files}
    except FileNotFoundError:
        return None
    except (OSError, EOFError, ValueError, zipfile.BadZipFile):  # not an .npz numpy reads
        return _read_bytes(path)


def _array_diff(a, b) -> str:
    if a is None or b is None:
        return f"only in {'B' if a is None else 'A'}"
    for what, x, y in zip(("dtype", "shape"), a, b):
        if x != y:
            return f"{what} {x} in A, {y} in B"
    return "contents differ"


def _compare(a, b, name: str) -> list[str]:
    """Differences between two readings of one file; None is a missing file."""
    if a == b:
        return []
    if a is None or b is None:
        return [f"{name}: only in {'B' if a is None else 'A'}"]
    if isinstance(a, dict) and isinstance(b, dict):
        return [f"{name} array {k}: {_array_diff(a.get(k), b.get(k))}"
                for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
    if not isinstance(a, list) or not isinstance(b, list):
        return [f"{name}: contents differ"]
    if len(a) != len(b):
        return [f"{name}: {len(a)} rows in A, {len(b)} in B"]
    return [f"{name} row {i}: {ra} != {rb}"
            for i, (ra, rb) in enumerate(zip(a, b)) if ra != rb]


def _files(run: str) -> set[str]:
    """Every file under `run`, as a path relative to it with / separators."""
    return {os.path.relpath(os.path.join(d, n), run).replace(os.sep, "/")
            for d, _, names in os.walk(run) for n in names}


def compare(run_a: str, run_b: str) -> list[str]:
    """Every difference between two run directories, one line each."""
    diffs = []
    for name in sorted(_files(run_a) | _files(run_b)):
        read = (_results_rows if name == RESULTS
                else _npz_arrays if name.endswith(".npz") else _read_bytes)
        diffs += _compare(read(os.path.join(run_a, name)), read(os.path.join(run_b, name)), name)
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
