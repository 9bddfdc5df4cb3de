"""Exact-lane guard: a tiny five-method matrix reproduces pinned F1 bit for bit.

Speedups that must not change numerics (closed-form stages, scatter and
validation rewrites, buffer reuse) are checked against values recorded
before them.  The same rows must also come out for any BLAS thread count.

Run as a script, this module prints the lane's rows as JSON:
    PYTHONPATH=src python tests/test_exact_lane.py OUT_DIR
"""
import csv
import json
import os
import subprocess
import sys

from partialner.corpus import SynthConfig
from partialner.experiment import ExperimentConfig, run_experiment
from partialner.tagger import TaggerConfig

LANE = ExperimentConfig(
    synth=SynthConfig(n_sentences=200, seed=13), dev_sentences=60, test_sentences=60,
    fractions=(0.3,), seeds=(0,),
    methods=("supervised", "bond", "guided_bond", "bde:guided_bond+supervised",
             "bde:guided_bond+guided_bond"),
    tagger=TaggerConfig(embed_dim=8, window=1, hidden_dim=12, hash_buckets=1024,
                        learning_rate=0.3, max_epochs=4, patience=4),
    self_train_epochs=3, workers=1)

# method -> (repr(f1), repr(val_f1))
PINNED = {
    "supervised": ("0.061624649859943974", "0.11046511627906976"),
    "bond": ("0.061624649859943974", "0.11046511627906976"),
    "guided_bond": ("0.1329923273657289", "0.19895287958115182"),
    "bde:guided_bond+supervised": ("0.06", "0.03980099502487562"),
    "bde:guided_bond+guided_bond": ("0.10309278350515463", "0.1038961038961039"),
}

# method -> (precision, recall, f1, val_f1, kept_entities) as written in results.csv;
# every row also has fraction 0.3, seed 0 and an empty error column
PINNED_ROWS = {
    "supervised": (
        "0.044897959183673466", "0.09821428571428571", "0.061624649859943974",
        "0.11046511627906976", "114"),
    "bond": (
        "0.044897959183673466", "0.09821428571428571", "0.061624649859943974",
        "0.11046511627906976", "114"),
    "guided_bond": (
        "0.0931899641577061", "0.23214285714285715", "0.1329923273657289",
        "0.19895287958115182", "114"),
    "bde:guided_bond+supervised": (
        "0.041666666666666664", "0.10714285714285714", "0.06",
        "0.03980099502487562", "114"),
    "bde:guided_bond+guided_bond": (
        "0.07246376811594203", "0.17857142857142858", "0.10309278350515463",
        "0.1038961038961039", "114"),
}


def lane_rows(out_dir: str) -> list[dict]:
    """results.csv rows of the lane, without the wall_ms column."""
    with open(run_experiment(LANE, out_dir), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        del row["wall_ms"]
    return rows


def test_pinned_f1(tmp_path):
    rows = lane_rows(str(tmp_path))
    assert all(not row["error"] for row in rows)
    assert {row["method"]: (row["f1"], row["val_f1"]) for row in rows} == PINNED


def expected_rows() -> list[dict]:
    return [dict(method=method, fraction="0.3", seed="0", precision=p, recall=r, f1=f1,
                 val_f1=val_f1, kept_entities=kept, error="")
            for method, (p, r, f1, val_f1, kept) in PINNED_ROWS.items()]


def test_pinned_rows(tmp_path):
    assert lane_rows(str(tmp_path)) == expected_rows()


def test_blas_thread_count_does_not_change_rows(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out_dir = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), str(out_dir)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    assert {row["method"]: (row["f1"], row["val_f1"]) for row in outputs[0]} == PINNED
    assert outputs[0] == expected_rows()


if __name__ == "__main__":
    print(json.dumps(lane_rows(sys.argv[1])))
