#!/usr/bin/env python3
"""Time each part of one guided self-training SGD step.

Runs the guided self-training stage of one full-config cell (fraction 0.05
by default) for a few epochs with one BLAS thread, batch after batch as
`tagger.fit` orders them, and times every part of every step: the
teacher's forward pass with the guidance pins, then the student's features,
each GEMM, the nonlinearities, the loss head, the embedding-gradient
scatter and `sgd_step`.  The parts replay `forward_flat` and
`flat_loss_and_grads` line by line, through the tagger's own helpers; each
step's loss and gradients are checked bit for bit against
`flat_loss_and_grads`, outside the timers.

Here the teacher part runs inline, before the student's parts.  In the
program a helper thread scores the teacher's batches while the student
trains, when the process has a core to spare (`selftrain._distill`), so the
student's critical path is the step without its teacher forward: the
`student path` row.

Timing one batch over and over is misleading: with its temporaries reused
from the allocator's free lists it runs much faster than inside a real
epoch, where every batch has a new size.  This script therefore times the
successive batches of real epochs, each once.

    python3 scripts/profile_step.py                      # seed 5, 3 epochs
    python3 scripts/profile_step.py --epochs 5 --json step.json
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import json
import sys
import time

import numpy as np

from partialner import annotation, experiment, selftrain, tagger
from partialner.rng import STREAM_SELFTRAIN, seeded_rng

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "configs", "experiment_full.json")
PARTS = ("teacher forward", "features", "x @ w1", "bias + tanh",
         "h @ w2 + softmax", "loss head", "x.T @ dpre", "dpre @ w1.T",
         "scatter", "sgd_step")


def guided_stage(config_path: str, fraction: float, seed: int):
    """The guided self-training stage of one cell: its table and its partial
    corpus, with the student trained by the first stage."""
    config = experiment.ExperimentConfig.from_json(config_path)
    train, dev, _ = experiment.load_corpora(config)
    partial, _ = annotation.mask_entities(train, fraction, config.mask_seed)
    init_model, _ = selftrain.ner_fit(partial, dev, config.with_seed(seed))
    return tagger.StageTable(init_model, [p.tokens for p in partial], dev), partial


def timed_step(student, teacher, ids, flags, tok, weights, known, labels, lr):
    """One guided step split into PARTS; returns each part's seconds."""
    clock = time.perf_counter
    stamps = [clock()]
    rows = tagger.forward_flat(teacher, ids, flags)[2]
    pinned = np.flatnonzero(known[tok])
    targets = annotation.pin_rows(rows, pinned, labels[tok[pinned]])
    stamps.append(clock())
    x = tagger._features(student, ids, flags)
    stamps.append(clock())
    h = x @ student.w1
    stamps.append(clock())
    h += student.b1
    np.tanh(h, out=h)
    stamps.append(clock())
    probs = h @ student.w2
    probs += student.b2
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    stamps.append(clock())
    loss = tagger._loss(probs, targets, weights)
    dlogits = np.subtract(probs, targets, out=probs)
    dlogits *= weights[:, None]
    gw2 = h.T @ dlogits
    gb2 = dlogits.sum(axis=0)
    dpre = dlogits @ student.w2.T
    np.multiply(h, h, out=h)
    np.subtract(1.0, h, out=h)
    dpre *= h
    stamps.append(clock())
    gw1 = x.T @ dpre
    gb1 = dpre.sum(axis=0)
    stamps.append(clock())
    dx = dpre @ student.w1.T
    stamps.append(clock())
    uniq, embed_rows = tagger._embed_grads(ids, dx, student.config.embed_dim)
    stamps.append(clock())
    grads = tagger.Gradients(gw1, gb1, gw2, gb2, uniq, embed_rows)
    ref_loss, ref = tagger.flat_loss_and_grads(student, ids, flags, targets, weights)
    if loss.hex() != ref_loss.hex() or not all(
            np.array_equal(getattr(grads, k), getattr(ref, k))
            for k in ("w1", "b1", "w2", "b2", "embed_ids", "embed_rows")):
        raise AssertionError("the timed parts differ from flat_loss_and_grads")
    start = clock()
    tagger.sgd_step(student, grads, lr)
    return np.diff(stamps).tolist() + [clock() - start]


def profile(table, partial, epochs: int) -> tuple[np.ndarray, list[int]]:
    """(steps, parts) seconds over `epochs` epochs, and each step's token count."""
    enc, student = table.enc, table.model
    cfg = student.config
    teacher = student.copy()
    labels = np.asarray([l for p in partial for l in p.labels], dtype=np.intp)
    known = labels != 0
    rng = seeded_rng(cfg.seed, STREAM_SELFTRAIN)
    n = len(enc)
    bounds = np.zeros(n + 1, dtype=np.intp)
    times, tokens = [], []
    for _ in range(epochs):  # the batching of tagger.fit
        order = rng.permutation(n)
        sizes = enc.lengths[order]
        np.cumsum(sizes, out=bounds[1:])
        tok = np.arange(bounds[-1]) + np.repeat(enc.offsets[order] - bounds[:-1], sizes)
        ids, flags = enc.ids[tok], enc.flags[tok]
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            batch = slice(bounds[start], bounds[stop])
            times.append(timed_step(student, teacher, ids[batch], flags[batch], tok[batch],
                                    tagger.sentence_weights(sizes[start:stop]),
                                    known, labels, cfg.learning_rate))
            tokens.append(int(bounds[stop] - bounds[start]))
        teacher.load_from(student)  # teacher_refresh_period 1
    return np.asarray(times), tokens


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=CONFIG, help="experiment config (corpus, mask seed)")
    ap.add_argument("--fraction", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=5, help="model seed of the cell")
    ap.add_argument("--epochs", type=int, default=3, help="self-training epochs to time")
    ap.add_argument("--json", help="also write the table to this file")
    args = ap.parse_args()

    table, partial = guided_stage(args.config, args.fraction, args.seed)
    times, tokens = profile(table, partial, args.epochs)
    us = times * 1e6
    total = us.sum(axis=1)
    print(f"{len(tokens)} steps, {min(tokens)}-{max(tokens)} tokens per batch, "
          f"{table.model.rows.size} table rows, numpy {np.__version__}, 1 BLAS thread")
    print(f"{'part':<18}{'median us':>10}{'mean us':>10}{'share':>8}")
    student = total - us[:, PARTS.index("teacher forward")]
    rows = {}
    for name, col in [*zip(PARTS, us.T), ("step", total), ("student path", student)]:
        rows[name] = {"median_us": float(np.median(col)), "mean_us": float(col.mean()),
                      "share": float(col.sum() / total.sum())}
        print(f"{name:<18}{rows[name]['median_us']:10.1f}{rows[name]['mean_us']:10.1f}"
              f"{rows[name]['share']:8.3f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"steps": len(tokens), "tokens_min": min(tokens),
                       "tokens_max": max(tokens), "table_rows": int(table.model.rows.size),
                       "numpy": np.__version__, "parts": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
