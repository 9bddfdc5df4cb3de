"""Teacher-student self-training with optional guidance from known entities.

Two stages: an early-stopped fit on the partial hard labels (missing
entities read as O), then iterated distillation where a frozen teacher's
per-token label distributions are the student's soft targets and the teacher
is periodically replaced by the student.  With guidance on, teacher rows at
tokens covered by kept entity spans are overwritten with one-hots of the
known labels before every update, anchoring the loop to the annotations that
are certainly correct.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import tagger
from .annotation import PartiallyAnnotatedSentence, one_hot_rows, to_corpus
from .corpus import Corpus
from .rng import STREAM_SELFTRAIN, seeded_rng

METHODS = ("supervised", "bond", "guided_bond")


@dataclass(frozen=True)
class SelfTrainConfig:
    """Two-stage training configuration; the tagger config drives both stages."""

    tagger: tagger.TaggerConfig = field(default_factory=tagger.TaggerConfig)
    guidance: bool = False               # off: plain self-training; on: guided
    teacher_refresh_period: int = 1      # student epochs per teacher replacement
    self_train_epochs: int = 20
    hard_targets: bool = False           # argmax teacher outputs into one-hots
    self_train_patience: int | None = None  # None: best-checkpoint selection only
    checkpoint_dir: str | None = None    # write a teacher checkpoint per refresh

    def __post_init__(self):
        if self.teacher_refresh_period < 1:
            raise ValueError("teacher_refresh_period must be >= 1")
        if self.self_train_epochs < 1:
            raise ValueError("self_train_epochs must be >= 1")
        if self.self_train_patience is not None and self.self_train_patience < 1:
            raise ValueError("self_train_patience must be >= 1 when set")


@dataclass
class StageTrace:
    """Per-iteration validation F1 for one training stage."""

    stage: str                  # "ner_fit" or "self_train"
    val_f1: list[float]         # self_train: index 0 is the initial model
    refresh_epochs: list[int] = field(default_factory=list)
    best_iteration: int = 0

    def write_csv(self, path: str) -> None:
        refreshes = set(self.refresh_epochs)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("stage,iteration,val_f1,teacher_refresh\n")
            for i, f1 in enumerate(self.val_f1):
                fh.write(f"{self.stage},{i},{f1!r},{int(i in refreshes)}\n")


def ner_fit(partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
            config: SelfTrainConfig) -> tuple[tagger.TaggerModel, StageTrace]:
    """Early-stopped fit on the partial hard labels (masked entities as O).

    Trace iteration 0 is the freshly initialized model, matching the
    self-train convention, so `best_iteration` is `best_epoch + 1`.
    """
    train_corpus = to_corpus(partial, val.scheme, "partial-train")
    model = tagger.TaggerModel.init(config.tagger, val.scheme)
    model, report = tagger.train(model, train_corpus, val, config.tagger)
    trace = StageTrace("ner_fit", [report.baseline_f1] + list(report.val_f1),
                       [], report.best_epoch + 1)
    return model, trace


def self_train(init_model: tagger.TaggerModel,
               partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
               config: SelfTrainConfig) -> tuple[tagger.TaggerModel, StageTrace]:
    """Iterated distillation from a periodically refreshed frozen teacher.

    Teacher and student both start as copies of `init_model`.  Returns the
    student checkpoint with the best validation F1 seen across the stage,
    the pre-update model included as iteration 0.

    Without guidance or hard targets the student's targets are its own
    outputs, so every gradient is exactly zero and no epoch moves it.  That
    stage is computed in closed form: the trace, the refresh checkpoints and
    the returned model are the ones `_self_train_loop` would produce.
    """
    if config.guidance or config.hard_targets:
        return _self_train_loop(init_model, partial, val, config)
    val_enc, val_gold = tagger.validation_set(val, config.tagger)
    f1 = tagger.validation_f1(init_model, val_enc, val_gold)
    epochs = config.self_train_epochs
    if config.self_train_patience is not None:
        # nothing improves, so patience runs out after exactly that many epochs
        epochs = min(epochs, config.self_train_patience)
    period = config.teacher_refresh_period
    refreshes = list(range(period, epochs + 1, period))
    if config.checkpoint_dir:
        for epoch in refreshes:
            tagger.save_checkpoint(init_model, os.path.join(
                config.checkpoint_dir, f"teacher_epoch{epoch:03d}.npz"))
    return init_model.copy(), StageTrace("self_train", [f1] * (epochs + 1),
                                         refreshes, 0)


def _self_train_loop(init_model: tagger.TaggerModel,
                     partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
                     config: SelfTrainConfig) -> tuple[tagger.TaggerModel, StageTrace]:
    """The SGD loop of `self_train`.

    Teacher targets are recomputed lazily per batch (identical to
    materializing them per refresh window, since the teacher is frozen in
    between).
    """
    cfg = config.tagger
    teacher = init_model.copy()
    student = init_model.copy()
    token_seqs = [p.tokens for p in partial]
    enc = tagger.encode_tokens(token_seqs, cfg)
    lengths = enc.lengths
    n = len(token_seqs)
    total_tokens = int(enc.offsets[-1])
    sent_tok = [np.arange(a, b) for a, b in zip(enc.offsets[:-1], enc.offsets[1:])]
    c = init_model.scheme.tag_count

    covered = np.zeros(total_tokens, dtype=bool)
    override = np.zeros((0, c))
    if config.guidance:
        over_rows = []
        for p, base in zip(partial, enc.offsets[:-1]):
            cov = p.known.covered_indices(len(p))
            if cov.size:
                covered[cov + base] = True
                over_rows.append(one_hot_rows([p.labels[k] for k in cov], c))
        override = np.zeros((total_tokens, c))
        if over_rows:
            override[covered] = np.concatenate(over_rows, axis=0)

    val_enc, val_gold = tagger.validation_set(val, cfg)

    trace = StageTrace("self_train", [])
    f1 = tagger.validation_f1(student, val_enc, val_gold)
    trace.val_f1.append(f1)
    best_f1, best_model, best_iter = f1, student.copy(), 0
    since_best = 0
    rng = seeded_rng(cfg.seed, STREAM_SELFTRAIN)
    for epoch in range(1, config.self_train_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            chunk = order[start:start + cfg.batch_size]
            tok = np.concatenate([sent_tok[s] for s in chunk])
            targets = tagger.forward_flat(teacher, enc.ids[tok], enc.flags[tok])[2]
            if config.hard_targets:
                targets = one_hot_rows(np.argmax(targets, axis=1), c)
            if config.guidance:
                mask = covered[tok]
                if mask.any():
                    targets[mask] = override[tok[mask]]
            w = np.repeat(1.0 / (chunk.size * lengths[chunk]), lengths[chunk])
            _, grads = tagger.flat_loss_and_grads(
                student, enc.ids[tok], enc.flags[tok], targets, w)
            tagger.sgd_step(student, grads, cfg.learning_rate)
        f1 = tagger.validation_f1(student, val_enc, val_gold)
        trace.val_f1.append(f1)
        if f1 > best_f1:
            best_f1, best_iter = f1, epoch
            best_model.load_from(student)
            since_best = 0
        else:
            since_best += 1
        if epoch % config.teacher_refresh_period == 0:
            teacher.load_from(student)
            trace.refresh_epochs.append(epoch)
            if config.checkpoint_dir:
                tagger.save_checkpoint(teacher, os.path.join(
                    config.checkpoint_dir, f"teacher_epoch{epoch:03d}.npz"))
        if (config.self_train_patience is not None
                and since_best >= config.self_train_patience):
            break
    trace.best_iteration = best_iter
    return best_model, trace


@dataclass
class RunOutput:
    """Result of one training-method run."""

    model: tagger.TaggerModel
    val_f1: float              # validation F1 of the selected checkpoint
    traces: list[StageTrace]


def run_method(method: str, partial: Sequence[PartiallyAnnotatedSentence],
               val: Corpus, config: SelfTrainConfig) -> RunOutput:
    """Dispatch one training procedure by name.

    `supervised` is the plain early-stopped fit; `bond` adds the
    self-training stage; `guided_bond` is `bond` with guidance on.
    """
    if method == "supervised":
        model, trace = ner_fit(partial, val, config)
        return RunOutput(model, trace.val_f1[trace.best_iteration], [trace])
    if method in ("bond", "guided_bond"):
        cfg = replace(config, guidance=(method == "guided_bond"))
        init_model, fit_trace = ner_fit(partial, val, cfg)
        model, st_trace = self_train(init_model, partial, val, cfg)
        return RunOutput(model, st_trace.val_f1[st_trace.best_iteration],
                         [fit_trace, st_trace])
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
