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
from .annotation import PartiallyAnnotatedSentence, one_hot_rows, pin_rows, to_corpus
from .corpus import Corpus
from .rng import STREAM_SELFTRAIN
from .tagger import StageTrace

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


def ner_fit(partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
            config: SelfTrainConfig, soft: tagger.SoftDataset | None = None,
            ) -> tuple[tagger.TaggerModel, StageTrace]:
    """Early-stopped fit on `soft` targets if given, else on the partial hard
    labels (masked entities as O)."""
    data = to_corpus(partial, val.scheme, "partial-train") if soft is None else soft
    model = tagger.TaggerModel.init(config.tagger, val.scheme)
    return tagger.train(model, data, val, config.tagger)


def self_train(init_model: tagger.TaggerModel,
               partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
               config: SelfTrainConfig) -> tuple[tagger.TaggerModel, StageTrace]:
    """Iterated distillation from a periodically refreshed frozen teacher.

    Teacher and student both start as copies of `init_model`.  Returns the
    student checkpoint with the best validation F1 seen across the stage,
    the pre-update model included as iteration 0.

    Without guidance or hard targets the student's targets are its own
    outputs, so every gradient is exactly zero and no epoch moves it.  That
    stage is computed in closed form: the trace (apart from `losses`, left
    empty), the refresh checkpoints and the returned model are the ones
    `_distill` would produce.
    """
    if config.guidance or config.hard_targets:
        return _distill(init_model, partial, val, config)
    val_enc, val_gold = tagger.validation_set(val, config.tagger)
    f1 = tagger.validation_f1(init_model, val_enc, val_gold)
    epochs, patience = config.self_train_epochs, config.self_train_patience
    stopped = patience is not None and patience <= epochs
    if stopped:
        # nothing improves, so patience runs out after exactly that many epochs
        epochs = patience
    period = config.teacher_refresh_period
    refreshes = list(range(period, epochs + 1, period))
    if config.checkpoint_dir:
        for epoch in refreshes:
            _save_teacher(init_model, epoch, config)
    return init_model.copy(), StageTrace("self_train", [f1] * (epochs + 1),
                                         refreshes, stopped_early=stopped)


def _distill(init_model: tagger.TaggerModel,
             partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
             config: SelfTrainConfig) -> tuple[tagger.TaggerModel, StageTrace]:
    """`self_train` through `tagger.fit`, with a frozen teacher's rows as targets.

    The teacher is a compact copy of the stage's working model.  Its rows
    are scored per batch (identical to materializing them per refresh
    window, since the teacher is frozen in between); its checkpoints are
    written on the full table.
    """
    cfg = config.tagger
    table = tagger.StageTable(
        init_model.copy(), tagger.encode_tokens([p.tokens for p in partial], cfg), val, cfg)
    teacher = table.work.copy()
    labels = np.asarray([l for p in partial for l in p.labels], dtype=np.intp)
    # a partial sentence's labels are non-O exactly on its known spans
    known = labels != 0

    def targets(tok: np.ndarray, ids: np.ndarray, flags: np.ndarray) -> np.ndarray:
        rows = tagger.forward_flat(teacher, ids, flags)[2]
        if config.hard_targets:
            rows = one_hot_rows(np.argmax(rows, axis=1), rows.shape[1])
        if config.guidance:
            pinned = np.flatnonzero(known[tok])
            rows = pin_rows(rows, pinned, labels[tok[pinned]])
        return rows

    def refresh(epoch: int, student: tagger.TaggerModel) -> bool:
        if epoch % config.teacher_refresh_period:
            return False
        teacher.load_from(student)
        if config.checkpoint_dir:
            _save_teacher(table.write(teacher, table.model.copy()), epoch, config)
        return True

    return tagger.fit(table, targets, cfg, "self_train", STREAM_SELFTRAIN,
                      config.self_train_epochs, config.self_train_patience, refresh)


def _save_teacher(teacher: tagger.TaggerModel, epoch: int, config: SelfTrainConfig) -> None:
    tagger.save_checkpoint(teacher, os.path.join(
        config.checkpoint_dir, f"teacher_epoch{epoch:03d}.npz"))


@dataclass
class RunOutput:
    """Result of one training-method run."""

    model: tagger.TaggerModel
    val_f1: float              # validation F1 of the selected checkpoint
    traces: list[StageTrace]


def run_method(method: str, partial: Sequence[PartiallyAnnotatedSentence],
               val: Corpus, config: SelfTrainConfig,
               soft: tagger.SoftDataset | None = None) -> RunOutput:
    """Dispatch one training procedure by name.

    `supervised` is the plain early-stopped fit; `bond` adds the
    self-training stage; `guided_bond` is `bond` with guidance on.  Given
    `soft` targets for the sentences of `partial`, the fit trains on them
    instead of the partial hard labels; self-training still reads `partial`.
    """
    if method == "supervised":
        model, trace = ner_fit(partial, val, config, soft)
        return RunOutput(model, trace.best_f1, [trace])
    if method in ("bond", "guided_bond"):
        cfg = replace(config, guidance=(method == "guided_bond"))
        init_model, fit_trace = ner_fit(partial, val, cfg, soft)
        model, st_trace = self_train(init_model, partial, val, cfg)
        return RunOutput(model, st_trace.best_f1, [fit_trace, st_trace])
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
