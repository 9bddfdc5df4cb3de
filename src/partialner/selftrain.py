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

import copy
import hashlib
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import tagger
from .annotation import PartiallyAnnotatedSentence, one_hot_rows, pin_rows, to_corpus
from .corpus import ConfigError, Corpus, check_types
from .rng import STREAM_SELFTRAIN
from .tagger import StageTrace

METHODS = ("supervised", "bond", "guided_bond")


def _usable_cores() -> int:
    """The CPUs this process may run on (its affinity mask where the platform
    has one, so a cpuset-limited container counts its own), at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SelfTrainConfig:
    """Two-stage training configuration; `tagger` configures the model `ner_fit` starts from."""

    tagger: tagger.TaggerConfig = field(default_factory=tagger.TaggerConfig)
    teacher_refresh_period: int = 1      # student epochs per teacher replacement
    self_train_epochs: int = 20
    hard_targets: bool = False           # argmax teacher outputs into one-hots

    def __post_init__(self):
        check_types(self)
        if self.teacher_refresh_period < 1:
            raise ConfigError("teacher_refresh_period must be >= 1")
        if self.self_train_epochs < 1:
            raise ConfigError("self_train_epochs must be >= 1")

    def with_seed(self, seed: int) -> "SelfTrainConfig":
        """These settings with model seed `seed`, as the plain type memo keys hold."""
        settings = {f.name: getattr(self, f.name) for f in fields(SelfTrainConfig)}
        return SelfTrainConfig(**{**settings, "tagger": replace(self.tagger, seed=seed)})


def ner_fit(partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
            config: SelfTrainConfig, soft: tagger.SoftDataset | None = None,
            ) -> tuple[tagger.TaggerModel, StageTrace]:
    """Early-stopped fit on `soft` targets if given, else on the partial hard
    labels (masked entities as O)."""
    data = to_corpus(partial, val.scheme, "partial-train") if soft is None else soft
    model = tagger.TaggerModel.init(config.tagger, val.scheme)
    return tagger.train(model, data, val)


def self_train(init_model: tagger.TaggerModel,
               partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
               config: SelfTrainConfig, guided: bool = False,
               ) -> tuple[tagger.TaggerModel, StageTrace]:
    """Iterated distillation from a periodically refreshed frozen teacher,
    guided (the known spans of `partial` pinned in every target) if `guided`.

    Trains `init_model` in place with the tagger settings of its own config and
    returns it, as `tagger.train` does: it is the student, the teacher starts as a
    copy of it, and it ends holding the student checkpoint with the best validation
    F1 seen across the stage, the pre-update model included as iteration 0.

    Without guidance or hard targets the student's targets are its own
    outputs, so every gradient is exactly zero and no epoch moves it.  That
    stage is computed in closed form: the trace (apart from `losses`, left
    empty) and the returned model, `init_model` unchanged, are the ones
    `_distill` would produce.
    """
    if guided or config.hard_targets:
        return _distill(init_model, partial, val, config, guided)
    table = tagger.StageTable(init_model, [], val)  # no training tokens: validation only
    f1 = tagger.validation_f1(init_model, table.val_enc, table.val_gold, table.val_work)
    return init_model, StageTrace("self_train", [f1] * (config.self_train_epochs + 1),
                                  _refreshes(config))


def _refreshes(config: SelfTrainConfig) -> list[int]:
    """The epochs after which the student replaces the teacher, the last epoch included."""
    period = config.teacher_refresh_period
    return list(range(period, config.self_train_epochs + 1, period))


def _distill(init_model: tagger.TaggerModel,
             partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
             config: SelfTrainConfig, guided: bool) -> tuple[tagger.TaggerModel, StageTrace]:
    """`self_train` through `tagger.fit`, with a frozen teacher's rows as
    targets: a copy of the student holding the stage's rows, scored per batch
    (identical to scoring once per refresh window, as it is frozen between).
    With a core to spare, outside a pool worker (its siblings take the others),
    a helper thread scores an epoch's batches ahead of the student, bit for bit
    as inline: only it reads the teacher during an epoch, the next epoch's
    `targets` call refreshes it on this thread before submitting a batch (`fit`
    has drawn every row, so the helper is idle), and it calls nothing a tracer
    wraps (a tracer keeps one span stack per process)."""
    table = tagger.StageTable(init_model, [p.tokens for p in partial], val)
    teacher = init_model.copy()
    labels = np.asarray([l for p in partial for l in p.labels], dtype=np.intp)
    # a partial sentence's labels are non-O exactly on its known spans
    known = labels != 0

    def score(tok: np.ndarray, ids: np.ndarray, flags: np.ndarray) -> np.ndarray:
        # tagger.forward_flat, unwrapped
        rows = tagger._forward(teacher, tagger._features(teacher, ids, flags))[2]
        if config.hard_targets:
            rows = one_hot_rows(np.argmax(rows, axis=1), rows.shape[1])
        if guided:
            pinned = np.flatnonzero(known[tok])
            rows = pin_rows(rows, pinned, labels[tok[pinned]])
        return rows

    spare = multiprocessing.parent_process() is None and _usable_cores() > 1
    helper = ThreadPoolExecutor(1) if spare else None
    refreshes = _refreshes(config)

    def targets(epoch: int, tok: np.ndarray, ids: np.ndarray, flags: np.ndarray,
                batches: Iterable[slice]):
        if epoch - 1 in refreshes:  # the student after epoch - 1 is the teacher
            teacher.load_from(table.model)
        if helper is None:
            return (score(tok[b], ids[b], flags[b]) for b in batches)
        futures = [helper.submit(score, tok[b], ids[b], flags[b]) for b in batches]
        return (future.result() for future in futures)

    try:
        model, trace = tagger.fit(table, targets, "self_train", STREAM_SELFTRAIN,
                                  config.self_train_epochs)
    finally:
        if helper is not None:  # no thread outlives the stage, whatever ended it
            helper.shutdown(cancel_futures=True)
    trace.refresh_epochs = refreshes  # `fit` runs every epoch: no patience
    return model, trace


class StageMemo:
    """Stage results kept for the other methods that train the same stage on
    equal inputs.

    An entry is keyed by the values its stage reads, and records the methods
    that produced or received it.  `fetch` hands a method a private copy of
    an entry it has neither produced nor received; otherwise it computes the
    stage, keeps a private copy of the result and returns the result, so a
    repeated cell trains again.  Each stage keeps the entries of one scope: a
    miss in another scope drops them, and a miss drops its own stale entry,
    both before the stage is computed.  The fit's scope is its whole key, so
    it holds one entry; the estimate's is its (partial, validation) corpus
    pair, so it keeps one entry per key across seeds, and its own fold fits,
    another stage, leave them in place.
    """

    def __init__(self):
        self.stages: dict = {}  # stage -> (scope, {key: (value, methods)})

    def fetch(self, stage: str, scope, key, method: str,
              compute: Callable, private: Callable):
        held = self.stages.get(stage)
        if held is None or held[0] != scope:
            held = self.stages[stage] = (scope, {})
        entry = held[1].get(key)
        if entry is not None and method not in entry[1]:
            entry[1].add(method)
            return private(entry[0])
        held[1].pop(key, None)  # freed before the stage is computed again
        value = compute()
        held[1][key] = (private(value), {method})
        return value


memo = StageMemo()


def _memo_fit(method: str, partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
              config: SelfTrainConfig, soft: tagger.SoftDataset | None,
              ) -> tuple[tagger.TaggerModel, StageTrace]:
    """`ner_fit` through the memo, keyed and scoped by what it reads: the
    corpora, the tagger config and the soft targets' values.  Its one entry
    is a copy of the fitted model and its trace."""
    key = (config.tagger, None if soft is None else (
        soft.sentences, soft.rows.shape,
        hashlib.sha256(np.ascontiguousarray(soft.rows, dtype=np.float64)).digest()))
    return memo.fetch("ner_fit", (tuple(partial), val, key), key, method,
                      lambda: ner_fit(partial, val, config, soft),
                      lambda fit: (fit[0].copy(), copy.deepcopy(fit[1])))


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
    The fit goes through the stage memo, so the methods of one (fraction,
    seed) share it; self-training trains the fitted model in place.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    model, fit_trace = _memo_fit(method, partial, val, config, soft)
    if method == "supervised":
        return RunOutput(model, fit_trace.best_f1, [fit_trace])
    model, st_trace = self_train(model, partial, val, config, method == "guided_bond")
    return RunOutput(model, st_trace.best_f1, [fit_trace, st_trace])
