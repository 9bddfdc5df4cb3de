"""Cross-fit soft-label preprocessing: score every training sentence with a
model trained on the other folds, then train a final model on the assembled
per-token label distributions.

The defining property: the model that produced a sentence's soft targets
never saw that sentence during training, recorded per run in a
LineageRecord and re-verified before the targets are used.
"""
from __future__ import annotations

import copy
import csv
import struct
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import selftrain, tagger
from .annotation import PartiallyAnnotatedSentence
from .corpus import Corpus, LabelScheme
from .rng import STREAM_PARTITION, derive_seed, seeded_rng

FINAL_METHODS = ("supervised", "guided_bond")
SOFT_MAGIC = b"PNERSOFT"
SOFT_VERSION = 1


@dataclass(frozen=True)
class FoldPartition:
    """Size-balanced random assignment of sentence ids to k folds."""

    k: int
    assignment: tuple[int, ...]  # index: sentence id, value: fold id

    def fold(self, i: int) -> list[int]:
        return [s for s, f in enumerate(self.assignment) if f == i]

    def complement(self, i: int) -> list[int]:
        return [s for s, f in enumerate(self.assignment) if f != i]


def partition(corpus, k: int, seed: int) -> FoldPartition:
    """Shuffle sentence ids and chunk them into k folds differing by <= 1."""
    n = corpus if isinstance(corpus, int) else len(corpus)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"cannot split {n} sentences into {k} folds")
    order = seeded_rng(seed, STREAM_PARTITION).permutation(n)
    assignment = [0] * n
    pos = 0
    for fold_id in range(k):
        size = n // k + (1 if fold_id < n % k else 0)
        for s in order[pos:pos + size]:
            assignment[int(s)] = fold_id
        pos += size
    return FoldPartition(k, tuple(assignment))


@dataclass(frozen=True)
class BdeConfig:
    """Cross-fit estimation configuration.

    `seed` drives the fold assignment and derives distinct child seeds for
    each inner training and the final stage, so the whole pipeline is a pure
    function of (data, config).
    """

    k: int = 2
    inner_method: str = "guided_bond"
    final_method: str = "supervised"
    selftrain: selftrain.SelfTrainConfig = field(
        default_factory=selftrain.SelfTrainConfig)
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.inner_method not in selftrain.METHODS:
            raise ValueError(f"unknown inner method {self.inner_method!r}")
        if self.final_method not in FINAL_METHODS:
            raise ValueError(f"unknown final method {self.final_method!r}; "
                             f"expected one of {FINAL_METHODS}")


@dataclass
class LineageRecord:
    """Which model trained on and scored which sentences, per fold."""

    fold_train_ids: list[list[int]]   # per fold: sentence ids its model fit on
    fold_scored_ids: list[list[int]]  # per fold: sentence ids its model scored
    sentence_fold: list[int]          # per sentence: fold id of its scoring model

    def verify(self) -> None:
        """Raise if any sentence was scored by a model that trained on it."""
        scored_total: set[int] = set()
        for i, (train_ids, scored_ids) in enumerate(
                zip(self.fold_train_ids, self.fold_scored_ids)):
            overlap = set(train_ids) & set(scored_ids)
            if overlap:
                raise AssertionError(
                    f"fold {i}: scored sentences it trained on: {sorted(overlap)[:5]}")
            if scored_total & set(scored_ids):
                raise AssertionError(f"fold {i} re-scored already scored sentences")
            for s in scored_ids:
                if self.sentence_fold[s] != i:
                    raise AssertionError(f"sentence {s} recorded under fold "
                                         f"{self.sentence_fold[s]}, scored by fold {i}")
            scored_total |= set(scored_ids)
        if scored_total != set(range(len(self.sentence_fold))):
            raise AssertionError("not every sentence was scored exactly once")

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["record", "fold", "sentence_ids"])
            for i, ids in enumerate(self.fold_train_ids):
                writer.writerow(["train", i, " ".join(map(str, ids))])
            for i, ids in enumerate(self.fold_scored_ids):
                writer.writerow(["scored", i, " ".join(map(str, ids))])

    @staticmethod
    def read_csv(path: str) -> "LineageRecord":
        train: dict[int, list[int]] = {}
        scored: dict[int, list[int]] = {}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                ids = [int(x) for x in row["sentence_ids"].split()] if row["sentence_ids"] else []
                {"train": train, "scored": scored}[row["record"]][int(row["fold"])] = ids
        k = len(scored)
        sentence_fold = [0] * sum(len(v) for v in scored.values())
        for i in range(k):
            for s in scored[i]:
                sentence_fold[s] = i
        return LineageRecord([train[i] for i in range(k)],
                             [scored[i] for i in range(k)], sentence_fold)


def _with_seed(config: selftrain.SelfTrainConfig, seed: int) -> selftrain.SelfTrainConfig:
    return replace(config, tagger=replace(config.tagger, seed=seed))


class _Handover:
    """Cross-fit estimates waiting for the next call with equal inputs.

    Holds the estimates of one (partial, val) corpus pair; a call with another
    pair drops them.  Each entry is a private copy and is handed over once.
    """

    def __init__(self):
        self.corpora: tuple | None = None
        self.estimates: dict = {}

    def take(self, corpora: tuple, key: tuple):
        if corpora != self.corpora:
            self.corpora, self.estimates = corpora, {}
        return self.estimates.pop(key, None)

    def put(self, key: tuple, soft: tagger.SoftDataset, lineage: LineageRecord) -> None:
        self.estimates[key] = (replace(soft, dists=[d.copy() for d in soft.dists]),
                               copy.deepcopy(lineage))


_handover = _Handover()


def estimate_base(partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
                  config: BdeConfig) -> tuple[tagger.SoftDataset, LineageRecord]:
    """Per fold, train the inner method on the complement and score the fold.

    The assembled SoftDataset carries each sentence's kept-entity set so the
    final stage can optionally train with guidance.  The estimate does not
    depend on `config.final_method`, so it is computed once for the two final
    methods: the result is held until the next call with equal corpora and
    equal `k`, `inner_method`, `seed` and `selftrain`, which takes it (after
    verifying its lineage again) instead of recomputing it.
    """
    corpora = (tuple(partial), val)
    key = (config.k, config.inner_method, config.seed, config.selftrain)
    held = _handover.take(corpora, key)
    if held is not None:
        held[1].verify()
        return held
    n = len(partial)
    part = partition(n, config.k, derive_seed(config.seed, 0))
    dists: list[np.ndarray | None] = [None] * n
    lineage = LineageRecord([], [], [0] * n)
    for i in range(config.k):
        train_ids = part.complement(i)
        scored_ids = part.fold(i)
        inner_cfg = _with_seed(config.selftrain, derive_seed(config.seed, 1, i))
        out = selftrain.run_method(config.inner_method,
                                   [partial[s] for s in train_ids], val, inner_cfg)
        seqs = out.model.sequence_distributions(
            [partial[s].tokens for s in scored_ids])
        for s, d in zip(scored_ids, seqs):
            dists[s] = d
            lineage.sentence_fold[s] = i
        lineage.fold_train_ids.append(sorted(train_ids))
        lineage.fold_scored_ids.append(sorted(scored_ids))
    lineage.verify()
    soft = tagger.SoftDataset(tuple(p.sentence for p in partial), tuple(dists),
                              val.scheme, tuple(p.known for p in partial))
    _handover.put(key, soft, lineage)
    return soft, lineage


def train_on_base(soft: tagger.SoftDataset, val: Corpus, config: BdeConfig,
                  ) -> tuple[tagger.TaggerModel, float, list[selftrain.StageTrace]]:
    """Final-stage training on the assembled soft targets.

    final_method=supervised fits directly on the distributions;
    final_method=guided_bond runs guided self-training initialized from that
    soft-target fit, using the kept-entity sets carried in the dataset.
    """
    cfg = _with_seed(config.selftrain, derive_seed(config.seed, 2))
    model = tagger.TaggerModel.init(cfg.tagger, val.scheme)
    model, report = tagger.train(model, soft, val, cfg.tagger)
    # iteration 0 is the initial model, same convention as the other stages
    fit_trace = selftrain.StageTrace("ner_fit",
                                     [report.baseline_f1] + list(report.val_f1),
                                     [], report.best_epoch + 1)
    if config.final_method == "supervised":
        return model, report.best_f1, [fit_trace]
    if soft.known is None:
        raise ValueError("guided final training needs kept-entity sets")
    partial = [PartiallyAnnotatedSentence(s, k)
               for s, k in zip(soft.sentences, soft.known)]
    st_cfg = replace(cfg, guidance=True)
    best, st_trace = selftrain.self_train(model, partial, val, st_cfg)
    return best, st_trace.val_f1[st_trace.best_iteration], [fit_trace, st_trace]


@dataclass
class BdeOutput:
    """Everything one cross-fit run produced."""

    model: tagger.TaggerModel
    val_f1: float
    traces: list[selftrain.StageTrace]
    lineage: LineageRecord
    soft: tagger.SoftDataset


def run_bde(partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
            config: BdeConfig, soft_path: str | None = None,
            lineage_path: str | None = None) -> BdeOutput:
    """Full pipeline: estimate soft targets cross-fit, then train the final model.

    The estimation stage's outputs can be materialized to disk (`soft_path`,
    `lineage_path`) for audits and resumability.
    """
    soft, lineage = estimate_base(partial, val, config)
    if soft_path:
        save_soft(soft, soft_path)
    if lineage_path:
        lineage.write_csv(lineage_path)
    model, val_f1, traces = train_on_base(soft, val, config)
    return BdeOutput(model, val_f1, traces, lineage, soft)


def save_soft(soft: tagger.SoftDataset, path: str) -> None:
    """Binary soft-target file.

    Layout: magic, then little-endian u32 version, tag count C and sentence
    count n; per sentence a u32 id, u32 length L, and L*C float64 rows.
    """
    with open(path, "wb") as fh:
        fh.write(SOFT_MAGIC)
        fh.write(struct.pack("<III", SOFT_VERSION, soft.scheme.tag_count, len(soft)))
        for i, d in enumerate(soft.dists):
            fh.write(struct.pack("<II", i, d.shape[0]))
            fh.write(np.ascontiguousarray(d, dtype="<f8").tobytes())


def load_soft(path: str, partial: Sequence[PartiallyAnnotatedSentence],
              scheme: LabelScheme) -> tagger.SoftDataset:
    """Rebuild a SoftDataset by pairing a saved file with its partial corpus."""
    with open(path, "rb") as fh:
        if fh.read(len(SOFT_MAGIC)) != SOFT_MAGIC:
            raise ValueError(f"{path}: not a {SOFT_MAGIC.decode()} file")
        version, c, n = struct.unpack("<III", fh.read(12))
        if version != SOFT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if c != scheme.tag_count:
            raise ValueError(f"{path}: {c} tags, scheme has {scheme.tag_count}")
        if n != len(partial):
            raise ValueError(f"{path}: {n} sentences, corpus has {len(partial)}")
        dists: list[np.ndarray] = []
        for expect in range(n):
            sid, length = struct.unpack("<II", fh.read(8))
            if sid != expect:
                raise ValueError(f"{path}: sentence id {sid} out of order")
            if length != len(partial[sid]):
                raise ValueError(f"{path}: sentence {sid} length {length} != "
                                 f"{len(partial[sid])}")
            raw = fh.read(8 * length * c)
            dists.append(np.frombuffer(raw, dtype="<f8").reshape(length, c).copy())
    return tagger.SoftDataset(tuple(p.sentence for p in partial), tuple(dists),
                              scheme, tuple(p.known for p in partial))
