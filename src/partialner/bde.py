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
from .corpus import Corpus, LabelScheme, check_types
from .rng import STREAM_PARTITION, derive_seed, seeded_rng

FINAL_METHODS = ("supervised", "guided_bond")
SOFT_MAGIC = b"PNERSOFT"
SOFT_VERSION = 1


@dataclass(frozen=True)
class BdeConfig:
    """Cross-fit estimation configuration.

    `seed`, the model seed of `selftrain.tagger`, drives the fold assignment
    and derives distinct child seeds for each inner training and the final
    stage, so the whole pipeline is a pure function of (data, config).
    """

    k: int = 2
    inner_method: str = "guided_bond"
    final_method: str = "supervised"
    selftrain: selftrain.SelfTrainConfig = field(
        default_factory=selftrain.SelfTrainConfig)

    @property
    def seed(self) -> int:
        return self.selftrain.tagger.seed

    def __post_init__(self):
        check_types(self)
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


def partition(n: int, k: int, seed: int) -> LineageRecord:
    """Shuffle sentence ids 0..n-1 and chunk them into k folds differing by
    <= 1: fold i's model trains on every other fold and scores fold i."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"cannot split {n} sentences into {k} folds")
    order = seeded_rng(seed, STREAM_PARTITION).permutation(n)
    sentence_fold = np.empty(n, dtype=np.int64)
    sentence_fold[order] = np.repeat(np.arange(k), [n // k + (i < n % k) for i in range(k)])
    return LineageRecord([np.flatnonzero(sentence_fold != i).tolist() for i in range(k)],
                         [np.flatnonzero(sentence_fold == i).tolist() for i in range(k)],
                         sentence_fold.tolist())


def estimate_base(partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
                  config: BdeConfig) -> tuple[tagger.SoftDataset, LineageRecord]:
    """Per fold, train the inner method on the complement and score the fold.

    The estimate does not read `config.final_method`, so it goes through the
    stage memo scoped by the corpora and keyed by `k`, `inner_method` and
    `selftrain` (with the seed), and the final method is the one asking: the
    other final method takes a private copy instead of recomputing it.  Every
    call verifies the lineage it returns.
    """
    soft, lineage = selftrain.memo.fetch(
        "estimate", (tuple(partial), val), (config.k, config.inner_method, config.selftrain),
        config.final_method, lambda: _estimate(partial, val, config), _private)
    lineage.verify()
    return soft, lineage


def _estimate(partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
              config: BdeConfig) -> tuple[tagger.SoftDataset, LineageRecord]:
    lineage = partition(len(partial), config.k, derive_seed(config.seed, 0))
    offsets = np.cumsum([0, *map(len, partial)])
    rows = np.empty((offsets[-1], val.scheme.tag_count))  # every sentence is scored once
    for i, (train_ids, scored_ids) in enumerate(
            zip(lineage.fold_train_ids, lineage.fold_scored_ids)):
        inner_cfg = config.selftrain.with_seed(derive_seed(config.seed, 1, i))
        out = selftrain.run_method(config.inner_method,
                                   [partial[s] for s in train_ids], val, inner_cfg)
        seqs = out.model.sequence_distributions(
            [partial[s].tokens for s in scored_ids])
        for s, d in zip(scored_ids, seqs):
            rows[offsets[s]:offsets[s + 1]] = d
    return tagger.SoftDataset(tuple(p.sentence for p in partial), rows, val.scheme), lineage


def _private(estimate: tuple[tagger.SoftDataset, LineageRecord],
             ) -> tuple[tagger.SoftDataset, LineageRecord]:
    soft, lineage = estimate
    return replace(soft, rows=soft.rows.copy()), copy.deepcopy(lineage)


def train_on_base(partial: Sequence[PartiallyAnnotatedSentence],
                  soft: tagger.SoftDataset, val: Corpus,
                  config: BdeConfig) -> selftrain.RunOutput:
    """Final-stage training: `config.final_method` with its fit on the
    assembled soft targets of `partial`.

    final_method=supervised is that soft-target fit; final_method=guided_bond
    runs guided self-training from it, pinning the kept spans of `partial`.
    """
    cfg = config.selftrain.with_seed(derive_seed(config.seed, 2))
    return selftrain.run_method(config.final_method, partial, val, cfg, soft)


def run_bde(partial: Sequence[PartiallyAnnotatedSentence], val: Corpus,
            config: BdeConfig, soft_path: str | None = None,
            lineage_path: str | None = None) -> selftrain.RunOutput:
    """Full pipeline: estimate soft targets cross-fit, then train the final model.

    The estimation stage's outputs can be written to disk (`soft_path`,
    `lineage_path`) for audits.
    """
    soft, lineage = estimate_base(partial, val, config)
    if soft_path:
        save_soft(soft, soft_path)
    if lineage_path:
        lineage.write_csv(lineage_path)
    return train_on_base(partial, soft, val, config)


def save_soft(soft: tagger.SoftDataset, path: str) -> None:
    """Binary soft-target file.

    Layout: magic, then little-endian u32 version, tag count C and sentence
    count n; per sentence a u32 id, u32 length L, and L*C float64 rows.
    """
    with open(path, "wb") as fh:
        fh.write(SOFT_MAGIC)
        fh.write(struct.pack("<III", SOFT_VERSION, soft.scheme.tag_count, len(soft)))
        offsets = np.cumsum([0, *map(len, soft.sentences)])
        for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
            fh.write(struct.pack("<II", i, b - a))
            fh.write(np.ascontiguousarray(soft.rows[a:b], dtype="<f8").tobytes())


def load_soft(path: str, partial: Sequence[PartiallyAnnotatedSentence],
              scheme: LabelScheme) -> tagger.SoftDataset:
    """Rebuild a SoftDataset by pairing a saved file with its partial corpus."""
    with open(path, "rb") as fh:
        def read(size: int) -> bytes:
            data = fh.read(size)
            if len(data) != size:
                raise ValueError(f"{path}: truncated: {len(data)} of {size} bytes")
            return data

        if fh.read(len(SOFT_MAGIC)) != SOFT_MAGIC:
            raise ValueError(f"{path}: not a {SOFT_MAGIC.decode()} file")
        version, c, n = struct.unpack("<III", read(12))
        if version != SOFT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if c != scheme.tag_count:
            raise ValueError(f"{path}: {c} tags, scheme has {scheme.tag_count}")
        if n != len(partial):
            raise ValueError(f"{path}: {n} sentences, corpus has {len(partial)}")
        offsets = np.cumsum([0, *map(len, partial)])
        rows = np.empty((offsets[-1], c))
        for expect in range(n):
            sid, length = struct.unpack("<II", read(8))
            if sid != expect:
                raise ValueError(f"{path}: sentence id {sid} out of order")
            if length != len(partial[sid]):
                raise ValueError(f"{path}: sentence {sid} length {length} != "
                                 f"{len(partial[sid])}")
            rows[offsets[sid]:offsets[sid + 1]] = np.frombuffer(
                read(8 * length * c), "<f8").reshape(length, c)
        if fh.read(1):
            raise ValueError(f"{path}: bytes left after the last sentence")
    return tagger.SoftDataset(tuple(p.sentence for p in partial), rows, scheme)
