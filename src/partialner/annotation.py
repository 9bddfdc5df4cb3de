"""Partial annotation: masking gold entities and correcting teacher label
distributions at tokens whose annotations are known.

A corrected distribution sequence replaces the rows at tokens covered by a
known entity span with exact one-hot vectors of the hard labels; every other
row passes through bitwise unchanged, with no renormalization anywhere.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, EntitySpan, LabelScheme, Sentence, encode_bio
from .evaluation import gold_spans
from .rng import STREAM_MASK, seeded_rng


@dataclass(frozen=True)
class EntityAnnotationSet:
    """Non-intersecting known-correct entity spans of one sentence."""

    spans: tuple[EntitySpan, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.spans))
        object.__setattr__(self, "spans", ordered)
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end:
                raise ValueError(f"intersecting spans {a} and {b}")

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)

    def covered_indices(self, length: int) -> np.ndarray:
        """Sorted token indices covered by any span."""
        idx = [k for s in self.spans for k in range(s.start, s.end)]
        if idx and idx[-1] >= length:
            raise ValueError(f"spans exceed sentence length {length}")
        return np.asarray(idx, dtype=np.intp)


EMPTY_ANNOTATIONS = EntityAnnotationSet(())


def one_hot(label: int, tag_count: int) -> np.ndarray:
    """One-hot distribution over `tag_count` tag indices."""
    if not 0 <= label < tag_count:
        raise ValueError(f"label {label} out of range [0, {tag_count})")
    v = np.zeros(tag_count)
    v[label] = 1.0
    return v


def one_hot_rows(labels: Sequence[int], tag_count: int) -> np.ndarray:
    """(L, C) matrix whose row k is one_hot(labels[k], tag_count)."""
    arr = np.asarray(labels, dtype=np.intp)
    if arr.size and not (0 <= arr.min() and arr.max() < tag_count):
        raise ValueError(f"label out of range [0, {tag_count})")
    out = np.zeros((arr.size, tag_count))
    out[np.arange(arr.size), arr] = 1.0
    return out


def pin_rows(rows: np.ndarray, positions: np.ndarray, labels) -> np.ndarray:
    """Copy of flat (T, C) `rows` with row positions[k] set to one_hot(labels[k]).

    The pinned rows are exact 0.0/1.0 vectors; every other row is copied
    bitwise.  This is the guidance correction of both `guide_correct` and
    guided self-training.
    """
    out = np.array(rows, dtype=np.float64)
    out[positions] = one_hot_rows(labels, out.shape[1])
    return out


def guide_correct(dists: np.ndarray, known: EntityAnnotationSet,
                  labels: Sequence[int]) -> np.ndarray:
    """Pin distributions at known-entity tokens to one-hots of their labels.

    Tokens outside every known span keep their input row bitwise; the input
    array is never mutated.  Idempotent, and the identity when `known` is
    empty.
    """
    dists = np.asarray(dists, dtype=np.float64)
    if dists.ndim != 2:
        raise ValueError(f"expected an (L, C) array, got shape {dists.shape}")
    length = dists.shape[0]
    if len(labels) != length:
        raise ValueError(f"{length} distributions for {len(labels)} labels")
    for span in known:
        if span.end > length:
            raise ValueError(f"span {span} exceeds sequence length {length}")
    positions = known.covered_indices(length)
    return pin_rows(dists, positions, [labels[k] for k in positions])


@dataclass(frozen=True)
class PartiallyAnnotatedSentence:
    """A sentence whose hard labels encode only the known (kept) entities."""

    sentence: Sentence            # labels: BIO of `known`, O everywhere else
    known: EntityAnnotationSet

    def __post_init__(self):
        if self.sentence.labels is None:
            raise ValueError("partial sentence needs hard labels")
        covered = set()
        for s in self.known:
            if s.end > len(self.sentence):
                raise ValueError(f"span {s} exceeds sentence length")
            covered.update(range(s.start, s.end))
        for k, l in enumerate(self.sentence.labels):
            if (k in covered) != (l != 0):  # index 0 is O in every scheme
                raise ValueError(f"labels inconsistent with known spans at token {k}")

    @property
    def tokens(self) -> tuple[str, ...]:
        return self.sentence.tokens

    @property
    def labels(self) -> tuple[int, ...]:
        return self.sentence.labels

    def __len__(self) -> int:
        return len(self.sentence)


def mask_entities(corpus: Corpus, keep_fraction: float, seed: int,
                  ) -> tuple[list[PartiallyAnnotatedSentence], list[tuple[int, EntitySpan]]]:
    """Keep a uniform corpus-level sample of gold entities, mask the rest to O.

    Exactly round(keep_fraction * N_total) entities are kept (round half to
    even), sampled without replacement over the whole corpus, with no regard
    to sentence boundaries or category balance.  Returns the partial view and
    the kept (sentence index, span) list in corpus order.
    """
    if not 0.0 <= keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction {keep_fraction} outside [0, 1]")
    flat = gold_spans(corpus)  # raises on unlabelled corpora
    n_keep = round(keep_fraction * len(flat))
    rng = seeded_rng(seed, STREAM_MASK)
    positions = rng.choice(len(flat), size=n_keep, replace=False) if flat else []
    kept = [flat[p] for p in sorted(int(p) for p in positions)]
    return partial_from_kept(corpus, kept), kept


def partial_from_kept(corpus: Corpus, kept: Iterable[tuple[int, EntitySpan]],
                      ) -> list[PartiallyAnnotatedSentence]:
    """Partial view of `corpus` keeping exactly the given (sentence, span) pairs."""
    by_sentence: dict[int, list[EntitySpan]] = {}
    for i, span in kept:
        if not 0 <= i < len(corpus):
            raise ValueError(f"sentence index {i} out of range")
        by_sentence.setdefault(i, []).append(span)
    partial = []
    for i, sent in enumerate(corpus.sentences):
        spans = sorted(by_sentence.get(i, []))
        labels = tuple(encode_bio(spans, len(sent), corpus.scheme))
        partial.append(PartiallyAnnotatedSentence(
            Sentence(sent.tokens, labels), EntityAnnotationSet(tuple(spans))))
    return partial


def partial_from_labels(corpus: Corpus) -> list[PartiallyAnnotatedSentence]:
    """Treat every entity already tagged in `corpus` as a known annotation."""
    return partial_from_kept(corpus, gold_spans(corpus))


def to_corpus(partial: Sequence[PartiallyAnnotatedSentence], scheme: LabelScheme,
              name: str = "partial") -> Corpus:
    """Hard-label view of a partial corpus (masked entities appear as O)."""
    return Corpus(tuple(p.sentence for p in partial), scheme, name)


def write_kept_sidecar(path: str, kept: Iterable[tuple[int, EntitySpan]]) -> None:
    """CSV audit file of kept spans: sentence_index,start,end,category."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sentence_index", "start", "end", "category"])
        for i, span in kept:
            writer.writerow([i, span.start, span.end, span.category])


def read_kept_sidecar(path: str) -> list[tuple[int, EntitySpan]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return [(int(row["sentence_index"]),
                 EntitySpan(int(row["start"]), int(row["end"]), row["category"]))
                for row in reader]
