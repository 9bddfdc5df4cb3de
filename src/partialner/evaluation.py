"""Span-level exact-match evaluation (conlleval semantics).

A predicted span counts as a match iff a gold span in the same sentence has
the same category, start and end.  Micro-averaged P/R/F1 with a per-category
breakdown; zero denominators score 0 rather than NaN.

`span_f1` over `decode_bio` spans is the reference scorer.  Validation and
`evaluate_model` use the flat form: spans of sentence-concatenated tags as
int64 keys (`bio_span_keys`, and `gold_keys` for a corpus's gold spans)
scored by `key_scores`, which gives the same result bit for bit.  Masking
draws from the same keys and decodes only the spans it keeps (`_key_spans`).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, EntitySpan, LabelScheme


def _prf(matches: int, predicted: int, gold: int) -> tuple[float, float, float]:
    p = matches / predicted if predicted else 0.0
    r = matches / gold if gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@dataclass(frozen=True)
class EvalResult:
    """Micro and per-category exact-match span scores."""

    precision: float
    recall: float
    f1: float
    gold_count: int
    predicted_count: int
    match_count: int
    per_category: dict[str, tuple[float, float, float]]
    category_counts: dict[str, tuple[int, int, int]]  # matches, predicted, gold

    def __post_init__(self):
        if self.match_count > min(self.gold_count, self.predicted_count):
            raise ValueError("more matches than spans")


def span_f1(predicted: Sequence[Iterable[EntitySpan]],
            gold: Sequence[Iterable[EntitySpan]]) -> EvalResult:
    """Score predicted span sets against gold span sets, sentence-aligned."""
    if len(predicted) != len(gold):
        raise ValueError(f"{len(predicted)} predicted sentences vs {len(gold)} gold")
    counts: dict[str, list[int]] = {}  # category -> [matches, predicted, gold]
    for pred_sentence, gold_sentence in zip(predicted, gold):
        pset, gset = set(pred_sentence), set(gold_sentence)
        for span in pset:
            c = counts.setdefault(span.category, [0, 0, 0])
            c[1] += 1
            if span in gset:
                c[0] += 1
        for span in gset:
            counts.setdefault(span.category, [0, 0, 0])[2] += 1
    return _result(counts)


def _result(counts: dict[str, list[int]]) -> EvalResult:
    """EvalResult of per-category [matches, predicted, gold] span counts."""
    matches = sum(c[0] for c in counts.values())
    n_pred = sum(c[1] for c in counts.values())
    n_gold = sum(c[2] for c in counts.values())
    p, r, f = _prf(matches, n_pred, n_gold)
    ordered = dict(sorted(counts.items()))
    return EvalResult(
        p, r, f, n_gold, n_pred, matches,
        per_category={cat: _prf(*c) for cat, c in ordered.items()},
        category_counts={cat: tuple(c) for cat, c in ordered.items()})


def _keys(starts: np.ndarray, ends: np.ndarray, cats: np.ndarray,
          total: int, scheme: LabelScheme) -> np.ndarray:
    # flat token positions identify the sentence, so one key per span suffices
    span = starts.astype(np.int64) * (total + 1) + ends
    return span * len(scheme.categories) + cats


def bio_span_keys(tags: np.ndarray, offsets: np.ndarray,
                  scheme: LabelScheme) -> np.ndarray:
    """Keys of the BIO spans in sentence-concatenated tag indices.

    The spans are exactly `decode_bio`'s, sentence by sentence: a stray I-
    opens a span, a category change inside an I- run splits it, and a
    sentence boundary closes it.  `offsets` are the (n + 1,) sentence
    offsets into `tags`.
    """
    total = tags.size
    inside = tags > 0
    cat = (tags - 1) // 2  # -1 for O
    first = np.zeros(total + 1, dtype=bool)
    first[offsets[:-1]] = True
    first = first[:total]
    prev_cat = np.concatenate(([-1], cat[:-1]))
    begins = inside & ((tags - 1) % 2 == 0)
    opens = inside & (begins | first | (prev_cat != cat))
    continues = inside & ~opens
    closes = inside & ~np.append(continues[1:], False)
    starts = np.flatnonzero(opens)
    return _keys(starts, np.flatnonzero(closes) + 1, cat[starts], total, scheme)


def gold_keys(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """`bio_span_keys` of a fully labelled corpus's hard labels, back to
    back, and the corpus's (n + 1,) sentence offsets."""
    if not corpus.fully_labelled:
        raise ValueError(f"corpus {corpus.name!r} has unlabelled sentences")
    offsets = np.zeros(len(corpus) + 1, dtype=np.intp)
    np.cumsum([len(s) for s in corpus.sentences], out=offsets[1:])
    labels = np.fromiter(chain.from_iterable(s.labels for s in corpus.sentences),
                         dtype=np.intp, count=int(offsets[-1]))
    return bio_span_keys(labels, offsets, corpus.scheme), offsets


def gold_spans(corpus: Corpus) -> list[tuple[int, EntitySpan]]:
    """(sentence index, span) pairs of a fully labelled corpus's gold spans, in corpus order."""
    return _key_spans(*gold_keys(corpus), corpus.scheme)


def _key_spans(keys, offsets, scheme: LabelScheme) -> list[tuple[int, EntitySpan]]:
    """The (sentence index, span) pair of each of a corpus's `gold_keys`, as Python ints."""
    span, cats = np.divmod(keys, len(scheme.categories))
    starts, ends = np.divmod(span, int(offsets[-1]) + 1)
    sentences = np.searchsorted(offsets, starts, side="right") - 1
    base = offsets[sentences]
    return [(i, EntitySpan(s, e, scheme.categories[c])) for i, s, e, c in zip(
        sentences.tolist(), (starts - base).tolist(), (ends - base).tolist(), cats.tolist())]


def key_scores(predicted: np.ndarray, gold: np.ndarray, scheme: LabelScheme) -> EvalResult:
    """`span_f1` of the spans whose unique keys are `predicted` and `gold`."""
    n_cats = len(scheme.categories)
    matched = np.intersect1d(predicted, gold)
    per_cat = np.stack([np.bincount(keys % n_cats, minlength=n_cats)
                        for keys in (matched, predicted, gold)], axis=1).tolist()
    return _result({cat: c for cat, c in zip(scheme.categories, per_cat) if c[1] or c[2]})


def evaluate_model(model, corpus: Corpus) -> EvalResult:
    """Score a model's argmax tags over a fully labelled corpus against its
    gold spans, the way validation does.

    Ties break to the lowest tag index, so an exactly uniform distribution
    yields O.
    """
    if corpus.scheme.categories != model.scheme.categories:
        raise ValueError("corpus scheme differs from model scheme")
    probs, offsets = model.flat_distributions([s.tokens for s in corpus.sentences])
    pred = bio_span_keys(np.argmax(probs, axis=1), offsets, model.scheme)
    return key_scores(pred, gold_keys(corpus)[0], model.scheme)
