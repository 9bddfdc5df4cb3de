"""Partial corpora drawn by `mask_entities`: pinned against a reference
that builds every sentence afresh, and the per-corpus work done once."""
import gc
import os
import weakref

import pytest

from partialner import annotation, evaluation, experiment
from partialner.annotation import (EntityAnnotationSet, PartiallyAnnotatedSentence,
                                   mask_entities, partial_from_kept)
from partialner.corpus import (Corpus, Sentence, SynthConfig, encode_bio, generate_synthetic,
                               read_conll)
from partialner.experiment import ExperimentConfig, _sidecar_name, load_corpora, masked_partial
from partialner.rng import STREAM_MASK, seeded_rng

FULL_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "experiment_full.json")
MASK_SEEDS = (20230, 7)

# A CoNLL corpus whose second and fourth sentences have no entity, and whose
# first has two entities of one category next to each other.
CONLL = """\
Anna B-PER
Bob B-PER
met O
Oslo B-LOC

rain O
fell O
. O

Vantix B-ORG
opened O
in O
Lake B-LOC
Garda I-LOC

nothing O
here O

Omar B-PER
Keller I-PER
joined O
Atlas B-ORG
Works I-ORG
"""


def reference_partial(corpus, kept):
    """Partial view keeping exactly `kept`, each sentence built afresh."""
    by_sentence = {}
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


def reference_mask(corpus, keep_fraction, seed):
    """`mask_entities` drawn from a fresh decode, built by `reference_partial`."""
    flat = evaluation.gold_spans(corpus)
    n_keep = round(keep_fraction * len(flat))
    rng = seeded_rng(seed, STREAM_MASK)
    positions = rng.choice(len(flat), size=n_keep, replace=False) if flat else []
    kept = [flat[p] for p in sorted(int(p) for p in positions)]
    return reference_partial(corpus, kept), kept


def assert_same_draw(got, want):
    (partial, kept), (ref_partial, ref_kept) = got, want
    assert kept == ref_kept
    assert len(partial) == len(ref_partial)
    for p, r in zip(partial, ref_partial):
        assert p.tokens == r.tokens
        assert p.labels == r.labels
        assert p.known.spans == r.known.spans


@pytest.fixture(scope="module")
def full_config():
    return ExperimentConfig.from_json(FULL_CONFIG)


@pytest.fixture(scope="module")
def full_train(full_config):
    return load_corpora(full_config)[0]


@pytest.fixture
def conll_corpus(tmp_path):
    path = tmp_path / "train.conll"
    path.write_text(CONLL, encoding="utf-8")
    (corpus,) = read_conll([str(path)])
    return corpus


class TestPinnedDraws:
    """Every draw equals the reference, sentence by sentence."""

    @pytest.mark.parametrize("mask_seed", MASK_SEEDS)
    def test_full_config_at_every_fraction(self, full_config, full_train, mask_seed):
        for fraction in (0.0, *full_config.fractions, 1.0):
            assert_same_draw(mask_entities(full_train, fraction, mask_seed),
                             reference_mask(full_train, fraction, mask_seed))

    @pytest.mark.parametrize("mask_seed", MASK_SEEDS)
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 1.0])
    def test_conll_corpus_with_entity_free_sentences(self, conll_corpus, fraction,
                                                      mask_seed):
        assert [len(spans) for spans in conll_corpus.gold_spans()] == [3, 0, 2, 0, 2]
        assert_same_draw(mask_entities(conll_corpus, fraction, mask_seed),
                         reference_mask(conll_corpus, fraction, mask_seed))

    def test_partial_from_kept_in_any_order(self, conll_corpus):
        kept = evaluation.gold_spans(conll_corpus)[::-1]
        assert_same_draw((partial_from_kept(conll_corpus, kept), kept),
                         (reference_partial(conll_corpus, kept), kept))

    def test_sidecar_name_of_the_tiny_corpus(self, tiny_corpus):
        assert _sidecar_name(tiny_corpus, 0.5, 11) == "mask_91cfb74364e2_f0.5_s11.csv"
        assert (_sidecar_name(tiny_corpus, 0.05, 20230)
                == "mask_91cfb74364e2_f0.05_s20230.csv")


class TestPerCorpusWorkOnce:
    """A corpus object is decoded, digested and blanked once, however many
    fractions are drawn from it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"gold_keys": 0, "serialize_conll": 0}

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        spy(evaluation, "gold_keys")
        spy(experiment, "serialize_conll")
        return counts

    def test_seven_fractions_decode_and_digest_once(self, tmp_path, calls, full_config):
        train = generate_synthetic(SynthConfig(n_sentences=300, seed=3))
        for fraction in full_config.fractions:
            masked_partial(train, fraction, 20230, str(tmp_path))
        assert calls == {"gold_keys": 1, "serialize_conll": 1}
        assert len(os.listdir(tmp_path)) == len(full_config.fractions)

    def test_an_equal_but_distinct_corpus_draws_the_same(self, tmp_path, calls):
        train = generate_synthetic(SynthConfig(n_sentences=200, seed=4))
        twin = Corpus(train.sentences, train.scheme, train.name)
        assert twin == train and twin is not train
        for fraction in (0.1, 0.5):
            assert_same_draw(mask_entities(twin, fraction, 20230),
                             mask_entities(train, fraction, 20230))
            assert (_sidecar_name(twin, fraction, 20230)
                    == _sidecar_name(train, fraction, 20230))
        assert calls == {"gold_keys": 2, "serialize_conll": 2}

    def test_drawing_from_many_corpora_retains_nothing_more(self):
        def draw(seed):
            corpus = generate_synthetic(SynthConfig(n_sentences=50, seed=seed))
            mask_entities(corpus, 0.5, 20230)
            _sidecar_name(corpus, 0.5, 20230)
            return weakref.ref(corpus)
        draw(100)
        gc.collect()
        retained = len(annotation._DERIVED)
        refs = [draw(seed) for seed in range(101, 121)]
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(annotation._DERIVED) == retained
