"""Shared fixtures: label schemes, hand-built corpora, synthetic splits."""
import pytest

from partialner import bde
from partialner.corpus import (Corpus, EntitySpan, LabelScheme, Sentence,
                               SynthConfig, encode_bio, generate_synthetic)
from partialner.experiment import ExperimentConfig, load_corpora


@pytest.fixture(scope="session")
def scheme():
    return LabelScheme(("PER", "LOC", "ORG"))


def _sentence(tokens, spans, scheme):
    return Sentence(tuple(tokens), tuple(encode_bio(spans, len(tokens), scheme)))


@pytest.fixture(scope="session")
def make_sentence(scheme):
    """Factory taking space-joined text and per-category span lists.

    make_sentence("Anna met Bob", PER=[(0, 1), (2, 3)])
    """
    def build(text, **spans):
        tokens = text.split()
        entities = [EntitySpan(a, b, cat)
                    for cat, pairs in spans.items() for a, b in pairs]
        return _sentence(tokens, entities, scheme)
    return build


@pytest.fixture(scope="session")
def tiny_corpus(scheme):
    """Six hand-labelled sentences covering all categories and span shapes."""
    rows = [
        (["Anna", "Keller", "lives", "in", "Oslo", "."],
         [EntitySpan(0, 2, "PER"), EntitySpan(4, 5, "LOC")]),
        (["Vantix", "opened", "in", "Lake", "Garda", "."],
         [EntitySpan(0, 1, "ORG"), EntitySpan(3, 5, "LOC")]),
        (["rates", "fell", "on", "Monday", "."], []),
        (["Omar", "met", "Petra", "."],
         [EntitySpan(0, 1, "PER"), EntitySpan(2, 3, "PER")]),
        (["Atlas", "Works", "hired", "Maya", "."],
         [EntitySpan(0, 2, "ORG"), EntitySpan(3, 4, "PER")]),
        (["storms", "hit", "Oslo", "and", "Madrid", "."],
         [EntitySpan(2, 3, "LOC"), EntitySpan(4, 5, "LOC")]),
    ]
    sentences = tuple(_sentence(t, s, scheme) for t, s in rows)
    return Corpus(sentences, scheme, "tiny")


@pytest.fixture(scope="session")
def small_splits():
    """300/80/80 synthetic splits, enough signal to train on in seconds."""
    cfg = ExperimentConfig(synth=SynthConfig(n_sentences=300, seed=7),
                           dev_sentences=80, test_sentences=80)
    return load_corpora(cfg)


@pytest.fixture(scope="session")
def bench_splits():
    """The default benchmark corpora: 2000/500/500 synthetic sentences."""
    return load_corpora(ExperimentConfig())


@pytest.fixture
def estimate_spy(monkeypatch):
    """An empty cross-fit hand-over, and the fold partitions drawn since:
    one per cross-fit estimate actually computed in this process."""
    monkeypatch.setattr(bde, "_handover", bde._Handover())
    calls = []
    real = bde.partition

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(bde, "partition", spy)
    return calls


@pytest.fixture(scope="session")
def tamper_sidecar():
    """Rewrite a kept-span sidecar with one fault that leaves it readable."""
    def tamper(path, fault):
        with open(path) as fh:
            header, *rows = fh.read().splitlines()
        if fault == "truncated":
            rows = rows[:len(rows) // 2]
        elif fault == "non-gold":  # same count; one span a token longer than gold
            i, start, end, category = rows[-1].split(",")
            rows = rows[:-1] + [f"{i},{start},{int(end) + 1},{category}"]
        else:  # duplicated: same count, one row twice
            rows = rows[:-1] + rows[:1]
        with open(path, "w") as fh:
            fh.write("\n".join([header, *rows]) + "\n")
    return tamper
