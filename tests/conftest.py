"""Shared fixtures: label schemes, hand-built corpora, synthetic splits;
shared helpers: a model's full embedding table and the v1 checkpoint layout."""
import dataclasses
import json

import numpy as np
import pytest

from partialner import bde, selftrain
from partialner.corpus import (Corpus, EntitySpan, LabelScheme, Sentence,
                               SynthConfig, encode_bio, generate_synthetic)
from partialner.experiment import ExperimentConfig, load_corpora
from partialner.rng import STREAM_INIT, seeded_rng


def full_params(model):
    """Every parameter by name, with the embedding table in full: the reference
    draw `uniform(-1, 1, (hash_buckets, embed_dim))` of the model's
    `(seed, STREAM_INIT)` stream with the held rows written into it."""
    cfg = model.config
    embed = seeded_rng(cfg.seed, STREAM_INIT).uniform(-1, 1, (cfg.hash_buckets, cfg.embed_dim))
    embed[model.rows] = model.embed
    return {**model.params(), "embed": embed}


def save_v1_checkpoint(model, path, **echo):
    """Write `model` in the v1 checkpoint layout: magic v1, the config echo
    (plus the fields `echo`), the categories and every parameter with the
    embedding table in full; no `rows`."""
    config = {**dataclasses.asdict(model.config), **echo}
    np.savez(path, magic=np.array("partialner.tagger.v1"),
             config=np.array(json.dumps(config, sort_keys=True)),
             categories=np.array(list(model.scheme.categories)), **full_params(model))


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


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Every test starts with an empty stage memo, so no test trains less
    because an earlier one trained the same stage."""
    monkeypatch.setattr(selftrain, "memo", selftrain.StageMemo())


@pytest.fixture
def estimate_spy(monkeypatch):
    """The fold partitions drawn in this test: one per cross-fit estimate
    actually computed in this process (the memo starts empty)."""
    calls = []
    real = bde.partition

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(bde, "partition", spy)
    return calls


@pytest.fixture
def stage_spy(monkeypatch, tmp_path):
    """Every `ner_fit` and cross-fit partition trained in this test, pool
    workers included: a function returning one (stage, sentences) pair per
    call, where stage is "hard_fit", "soft_fit" or "estimate".  Forked
    workers inherit the spies and append to the same file."""
    log = tmp_path / "stage_spy.log"
    real_fit, real_partition = selftrain.ner_fit, bde.partition

    def record(stage, n):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{stage} {n}\n")

    def fit(partial, val, config, soft=None):
        record("hard_fit" if soft is None else "soft_fit", len(partial))
        return real_fit(partial, val, config, soft)

    def partition(n, k, seed):
        record("estimate", n)
        return real_partition(n, k, seed)
    monkeypatch.setattr(selftrain, "ner_fit", fit)
    monkeypatch.setattr(bde, "partition", partition)

    def calls():
        if not log.exists():
            return []
        return [(stage, int(n)) for stage, n in
                (line.split() for line in log.read_text().splitlines())]
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
