"""Known-entity sets, guidance correction, and entity masking."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialner.annotation import (EMPTY_ANNOTATIONS, EntityAnnotationSet,
                                   PartiallyAnnotatedSentence, guide_correct,
                                   mask_entities, one_hot_rows, partial_from_kept,
                                   partial_from_labels, read_kept_sidecar,
                                   to_corpus, write_kept_sidecar)
from partialner.corpus import (Corpus, EntitySpan, LabelScheme, Sentence,
                               SynthConfig, encode_bio, generate_synthetic)


def test_one_hot_basics():
    (v,) = one_hot_rows([2], 5)
    assert v.shape == (5,) and v[2] == 1.0 and v.sum() == 1.0
    with pytest.raises(ValueError):
        one_hot_rows([5], 5)


def test_one_hot_rows_matches_scalar():
    rows = one_hot_rows([0, 3, 1], 4)
    assert rows.shape == (3, 4)
    for k, label in enumerate([0, 3, 1]):
        assert np.array_equal(rows[k], [1.0 if c == label else 0.0 for c in range(4)])
    with pytest.raises(ValueError):
        one_hot_rows([0, 4], 4)


class TestAnnotationSet:
    def test_sorts_spans(self):
        s = EntityAnnotationSet((EntitySpan(3, 4, "LOC"), EntitySpan(0, 2, "PER")))
        assert [sp.start for sp in s] == [0, 3]

    def test_rejects_intersections(self):
        with pytest.raises(ValueError):
            EntityAnnotationSet((EntitySpan(0, 2, "PER"), EntitySpan(1, 3, "LOC")))

    def test_covered_indices(self):
        s = EntityAnnotationSet((EntitySpan(0, 2, "PER"), EntitySpan(4, 5, "LOC")))
        assert s.covered_indices(6).tolist() == [0, 1, 4]
        with pytest.raises(ValueError):
            s.covered_indices(4)


def rand_instance(rng, c=7, max_len=12):
    """Random (distributions, annotation set, labels) triple."""
    length = rng.integers(1, max_len + 1)
    dists = rng.dirichlet(np.ones(c), size=length)
    labels = rng.integers(0, c, size=length).tolist()
    spans, cursor = [], 0
    while cursor < length:
        start = cursor + int(rng.integers(0, 3))
        if start >= length or rng.random() < 0.3:
            break
        end = min(length, start + 1 + int(rng.integers(0, 2)))
        spans.append(EntitySpan(start, end, "PER"))
        cursor = end
    return dists, EntityAnnotationSet(tuple(spans)), labels


class TestGuideCorrect:
    def test_empty_set_is_identity(self):
        rng = np.random.default_rng(0)
        dists, _, labels = rand_instance(rng)
        out = guide_correct(dists, EMPTY_ANNOTATIONS, labels)
        assert np.array_equal(out, dists)
        assert out is not dists  # never the same buffer

    def test_full_coverage_gives_one_hots(self):
        rng = np.random.default_rng(1)
        length, c = 5, 7
        dists = rng.dirichlet(np.ones(c), size=length)
        labels = [1, 2, 0, 3, 4]
        known = EntityAnnotationSet((EntitySpan(0, length, "PER"),))
        out = guide_correct(dists, known, labels)
        assert np.array_equal(out, one_hot_rows(labels, c))

    def test_idempotent_and_untouched_rows_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dists, known, labels = rand_instance(rng)
            once = guide_correct(dists, known, labels)
            twice = guide_correct(once, known, labels)
            assert np.array_equal(once, twice)
            covered = set(known.covered_indices(len(labels)).tolist())
            for k in range(len(labels)):
                if k not in covered:
                    assert np.array_equal(once[k], dists[k])

    def test_input_never_mutated(self):
        rng = np.random.default_rng(3)
        dists, known, labels = rand_instance(rng)
        before = dists.copy()
        guide_correct(dists, known, labels)
        assert np.array_equal(dists, before)

    def test_shape_and_bound_errors(self):
        with pytest.raises(ValueError):
            guide_correct(np.ones(3), EMPTY_ANNOTATIONS, [0, 0, 0])
        dists = np.full((2, 3), 1 / 3)
        with pytest.raises(ValueError):
            guide_correct(dists, EMPTY_ANNOTATIONS, [0])
        long_span = EntityAnnotationSet((EntitySpan(0, 3, "PER"),))
        with pytest.raises(ValueError):
            guide_correct(dists, long_span, [0, 0])


class TestMasking:
    def test_exact_count_on_grid(self, small_splits):
        train, _, _ = small_splits
        total = train.total_entities()
        for f in (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5):
            _, kept = mask_entities(train, f, seed=9)
            assert len(kept) == round(f * total)

    def test_kept_are_gold(self, small_splits):
        train, _, _ = small_splits
        gold = {(i, s) for i, spans in enumerate(train.gold_spans()) for s in spans}
        _, kept = mask_entities(train, 0.3, seed=1)
        assert set(kept) <= gold

    def test_deterministic_in_seed(self, small_splits):
        train, _, _ = small_splits
        assert mask_entities(train, 0.2, 5)[1] == mask_entities(train, 0.2, 5)[1]
        assert mask_entities(train, 0.2, 5)[1] != mask_entities(train, 0.2, 6)[1]

    def test_partial_labels_encode_kept_only(self, small_splits):
        train, _, _ = small_splits
        partial, kept = mask_entities(train, 0.25, seed=2)
        by_sentence = {}
        for i, span in kept:
            by_sentence.setdefault(i, []).append(span)
        for i, p in enumerate(partial):
            expect = encode_bio(sorted(by_sentence.get(i, [])),
                                len(p.tokens), train.scheme)
            assert list(p.labels) == expect
            assert tuple(sorted(by_sentence.get(i, []))) == p.known.spans

    def test_extremes(self, tiny_corpus):
        partial, kept = mask_entities(tiny_corpus, 0.0, seed=0)
        assert kept == [] and all(set(p.labels) == {0} for p in partial)
        partial, kept = mask_entities(tiny_corpus, 1.0, seed=0)
        assert len(kept) == tiny_corpus.total_entities()
        for p, s in zip(partial, tiny_corpus.sentences):
            assert p.labels == s.labels

    def test_fraction_bounds(self, tiny_corpus):
        with pytest.raises(ValueError):
            mask_entities(tiny_corpus, -0.1, seed=0)
        with pytest.raises(ValueError):
            mask_entities(tiny_corpus, 1.5, seed=0)

    def test_unlabelled_corpus_rejected(self, scheme):
        corpus = Corpus((Sentence(("a",), None),), scheme)
        with pytest.raises(ValueError):
            mask_entities(corpus, 0.5, seed=0)

    @settings(deadline=None, max_examples=30)
    @given(frac=st.floats(0.0, 1.0), n=st.integers(5, 60), seed=st.integers(0, 99))
    def test_count_arithmetic_property(self, frac, n, seed):
        corpus = generate_synthetic(SynthConfig(n_sentences=n, seed=seed))
        _, kept = mask_entities(corpus, frac, seed=seed + 1)
        assert len(kept) == round(frac * corpus.total_entities())


def test_partial_from_kept_checks_index(tiny_corpus):
    with pytest.raises(ValueError):
        partial_from_kept(tiny_corpus, [(99, EntitySpan(0, 1, "PER"))])


class TestPartiallyAnnotatedSentence:
    TOKENS = ("Anna", "Keller", "lives", "in", "Oslo", ".")

    def sentence(self, scheme, *spans):
        return Sentence(self.TOKENS, tuple(encode_bio(spans, len(self.TOKENS), scheme)))

    def test_needs_hard_labels(self):
        with pytest.raises(ValueError, match="needs hard labels"):
            PartiallyAnnotatedSentence(Sentence(self.TOKENS), EMPTY_ANNOTATIONS)

    def test_rejects_a_span_past_the_end(self, scheme):
        labelled = self.sentence(scheme, EntitySpan(4, 6, "LOC"))
        with pytest.raises(ValueError, match="exceeds sentence length"):
            PartiallyAnnotatedSentence(labelled, EntityAnnotationSet((EntitySpan(4, 8, "LOC"),)))

    # the self-training guidance reads a partial sentence's known tokens off
    # its labels (labels != O), which holds only while they agree with the spans
    @pytest.mark.parametrize("labelled,known,token", [
        ((EntitySpan(0, 2, "PER"),), (), 0),
        ((), (EntitySpan(4, 5, "LOC"),), 4),
        ((EntitySpan(0, 2, "PER"),), (EntitySpan(0, 1, "PER"),), 1),
    ], ids=["unlisted-entity", "listed-span-labelled-O", "span-shorter-than-labels"])
    def test_rejects_labels_that_disagree_with_the_spans(self, scheme, labelled, known, token):
        with pytest.raises(ValueError, match=f"inconsistent with known spans at token {token}"):
            PartiallyAnnotatedSentence(self.sentence(scheme, *labelled),
                                       EntityAnnotationSet(known))


def test_partial_from_labels_keeps_everything(tiny_corpus):
    partial = partial_from_labels(tiny_corpus)
    assert sum(len(p.known) for p in partial) == tiny_corpus.total_entities()
    for p, s in zip(partial, tiny_corpus.sentences):
        assert p.labels == s.labels


def test_to_corpus_roundtrip(tiny_corpus):
    partial = partial_from_labels(tiny_corpus)
    back = to_corpus(partial, tiny_corpus.scheme, "back")
    assert [s.labels for s in back] == [s.labels for s in tiny_corpus]
    assert back.name == "back"


def test_kept_sidecar_roundtrip(tmp_path, small_splits):
    train, _, _ = small_splits
    _, kept = mask_entities(train, 0.2, seed=4)
    path = str(tmp_path / "kept.csv")
    write_kept_sidecar(path, kept)
    assert read_kept_sidecar(path) == kept
