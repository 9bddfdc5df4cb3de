"""Tests for exact-match span scoring and model evaluation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from partialner.corpus import Corpus, EntitySpan, LabelScheme, Sentence, decode_bio
from partialner.evaluation import (EvalResult, _keys, bio_span_keys, evaluate_model,
                                   gold_keys, gold_spans, key_scores, span_f1)
from partialner.tagger import TaggerConfig, TaggerModel, train


def prf(matches, predicted, gold):
    p = matches / predicted if predicted else 0.0
    r = matches / gold if gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


class TestSpanF1:
    def test_hand_case(self):
        gold = [[EntitySpan(0, 1, "PER"), EntitySpan(3, 4, "LOC")]]
        pred = [[EntitySpan(0, 1, "PER"), EntitySpan(2, 4, "LOC")]]
        res = span_f1(pred, gold)
        assert res.match_count == 1
        assert res.predicted_count == 2
        assert res.gold_count == 2
        assert res.precision == pytest.approx(0.5)
        assert res.recall == pytest.approx(0.5)
        assert res.f1 == pytest.approx(0.5)

    def test_category_must_match_too(self):
        gold = [[EntitySpan(0, 2, "PER")]]
        pred = [[EntitySpan(0, 2, "ORG")]]
        res = span_f1(pred, gold)
        assert res.match_count == 0
        assert res.f1 == 0.0

    def test_perfect_prediction(self):
        spans = [[EntitySpan(0, 2, "PER")], [], [EntitySpan(1, 3, "ORG")]]
        res = span_f1(spans, spans)
        assert res.precision == res.recall == res.f1 == 1.0
        assert res.match_count == res.gold_count == 2

    def test_empty_everything_scores_zero(self):
        res = span_f1([[], []], [[], []])
        assert res.precision == res.recall == res.f1 == 0.0
        assert res.gold_count == res.predicted_count == 0

    def test_zero_denominators(self):
        gold = [[EntitySpan(0, 1, "PER")]]
        assert span_f1([[]], gold).precision == 0.0
        assert span_f1([[]], gold).f1 == 0.0
        assert span_f1(gold, [[]]).recall == 0.0

    def test_same_offsets_different_sentences_do_not_match(self):
        gold = [[EntitySpan(0, 1, "PER")], []]
        pred = [[], [EntitySpan(0, 1, "PER")]]
        assert span_f1(pred, gold).match_count == 0

    def test_duplicate_spans_count_once(self):
        gold = [[EntitySpan(0, 1, "PER")]]
        pred = [[EntitySpan(0, 1, "PER"), EntitySpan(0, 1, "PER")]]
        res = span_f1(pred, gold)
        assert res.predicted_count == 1
        assert res.f1 == 1.0

    def test_per_category_breakdown(self):
        gold = [[EntitySpan(0, 1, "PER"), EntitySpan(2, 3, "LOC")],
                [EntitySpan(0, 2, "LOC")]]
        pred = [[EntitySpan(0, 1, "PER")],
                [EntitySpan(0, 2, "LOC"), EntitySpan(3, 4, "LOC")]]
        res = span_f1(pred, gold)
        assert res.per_category["PER"] == (1.0, 1.0, 1.0)
        assert res.category_counts["PER"] == (1, 1, 1)
        assert res.category_counts["LOC"] == (1, 2, 2)
        assert res.per_category["LOC"] == pytest.approx((0.5, 0.5, 0.5))
        assert list(res.per_category) == sorted(res.per_category)

    def test_category_counts_sum_to_micro(self):
        gold = [[EntitySpan(0, 1, "PER"), EntitySpan(2, 4, "ORG")],
                [EntitySpan(1, 2, "LOC")]]
        pred = [[EntitySpan(0, 1, "PER")], [EntitySpan(1, 3, "LOC")]]
        res = span_f1(pred, gold)
        sums = [sum(c[i] for c in res.category_counts.values()) for i in range(3)]
        assert sums == [res.match_count, res.predicted_count, res.gold_count]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sentences"):
            span_f1([[]], [[], []])

    def test_result_rejects_impossible_counts(self):
        with pytest.raises(ValueError, match="matches"):
            EvalResult(1.0, 1.0, 1.0, 1, 1, 2, {}, {})


spans_st = st.builds(
    lambda start, width, cat: EntitySpan(start, start + width, cat),
    st.integers(0, 15), st.integers(1, 4), st.sampled_from(["PER", "LOC", "ORG"]))
sentence_pairs_st = st.lists(
    st.tuples(st.frozensets(spans_st, max_size=5), st.frozensets(spans_st, max_size=5)),
    max_size=6)


class TestSpanF1Properties:
    @given(sentence_pairs_st)
    def test_matches_brute_force(self, pairs):
        pred = [p for p, _ in pairs]
        gold = [g for _, g in pairs]
        res = span_f1(pred, gold)
        matches = sum(len(p & g) for p, g in pairs)
        n_pred = sum(len(p) for p in pred)
        n_gold = sum(len(g) for g in gold)
        assert res.match_count == matches
        assert (res.predicted_count, res.gold_count) == (n_pred, n_gold)
        p, r, f = prf(matches, n_pred, n_gold)
        assert res.precision == pytest.approx(p)
        assert res.recall == pytest.approx(r)
        assert res.f1 == pytest.approx(f)

    @given(sentence_pairs_st)
    def test_identity_and_symmetry(self, pairs):
        pred = [p for p, _ in pairs]
        gold = [g for _, g in pairs]
        self_score = span_f1(gold, gold)
        if any(gold):
            assert self_score.f1 == 1.0
        swapped = span_f1(gold, pred)
        res = span_f1(pred, gold)
        assert swapped.precision == pytest.approx(res.recall)
        assert swapped.recall == pytest.approx(res.precision)
        assert swapped.f1 == pytest.approx(res.f1)
        assert swapped.match_count == res.match_count

    @given(sentence_pairs_st)
    def test_bounds(self, pairs):
        res = span_f1([p for p, _ in pairs], [g for _, g in pairs])
        for v in (res.precision, res.recall, res.f1):
            assert 0.0 <= v <= 1.0
        assert res.match_count <= min(res.predicted_count, res.gold_count)


def zeroed_model(scheme):
    cfg = TaggerConfig(embed_dim=4, window=1, hidden_dim=4, hash_buckets=64)
    model = TaggerModel.init(cfg, scheme)
    for arr in model.params().values():
        arr[:] = 0.0
    return model


def reference_evaluation(model, corpus, one_by_one=False):
    """`span_f1` over per-sentence `decode_bio` of the argmax tags.

    With `one_by_one`, each sentence gets its own forward pass, so batching
    cannot mask a decode error (batched matmuls may round differently, which
    could only move an exact tie).
    """
    seqs = [s.tokens for s in corpus.sentences]
    dists = ([model.sequence_distributions([t])[0] for t in seqs] if one_by_one
             else model.sequence_distributions(seqs))
    pred = [decode_bio(np.argmax(d, axis=1).tolist(), model.scheme) for d in dists]
    return span_f1(pred, corpus.gold_spans())


def small_model(scheme, seed):
    return TaggerModel.init(
        TaggerConfig(embed_dim=4, window=1, hidden_dim=4, hash_buckets=64, seed=seed), scheme)


class TestPredict:
    """`evaluate_model` against the per-sentence reference, every field."""

    def test_uniform_distribution_decodes_to_o(self, scheme, make_sentence):
        model = zeroed_model(scheme)
        corpus = Corpus((make_sentence("Anna met Bob", PER=[(0, 1), (2, 3)]),
                         make_sentence("Paris", LOC=[(0, 1)])), scheme, "uniform")
        res = evaluate_model(model, corpus)
        assert res.predicted_count == 0 and res.gold_count == 3
        assert res == reference_evaluation(model, corpus)

    def test_matches_manual_argmax_decode(self, scheme, make_sentence):
        model = small_model(scheme, seed=2)
        corpus = Corpus((make_sentence("Anna met Bob in Paris", PER=[(0, 1), (2, 3)]),
                         make_sentence("Orion Labs opened", ORG=[(0, 2)])), scheme, "hand")
        assert evaluate_model(model, corpus) == \
            reference_evaluation(model, corpus, one_by_one=True)

    def test_evaluate_model_composes_predict_and_score(self, scheme, tiny_corpus):
        model = small_model(scheme, seed=5)
        res = evaluate_model(model, tiny_corpus)
        assert res == reference_evaluation(model, tiny_corpus)
        assert res.gold_count == tiny_corpus.total_entities()

    def test_trained_model(self, small_splits):
        trn, dev, test = small_splits
        cfg = TaggerConfig(embed_dim=8, window=1, hidden_dim=12, hash_buckets=1024,
                           learning_rate=0.3, max_epochs=3, patience=3, seed=1)
        model, trace = train(TaggerModel.init(cfg, trn.scheme), trn, dev)
        assert trace.best_iteration > 0
        res = evaluate_model(model, test)
        assert res.match_count > 0
        assert res == reference_evaluation(model, test)

    def test_category_without_gold_spans(self, scheme, make_sentence):
        model = zeroed_model(scheme)
        model.b2[scheme.b_index("ORG")] = 1.0  # every token opens an ORG span
        corpus = Corpus((make_sentence("Anna met Bob", PER=[(0, 1)]),
                         make_sentence("Paris", PER=[(0, 1)])), scheme, "no-org")
        res = evaluate_model(model, corpus)
        assert res.category_counts == {"ORG": (0, 4, 0), "PER": (0, 0, 2)}
        assert res == reference_evaluation(model, corpus)

    def test_empty_corpus(self, scheme):
        empty = Corpus((), scheme, "empty")
        res = evaluate_model(small_model(scheme, seed=0), empty)
        assert res == span_f1([], []) == reference_evaluation(small_model(scheme, 0), empty)
        assert res.f1 == 0.0 and res.per_category == {}

    def test_scheme_mismatch_rejected(self, scheme, make_sentence):
        # gold keys index the corpus's categories, predicted keys the model's
        reordered = LabelScheme(tuple(reversed(scheme.categories)))
        corpus = Corpus((make_sentence("Anna met Bob", PER=[(0, 1)]),), scheme, "hand")
        with pytest.raises(ValueError, match="scheme"):
            evaluate_model(small_model(reordered, seed=0), corpus)


SCHEME = LabelScheme(("PER", "LOC", "ORG"))
tag_sentences_st = st.lists(
    st.lists(st.integers(0, SCHEME.tag_count - 1), min_size=1, max_size=8),
    min_size=1, max_size=6)


def flat(sentences):
    """Concatenated tags and (n + 1,) offsets of per-sentence tag lists."""
    offsets = np.cumsum([0] + [len(t) for t in sentences])
    return np.concatenate([np.asarray(t, dtype=np.int64) for t in sentences]), offsets


def span_keys(spans, offsets, scheme):
    """Keys of per-sentence span lists, one key per distinct span: the
    reference for `bio_span_keys` and `gold_keys`."""
    pos = {c: i for i, c in enumerate(scheme.categories)}
    flat = [(base + s.start, base + s.end, pos[s.category])
            for base, sentence in zip(offsets[:-1].tolist(), spans)
            for s in set(sentence)]
    starts, ends, cats = np.array(flat, dtype=np.int64).reshape(-1, 3).T
    return _keys(starts, ends, cats, int(offsets[-1]), scheme)


def reference_keys(sentences):
    _, offsets = flat(sentences)
    return span_keys([decode_bio(t, SCHEME) for t in sentences], offsets, SCHEME)


class TestFlatSpanKeys:
    """The one-pass extractor against `decode_bio` run sentence by sentence."""

    @given(tag_sentences_st)
    def test_matches_decode_bio(self, sentences):
        tags, offsets = flat(sentences)
        got = bio_span_keys(tags, offsets, SCHEME)
        assert np.array_equal(np.sort(got), np.sort(reference_keys(sentences)))
        assert got.size == sum(len(decode_bio(t, SCHEME)) for t in sentences)

    @pytest.mark.parametrize("sentences", [
        [[2, 2, 0, 4]],              # stray I- opens a span, twice
        [[1, 2, 4, 4, 2]],           # category switches inside an I- run
        [[1, 1, 2]],                 # B- after B- starts a new span
        [[1, 2], [2, 2], [2]],       # sentence boundaries close I- runs
        [[3], [4], [0], [5], [6], [1], [2]],  # length-1 sentences, every tag index
    ])
    def test_hand_cases(self, sentences):
        tags, offsets = flat(sentences)
        assert np.array_equal(np.sort(bio_span_keys(tags, offsets, SCHEME)),
                              np.sort(reference_keys(sentences)))

    @pytest.mark.parametrize("tag", range(SCHEME.tag_count))
    def test_every_tag_index(self, tag):
        sentences = [[tag], [tag, tag], [0, tag, tag, 0]]
        tags, offsets = flat(sentences)
        assert np.array_equal(np.sort(bio_span_keys(tags, offsets, SCHEME)),
                              np.sort(reference_keys(sentences)))

    @given(tag_sentences_st)
    def test_gold_keys_match_decode_bio(self, sentences):
        # arbitrary tag indices: stray I- tags and category switches included
        corpus = Corpus([Sentence(tuple("w" * len(t)), tuple(t)) for t in sentences], SCHEME)
        keys, offsets = gold_keys(corpus)
        np.testing.assert_array_equal(offsets, flat(sentences)[1])
        want = span_keys(corpus.gold_spans(), offsets, SCHEME)
        assert keys.dtype == want.dtype
        np.testing.assert_array_equal(np.sort(keys), np.sort(want))
        # the masking route: (sentence, span) pairs in corpus order, as Python ints
        pairs = gold_spans(corpus)
        assert pairs == [
            (i, span) for i, spans in enumerate(corpus.gold_spans()) for span in spans]
        assert all(type(v) is int for i, span in pairs for v in (i, span.start, span.end))

    def test_gold_keys_need_labels(self):
        corpus = Corpus([Sentence(("a", "b"))], SCHEME, "raw")
        with pytest.raises(ValueError, match="raw"):
            gold_keys(corpus)

    @given(tag_sentences_st, st.randoms(use_true_random=False))
    def test_key_scores_equal_span_f1(self, gold_tags, random):
        # mostly the gold tags, so predictions match often but not always
        pred_tags = [[t if random.random() < 0.7 else random.randrange(SCHEME.tag_count)
                      for t in g] for g in gold_tags]
        pred, offsets = flat(pred_tags)
        gold = [decode_bio(t, SCHEME) for t in gold_tags]
        want = span_f1([decode_bio(t, SCHEME) for t in pred_tags], gold)
        got = key_scores(bio_span_keys(pred, offsets, SCHEME),
                         span_keys(gold, offsets, SCHEME), SCHEME)
        assert got == want
        assert got.f1.hex() == want.f1.hex()

    @given(sentence_pairs_st)
    def test_span_keys_score_like_span_f1(self, pairs):
        # every generated span ends before 20, so 20-token sentences hold them
        offsets = np.arange(len(pairs) + 1) * 20
        pred = [p for p, _ in pairs]
        gold = [g for _, g in pairs]
        got = key_scores(span_keys(pred, offsets, SCHEME), span_keys(gold, offsets, SCHEME),
                         SCHEME)
        assert got == span_f1(pred, gold)

    @pytest.mark.parametrize("pred_tags,gold_tags", [
        ([[0, 0], [0]], [[0, 0], [0]]),           # no spans at all
        ([[5, 6], [1]], [[1, 2], [1]]),           # ORG predicted, never gold
        ([[0, 0], [0]], [[3, 4], [0]]),           # LOC gold, never predicted
    ], ids=["no-spans", "predicted-only-category", "gold-only-category"])
    def test_key_scores_hand_cases(self, pred_tags, gold_tags):
        pred, offsets = flat(pred_tags)
        gold = [decode_bio(t, SCHEME) for t in gold_tags]
        want = span_f1([decode_bio(t, SCHEME) for t in pred_tags], gold)
        assert key_scores(bio_span_keys(pred, offsets, SCHEME),
                          span_keys(gold, offsets, SCHEME), SCHEME) == want

    def test_key_scores_of_an_empty_corpus(self):
        none = bio_span_keys(np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.intp), SCHEME)
        assert key_scores(none, span_keys([], np.zeros(1, dtype=np.intp), SCHEME),
                          SCHEME) == span_f1([], [])
