"""Tests for the windowed feedforward tagger: encoding, gradients, training."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialner.annotation import one_hot_rows
from partialner.corpus import (Corpus, LabelScheme, Sentence, SynthConfig, decode_bio,
                               generate_synthetic)
from partialner import tagger
from partialner.evaluation import (bio_span_keys, evaluate_model, gold_keys, key_scores,
                                   span_f1)
from partialner.rng import STREAM_INIT, seeded_rng
from partialner.tagger import (
    BOUNDARY_TOKEN,
    LOG_FLOOR,
    _bucket,
    _token_flags,
    EncodedTokens,
    Gradients,
    SoftDataset,
    StageTable,
    TaggerConfig,
    StageTrace,
    TaggerModel,
    encode_tokens,
    finite_difference_check,
    flat_loss_and_grads,
    forward_flat,
    initial_rows,
    load_checkpoint,
    save_checkpoint,
    score,
    score_workspace,
    sentence_weights,
    sgd_step,
    train,
    validation_f1,
)

from conftest import full_params, save_v1_checkpoint


def soft_cross_entropy(predicted: np.ndarray, target: np.ndarray) -> float:
    """Reference loss: mean over tokens of -sum_j t_j log max(q_j, floor).

    Hard-label loss is the special case where each target row is one-hot.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if predicted.shape != target.shape:
        raise ValueError(f"shape mismatch {predicted.shape} vs {target.shape}")
    logq = np.log(np.maximum(predicted, LOG_FLOOR))
    return float(-(target * logq).sum(axis=1).mean())


def small_config(**overrides) -> TaggerConfig:
    base = dict(embed_dim=6, window=1, hidden_dim=8, hash_buckets=256, seed=3)
    base.update(overrides)
    return TaggerConfig(**base)


def distributions(model, sentence):
    """(L, C) label distributions of one sentence."""
    return model.sequence_distributions([sentence.tokens])[0]


def batch_loss_and_grads(model, sentences, targets):
    """Loss and gradients of the mean per-sentence cross entropy of a batch."""
    (enc,) = model.positions(encode_tokens([s.tokens for s in sentences], model.config))
    return flat_loss_and_grads(model, enc.ids, enc.flags, np.concatenate(targets),
                               sentence_weights(enc.lengths))


class TestConfig:
    def test_derived_dimensions(self):
        cfg = TaggerConfig(embed_dim=10, window=2)
        assert cfg.slots == 5
        assert cfg.input_dim == 5 * 12

    def test_window_zero_is_allowed(self):
        cfg = TaggerConfig(window=0)
        assert cfg.slots == 1

    @pytest.mark.parametrize("bad", [
        dict(embed_dim=0),
        dict(window=-1),
        dict(hidden_dim=0),
        dict(hash_buckets=0),
        dict(batch_size=0),
        dict(max_epochs=0),
        dict(patience=0),
        dict(learning_rate=0.0),
        dict(learning_rate=-0.1),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            TaggerConfig(**bad)


class TestEncoding:
    def test_shapes_and_offsets(self):
        cfg = small_config()
        enc = encode_tokens([("a", "b", "c"), ("d",)], cfg)
        assert enc.ids.shape == (4, cfg.slots)
        assert enc.flags.shape == (4, cfg.slots, 2)
        assert enc.offsets.tolist() == [0, 3, 4]
        assert enc.lengths.tolist() == [3, 1]
        assert len(enc) == 2

    def test_window_slots_hold_neighbours(self):
        cfg = small_config(window=1)
        enc = encode_tokens([("alpha", "beta", "gamma")], cfg)
        # middle token sees its actual neighbours in the outer slots
        lone = encode_tokens([("beta",)], cfg)
        assert enc.ids[1, 1] == lone.ids[0, 1]
        assert enc.ids[1, 0] == enc.ids[0, 1]
        assert enc.ids[1, 2] == enc.ids[2, 1]

    def test_sentence_edges_use_boundary_token(self):
        cfg = small_config(window=2)
        enc = encode_tokens([("solo",)], cfg)
        pad_id = encode_tokens([(BOUNDARY_TOKEN,)], small_config(window=0)).ids[0, 0]
        assert enc.ids[0, 0] == pad_id
        assert enc.ids[0, 1] == pad_id
        assert enc.ids[0, 3] == pad_id
        assert enc.ids[0, 4] == pad_id

    def test_hashing_is_case_insensitive(self):
        cfg = small_config(window=0)
        a = encode_tokens([("Paris",)], cfg)
        b = encode_tokens([("paris",)], cfg)
        assert a.ids[0, 0] == b.ids[0, 0]

    def test_flags_capture_case_and_digits(self):
        cfg = small_config(window=0)
        enc = encode_tokens([("Paris", "b12", "plain")], cfg)
        assert enc.flags[0, 0].tolist() == [1.0, 0.0]
        assert enc.flags[1, 0].tolist() == [0.0, 1.0]
        assert enc.flags[2, 0].tolist() == [0.0, 0.0]

    def test_empty_input(self):
        enc = encode_tokens([], small_config())
        assert enc.ids.shape[0] == 0
        assert len(enc) == 0


def reference_encode_tokens(token_seqs, config) -> EncodedTokens:
    """The per-token encoder that `encode_tokens` replaced: pad each sentence
    with `window` boundary tokens per side and slide a window over it."""
    pad = [BOUNDARY_TOKEN] * config.window
    ids_rows, flags_rows, offsets = [], [], [0]
    for tokens in token_seqs:
        padded = [*pad, *tokens, *pad]
        pids = [_bucket(t, config.hash_buckets) for t in padded]
        pflags = [_token_flags(t) for t in padded]
        for k in range(len(tokens)):
            ids_rows.append(pids[k:k + config.slots])
            flags_rows.append(pflags[k:k + config.slots])
        offsets.append(offsets[-1] + len(tokens))
    ids = np.asarray(ids_rows, dtype=np.int64).reshape(-1, config.slots)
    flags = np.asarray(flags_rows, dtype=np.float64).reshape(-1, config.slots, 2)
    return EncodedTokens(ids, flags, np.asarray(offsets, dtype=np.intp))


token_st = st.one_of(
    st.text(alphabet="aAzZ09_-.é", max_size=6),
    st.sampled_from([BOUNDARY_TOKEN, "__BOUNDARY__", "Paris", "paris", "PARIS", "b12"]))
corpus_st = st.lists(st.lists(token_st, max_size=6).map(tuple), max_size=5)


class TestEncoderMatchesReference:
    @settings(deadline=None, max_examples=200)
    @given(corpus_st, st.integers(0, 3), st.sampled_from([1, 2, 3, 7, 1 << 16]))
    def test_ids_flags_and_offsets_are_identical(self, seqs, window, buckets):
        cfg = small_config(window=window, hash_buckets=buckets)
        got, want = encode_tokens(seqs, cfg), reference_encode_tokens(seqs, cfg)
        for name in ("ids", "flags", "offsets"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.shape == w.shape, name
            np.testing.assert_array_equal(g, w, err_msg=name)

    def test_synthetic_corpus(self):
        corpus = generate_synthetic(SynthConfig(n_sentences=300, seed=5))
        seqs = [s.tokens for s in corpus.sentences]
        for window in range(4):
            cfg = small_config(window=window, hash_buckets=1 << 16)
            got, want = encode_tokens(seqs, cfg), reference_encode_tokens(seqs, cfg)
            for name in ("ids", "flags", "offsets"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestInitialRows:
    """Rows drawn on demand are the full draw's, and w1 and w2 follow it."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**63), buckets=st.integers(1, 300),
           embed_dim=st.integers(1, 6), data=st.data())
    def test_equal_to_the_full_draw(self, scheme, seed, buckets, embed_dim, data):
        cfg = TaggerConfig(embed_dim=embed_dim, window=0, hidden_dim=3,
                           hash_buckets=buckets, seed=seed)
        some = data.draw(st.sets(st.integers(0, buckets - 1), max_size=40))
        edges = data.draw(st.sampled_from(
            [(), (0,), (buckets - 1,), (0, buckets - 1), tuple(range(buckets))]))
        rows = np.array(sorted(some | set(edges)), dtype=np.int64)
        rng = seeded_rng(seed, STREAM_INIT)
        full = rng.uniform(-1, 1, (buckets, embed_dim))
        w1 = rng.uniform(-1 / np.sqrt(cfg.input_dim), 1 / np.sqrt(cfg.input_dim),
                         (cfg.input_dim, cfg.hidden_dim))
        w2 = rng.uniform(-1 / np.sqrt(cfg.hidden_dim), 1 / np.sqrt(cfg.hidden_dim),
                         (cfg.hidden_dim, scheme.tag_count))
        assert_same_bits(initial_rows(cfg, rows), full[rows], "rows")
        model = TaggerModel.init(cfg, scheme)
        assert_same_bits(model.w1, w1, "w1")
        assert_same_bits(model.w2, w2, "w2")
        # two calls, so the second merges its rows into the first's
        split = data.draw(st.integers(0, rows.size))
        for part in (rows[split:], rows[:split]):
            ids = data.draw(st.permutations(part.tolist()))
            (enc,) = model.positions(EncodedTokens(
                np.asarray(ids, dtype=np.int64).reshape(-1, 1), np.zeros((len(ids), 1, 2)),
                np.array([0, len(ids)])))
            np.testing.assert_array_equal(model.rows[enc.ids[:, 0]], ids)
        np.testing.assert_array_equal(model.rows, rows)
        assert_same_bits(model.embed, full[rows], "embed")
        assert_same_bits(full_params(model)["embed"], full, "table")


class TestModel:
    def test_init_shapes_and_zero_biases(self, scheme):
        cfg = small_config()
        model = TaggerModel.init(cfg, scheme)
        assert model.rows.size == 0  # rows are drawn when a token first needs them
        assert model.embed.shape == (0, cfg.embed_dim)
        assert model.w1.shape == (cfg.input_dim, cfg.hidden_dim)
        assert model.w2.shape == (cfg.hidden_dim, scheme.tag_count)
        assert not model.b1.any()
        assert not model.b2.any()

    def test_init_is_seeded(self, scheme):
        a = TaggerModel.init(small_config(seed=5), scheme)
        b = TaggerModel.init(small_config(seed=5), scheme)
        c = TaggerModel.init(small_config(seed=6), scheme)
        assert np.array_equal(a.w1, b.w1)
        assert not np.array_equal(a.w1, c.w1)

    def test_init_scales(self, scheme):
        cfg = small_config()
        model = TaggerModel.init(cfg, scheme)
        table = initial_rows(cfg, np.arange(cfg.hash_buckets))
        # embedding rows start at unit scale, hidden weights at 1/sqrt(fan_in)
        assert np.abs(table).max() <= 1.0
        assert np.abs(table).max() > 1.0 / np.sqrt(cfg.input_dim)
        assert np.abs(model.w1).max() <= 1.0 / np.sqrt(cfg.input_dim)

    def test_copy_is_deep(self, scheme):
        model = TaggerModel.init(small_config(), scheme)
        clone = model.copy()
        clone.w1 += 1.0
        assert not np.array_equal(model.w1, clone.w1)

    def test_load_from_copies_in_place(self, scheme):
        a = TaggerModel.init(small_config(seed=1), scheme)
        b = TaggerModel.init(small_config(seed=2), scheme)
        w1_ref = a.w1
        a.load_from(b)
        assert a.w1 is w1_ref
        assert np.array_equal(a.w1, b.w1)

    def test_forward_rows_are_distributions(self, scheme, make_sentence):
        model = TaggerModel.init(small_config(), scheme)
        sent = make_sentence("Anna met Bob in Paris")
        probs = distributions(model, sent)
        assert probs.shape == (5, scheme.tag_count)
        assert (probs > 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_sequence_distributions_match_forward(self, scheme, make_sentence):
        model = TaggerModel.init(small_config(), scheme)
        sents = [make_sentence("Anna met Bob"), make_sentence("Paris")]
        dists = model.sequence_distributions([s.tokens for s in sents])
        assert [d.shape[0] for d in dists] == [3, 1]
        # batched matmuls may round differently, so allow last-ulp slack
        np.testing.assert_allclose(dists[0], distributions(model, sents[0]), rtol=1e-12)
        np.testing.assert_allclose(dists[1], distributions(model, sents[1]), rtol=1e-12)


class TestLoss:
    def test_hand_value(self):
        predicted = np.array([[0.5, 0.25, 0.25], [0.1, 0.8, 0.1]])
        target = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        want = -(np.log(0.5) + np.log(0.8)) / 2
        assert soft_cross_entropy(predicted, target) == pytest.approx(want, rel=1e-12)

    def test_soft_targets_weight_terms(self):
        predicted = np.array([[0.5, 0.5]])
        target = np.array([[0.25, 0.75]])
        want = -(0.25 * np.log(0.5) + 0.75 * np.log(0.5))
        assert soft_cross_entropy(predicted, target) == pytest.approx(want, rel=1e-12)

    def test_perfect_prediction_floor(self):
        # zero-probability cells with zero target mass contribute nothing
        predicted = np.array([[1.0, 0.0]])
        target = np.array([[1.0, 0.0]])
        assert soft_cross_entropy(predicted, target) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            soft_cross_entropy(np.ones((2, 3)) / 3, np.ones((3, 3)) / 3)


def one_hot_targets(sentences, scheme):
    return [one_hot_rows(s.labels, scheme.tag_count) for s in sentences]


class TestGradients:
    def test_finite_difference_smoke(self, scheme, make_sentence):
        sents = [
            make_sentence("Anna met Bob in Paris", PER=[(0, 1), (2, 3)], LOC=[(4, 5)]),
            make_sentence("Orion Labs opened", ORG=[(0, 2)]),
        ]
        targets = one_hot_targets(sents, scheme)
        for seed in (0, 1, 2):
            model = TaggerModel.init(small_config(seed=seed), scheme)
            assert finite_difference_check(model, sents, targets) < 1e-4

    def test_gradient_zero_at_fixpoint(self, scheme, make_sentence):
        # targets equal to the model's own outputs leave every parameter still
        model = TaggerModel.init(small_config(), scheme)
        sents = [make_sentence("Anna met Bob"), make_sentence("Paris is quiet")]
        targets = [distributions(model, s) for s in sents]
        g = batch_loss_and_grads(model, sents, targets)[1]
        for arr in (g.w1, g.b1, g.w2, g.b2, g.embed_rows):
            assert np.abs(arr).max() == 0.0

    def test_sgd_step_applies_update(self, scheme, make_sentence):
        model = TaggerModel.init(small_config(), scheme)
        sents = [make_sentence("Anna met Bob", PER=[(0, 1), (2, 3)])]
        targets = one_hot_targets(sents, scheme)
        g = batch_loss_and_grads(model, sents, targets)[1]
        before = {k: v.copy() for k, v in full_params(model).items()}
        sgd_step(model, g, 0.1)
        np.testing.assert_array_equal(model.w1, before["w1"] - 0.1 * g.w1)
        np.testing.assert_array_equal(model.b2, before["b2"] - 0.1 * g.b2)
        dense = np.zeros_like(before["embed"])
        dense[model.rows[g.embed_ids]] = g.embed_rows
        np.testing.assert_array_equal(full_params(model)["embed"], before["embed"] - 0.1 * dense)

    def test_sgd_step_touches_only_seen_buckets(self, scheme, make_sentence):
        model = TaggerModel.init(small_config(), scheme)
        sents = [make_sentence("Anna")]
        g = batch_loss_and_grads(model, sents, one_hot_targets(sents, scheme))[1]
        before = model.embed.copy()
        sgd_step(model, g, 0.5)
        changed = np.flatnonzero(np.abs(model.embed - before).sum(axis=1))
        assert set(changed) <= set(np.unique(g.embed_ids))

    def test_batch_loss_weights_sentences_equally(self, scheme, make_sentence):
        model = TaggerModel.init(small_config(), scheme)
        short = make_sentence("Paris", LOC=[(0, 1)])
        long = make_sentence("Anna met Bob in Paris today", PER=[(0, 1), (2, 3)], LOC=[(4, 5)])
        targets = one_hot_targets([short, long], scheme)
        per_sentence = [
            soft_cross_entropy(distributions(model, s), t)
            for s, t in zip([short, long], targets)
        ]
        got = batch_loss_and_grads(model, [short, long], targets)[0]
        assert got == pytest.approx(np.mean(per_sentence), rel=1e-12)


def add_at_embed_grads(model, ids, flags, targets, weights):
    """Reference embedding gradient: the same backprop, scattered with np.add.at."""
    _, h, probs = forward_flat(model, ids, flags)
    dlogits = (probs - targets) * weights[:, None]
    dpre = (dlogits @ model.w2.T) * (1.0 - h * h)
    dx = dpre @ model.w1.T
    cfg = model.config
    dslot = dx.reshape(-1, cfg.slots, cfg.embed_dim + 2)[:, :, :cfg.embed_dim]
    uniq, inverse = np.unique(ids.reshape(-1), return_inverse=True)
    rows = np.zeros((uniq.size, cfg.embed_dim))
    np.add.at(rows, inverse, dslot.reshape(-1, cfg.embed_dim))
    return uniq, rows


class TestEmbeddingScatter:
    @pytest.mark.parametrize("window,buckets", [(1, 8), (2, 4), (2, 1 << 16)])
    def test_bit_identical_to_add_at(self, scheme, window, buckets):
        # a 6-word vocabulary, short sentences and few buckets repeat ids heavily,
        # the __boundary__ bucket included; zero-weight sentences add signed zeros
        rng = np.random.default_rng(window * 1000 + buckets)
        vocab = ["Anna", "met", "Bob", "in", "Paris", "1999"]
        cfg = small_config(window=window, hash_buckets=buckets)
        boundary = encode_tokens([(BOUNDARY_TOKEN,)], cfg).ids[0, 0]
        for trial in range(20):
            model = TaggerModel.init(small_config(window=window, hash_buckets=buckets,
                                                  seed=trial), scheme)
            lengths = rng.integers(1, 5, size=rng.integers(1, 12))
            seqs = [tuple(rng.choice(vocab, size=n)) for n in lengths]
            (enc,) = model.positions(encode_tokens(seqs, cfg))
            targets = rng.dirichlet(np.ones(scheme.tag_count), size=enc.ids.shape[0])
            scale = np.where(rng.random(lengths.size) < 0.2, 0.0, 1.0 / lengths.size)
            weights = np.repeat(scale / lengths, lengths)
            got = flat_loss_and_grads(model, enc.ids, enc.flags, targets, weights)[1]
            uniq, rows = add_at_embed_grads(model, enc.ids, enc.flags, targets, weights)
            assert boundary in model.rows[got.embed_ids]
            assert np.array_equal(got.embed_ids, uniq)
            assert np.array_equal(got.embed_rows.view(np.int64), rows.view(np.int64))


def reference_forward_flat(model, ids, flags):
    """The forward pass that `forward_flat` replaced: a fancy-index gather,
    a concatenation and a fresh array for every temporary."""
    gathered = model.embed[ids]
    x = np.concatenate([gathered, flags], axis=2).reshape(ids.shape[0], model.config.input_dim)
    h = np.tanh(x @ model.w1 + model.b1)
    logits = h @ model.w2 + model.b2
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return x, h, e / e.sum(axis=1, keepdims=True)


def reference_loss_and_grads(model, ids, flags, targets, weights):
    """The backward pass that `flat_loss_and_grads` replaced: fresh
    temporaries, np.unique over the ids and a bincount over the embedding
    columns of the input gradient."""
    x, h, probs = reference_forward_flat(model, ids, flags)
    logq = np.log(np.maximum(probs, LOG_FLOOR))
    loss = float(-((targets * logq).sum(axis=1) * weights).sum())
    dlogits = (probs - targets) * weights[:, None]
    gw2 = h.T @ dlogits
    gb2 = dlogits.sum(axis=0)
    dpre = (dlogits @ model.w2.T) * (1.0 - h * h)
    gw1 = x.T @ dpre
    gb1 = dpre.sum(axis=0)
    dx = dpre @ model.w1.T
    cfg = model.config
    dslot = dx.reshape(-1, cfg.slots, cfg.embed_dim + 2)[:, :, :cfg.embed_dim]
    uniq, inverse = np.unique(ids.reshape(-1), return_inverse=True)
    d = cfg.embed_dim
    bins = (inverse[:, None] * d + np.arange(d)).reshape(-1)
    rows = np.bincount(bins, weights=dslot.reshape(-1))
    return loss, Gradients(gw1, gb1, gw2, gb2, uniq, rows.reshape(uniq.size, d))


def reference_sgd_step(model, grads, lr):
    model.w1 -= lr * grads.w1
    model.b1 -= lr * grads.b1
    model.w2 -= lr * grads.w2
    model.b2 -= lr * grads.b2
    model.embed[grads.embed_ids] -= lr * grads.embed_rows


def assert_same_bits(got, want, name):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, name
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def step_batch(rng, tokens, total, tag_count):
    """Sentences of `total` tokens drawn from `tokens`, weights with about a
    fifth of the sentences at zero, and targets mixing soft and one-hot rows."""
    lengths = []
    while sum(lengths) < total:
        lengths.append(int(min(rng.integers(1, 40), total - sum(lengths))))
    seqs = [tuple(rng.choice(tokens, size=n)) for n in lengths]
    lengths = np.asarray(lengths)
    scale = np.where(rng.random(lengths.size) < 0.2, 0.0, 1.0 / lengths.size)
    weights = np.repeat(scale / lengths, lengths)
    targets = rng.dirichlet(np.ones(tag_count), size=total)
    hard = rng.random(total) < 0.3
    targets[hard] = one_hot_rows(rng.integers(0, targets.shape[1], size=hard.sum()),
                                 targets.shape[1])
    return seqs, weights, targets


def holding_every_row(model):
    """The same model holding its full embedding table, as a loaded
    checkpoint does: there a position is a bucket id."""
    return TaggerModel(model.config, model.scheme, np.arange(model.config.hash_buckets),
                       full_params(model)["embed"], model.w1.copy(), model.b1.copy(),
                       model.w2.copy(), model.b2.copy())


class TestStepMatchesReference:
    """One SGD step gives the reference step's numbers bit for bit, on a
    model holding its full table and on one holding a stage's rows."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_synthetic(SynthConfig(n_sentences=120, seed=21))

    @pytest.mark.parametrize("buckets", [1, 4, 1 << 16])
    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_bit_identical(self, scheme, corpus, window, buckets):
        rng = np.random.default_rng(window * 100 + buckets)
        tokens = sorted({t for s in corpus.sentences for t in s.tokens})
        val = Corpus(corpus.sentences[:5], corpus.scheme, "val")
        cfg = TaggerConfig(embed_dim=32, window=window, hidden_dim=64,
                           hash_buckets=buckets, seed=window)
        full = holding_every_row(TaggerModel.init(cfg, scheme))
        for total in (1, 2, 7, 199, 1000):
            seqs, weights, targets = step_batch(rng, tokens, total, scheme.tag_count)
            enc = encode_tokens(seqs, cfg)
            table = StageTable(TaggerModel.init(cfg, scheme), seqs, val)
            for model, e in ((full, enc), (table.model, table.enc)):
                case = f"T={total} rows={model.embed.shape[0]}"
                for got, want, name in zip(forward_flat(model, e.ids, e.flags),
                                           reference_forward_flat(model, e.ids, e.flags),
                                           ("x", "h", "probs")):
                    assert_same_bits(got, want, f"{case} {name}")
                loss, grads = flat_loss_and_grads(model, e.ids, e.flags, targets, weights)
                ref_loss, ref = reference_loss_and_grads(model, e.ids, e.flags, targets, weights)
                assert loss.hex() == ref_loss.hex(), case
                assert np.array_equal(grads.embed_ids, ref.embed_ids), case
                assert grads.embed_ids.dtype == ref.embed_ids.dtype, case
                for name in ("w1", "b1", "w2", "b2", "embed_rows"):
                    assert_same_bits(getattr(grads, name), getattr(ref, name), f"{case} {name}")
                stepped, ref_stepped = model.copy(), model.copy()
                sgd_step(stepped, grads, 0.05)
                reference_sgd_step(ref_stepped, ref, 0.05)
                for name, arr in stepped.params().items():
                    assert_same_bits(arr, ref_stepped.params()[name], f"{case} step {name}")


class TestValidationF1:
    @pytest.fixture(scope="class")
    def models(self, learnable):
        trn, val = learnable
        out = [TaggerModel.init(small_config(seed=s), val.scheme) for s in range(3)]
        zeroed = TaggerModel.init(small_config(), val.scheme)
        for arr in zeroed.params().values():
            arr[:] = 0.0
        out.append(zeroed)  # predicts O everywhere
        for epochs, lr in ((1, 0.05), (3, 0.3), (8, 0.3)):
            cfg = small_config(max_epochs=epochs, patience=epochs, learning_rate=lr)
            out.append(train(TaggerModel.init(cfg, val.scheme), trn, val)[0])
        return out

    def test_equals_span_f1_over_decode_bio(self, learnable, models):
        _, val = learnable
        val_enc = encode_tokens([s.tokens for s in val.sentences], small_config())
        val_gold = gold_keys(val)[0]
        scores = set()
        for model in models:
            (enc,) = model.positions(val_enc)
            probs = forward_flat(model, enc.ids, enc.flags)[2]
            pred = [decode_bio(np.argmax(probs[a:b], axis=1).tolist(), val.scheme)
                    for a, b in zip(val_enc.offsets[:-1], val_enc.offsets[1:])]
            want = span_f1(pred, val.gold_spans()).f1
            got = validation_f1(model, enc, val_gold, score_workspace(model.config))
            assert got.hex() == want.hex()
            scores.add(got)
        assert len(scores) >= 4  # the models really disagree


class TestBlockedScoring:
    """`score` works in blocks of SCORE_ROWS rows (lowered here to keep the
    cases small) and equals one `forward_flat` over the whole input."""

    B = 16

    @pytest.fixture
    def blocks(self, monkeypatch):
        """The row count of every block `score` computes in this test."""
        monkeypatch.setattr(tagger, "SCORE_ROWS", self.B)
        sizes, real = [], tagger._forward

        def spy(model, x, h=None):
            sizes.append(x.shape[0])
            return real(model, x, h)
        monkeypatch.setattr(tagger, "_forward", spy)
        return sizes

    @pytest.fixture(scope="class")
    def scored(self):
        """A model at the default sizes, a validation set at its positions
        and its gold labels, back to back."""
        val = generate_synthetic(SynthConfig(n_sentences=30, seed=5, name="blocks"))
        model = TaggerModel.init(TaggerConfig(hash_buckets=4096, seed=1), val.scheme)
        (enc,) = model.positions(encode_tokens([s.tokens for s in val.sentences], model.config))
        labels = np.array([l for s in val.sentences for l in s.labels])
        assert enc.ids.shape[0] > 2 * self.B + 1
        return model, enc, labels

    @pytest.mark.parametrize("total", [1, 2, B - 1, B, B + 1, B + 2, 2 * B, 2 * B + 1])
    def test_block_edges_are_bit_identical(self, scored, blocks, total):
        model, enc, labels = scored
        ids, flags = enc.ids[:total], enc.flags[:total]
        want = forward_flat(model, ids, flags)[2]
        blocks.clear()
        work = score_workspace(model.config)
        assert work[0].shape[0] == work[1].shape[0] == self.B + 1
        got = score(model, ids, flags, work)
        assert_same_bits(got, want, f"{total} rows")
        assert sum(blocks) == total
        assert max(blocks) <= self.B + 1
        assert total == 1 or min(blocks) > 1  # a 1-row tail joins the block before it
        offsets = np.append(enc.offsets[enc.offsets < total], total)
        part = EncodedTokens(ids, flags, offsets)
        gold = bio_span_keys(labels[:total], offsets, model.scheme)
        pred = bio_span_keys(np.argmax(want, axis=1), offsets, model.scheme)
        f1 = validation_f1(model, part, gold, work)
        assert f1.hex() == key_scores(pred, gold, model.scheme).f1.hex()


class TestScoringMemory:
    """Scoring holds one block workspace, whatever the number of tokens."""

    @staticmethod
    def bound(config) -> int:
        """Four feature blocks: room for the workspace, the embedding gather
        of one block and the per-token arrays, but not for one (T, input_dim)
        array of a corpus of more than four blocks."""
        return 4 * (tagger.SCORE_ROWS + 1) * config.input_dim * 8

    @pytest.fixture(scope="class")
    def big(self):
        """A corpus of more than four blocks and a model holding its rows."""
        corpus = generate_synthetic(SynthConfig(n_sentences=700, seed=9, name="big"))
        model = TaggerModel.init(TaggerConfig(), corpus.scheme)
        evaluate_model(model, corpus)  # draws the rows and fills the bucket cache first
        tokens = sum(map(len, corpus.sentences))
        assert tokens * model.config.input_dim * 8 > self.bound(model.config)
        return model, corpus

    @staticmethod
    def peak_bytes(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_evaluate_model(self, big):
        model, corpus = big
        assert self.peak_bytes(lambda: evaluate_model(model, corpus)) < self.bound(model.config)

    def test_stage_validation(self, big):
        model, corpus = big

        def validate():
            table = StageTable(model, [], corpus)
            validation_f1(model, table.val_enc, table.val_gold, table.val_work)
        assert self.peak_bytes(validate) < self.bound(model.config)


def unlearnable_splits(scheme):
    """Training data that is all O next to a validation set full of entities."""
    train_sents = [
        Sentence(("the", "sky", "is", "blue"), (0, 0, 0, 0)),
        Sentence(("rain", "fell", "today"), (0, 0, 0)),
    ]
    val_sents = [
        Sentence(("Anna", "met", "Bob"),
                 (scheme.b_index("PER"), 0, scheme.b_index("PER"))),
    ]
    return Corpus(train_sents, scheme, "toy-train"), Corpus(val_sents, scheme, "toy-val")


@pytest.fixture(scope="module")
def learnable():
    trn = generate_synthetic(SynthConfig(n_sentences=120, seed=11, name="train-small"))
    val = generate_synthetic(SynthConfig(n_sentences=60, seed=12, name="val-small"))
    return trn, val


class TestTrain:
    def test_learns_above_baseline(self, scheme, learnable):
        trn, val = learnable
        cfg = TaggerConfig(embed_dim=16, window=1, hidden_dim=24,
                           hash_buckets=4096, learning_rate=0.3,
                           max_epochs=30, patience=30, seed=0)
        model, trace = train(TaggerModel.init(cfg, scheme), trn, val)
        assert trace.val_f1[trace.best_iteration] > trace.val_f1[0] + 0.3
        assert evaluate_model(model, val).f1 == pytest.approx(trace.best_f1)

    def test_report_invariants(self, scheme, learnable):
        trn, val = learnable
        cfg = TaggerConfig(embed_dim=8, window=1, hidden_dim=12,
                           hash_buckets=1024, max_epochs=6, patience=2, seed=1)
        _, trace = train(TaggerModel.init(cfg, scheme), trn, val)
        assert trace.stage == "ner_fit"
        assert len(trace.val_f1) == len(trace.losses) + 1  # iteration 0: the start
        assert 0 < len(trace.losses) <= cfg.max_epochs
        assert 0 <= trace.best_iteration < len(trace.val_f1)
        assert trace.best_epoch == trace.best_iteration - 1
        assert trace.best_f1 == max(trace.val_f1)
        assert trace.refresh_epochs == []
        # patience counts the epochs since the selected one
        assert trace.stopped_early == (len(trace.losses) - trace.best_iteration
                                       >= cfg.patience)

    def test_deterministic(self, scheme, learnable):
        trn, val = learnable
        cfg = TaggerConfig(embed_dim=8, window=1, hidden_dim=12,
                           hash_buckets=1024, max_epochs=3, patience=3, seed=4)
        a, _ = train(TaggerModel.init(cfg, scheme), trn, val)
        b, _ = train(TaggerModel.init(cfg, scheme), trn, val)
        for name, arr in full_params(a).items():
            np.testing.assert_array_equal(arr, full_params(b)[name])

    def test_patience_stops_unlearnable_run(self, scheme):
        trn, val = unlearnable_splits(scheme)
        cfg = small_config(max_epochs=50, patience=1)
        _, trace = train(TaggerModel.init(cfg, scheme), trn, val)
        assert trace.stopped_early
        assert len(trace.losses) <= 2

    def test_no_improvement_restores_initial_parameters(self, scheme):
        trn, val = unlearnable_splits(scheme)
        cfg = small_config(max_epochs=4, patience=2)
        init = TaggerModel.init(cfg, scheme)
        frozen = init.copy()
        model, trace = train(init, trn, val)
        assert trace.best_iteration == 0
        assert trace.best_epoch == -1
        assert trace.best_f1 == trace.val_f1[0]
        for name, arr in full_params(model).items():
            np.testing.assert_array_equal(arr, full_params(frozen)[name])

    def test_soft_one_hots_match_hard_training(self, scheme, learnable):
        trn, val = learnable
        subset = Corpus(trn.sentences[:40], scheme, "subset")
        soft = SoftDataset(
            subset.sentences,
            one_hot_rows([l for s in subset.sentences for l in s.labels], scheme.tag_count),
            scheme)
        cfg = TaggerConfig(embed_dim=8, window=1, hidden_dim=12,
                           hash_buckets=1024, max_epochs=3, patience=3, seed=2)
        hard_model, _ = train(TaggerModel.init(cfg, scheme), subset, val)
        soft_model, _ = train(TaggerModel.init(cfg, scheme), soft, val)
        for name, arr in full_params(hard_model).items():
            np.testing.assert_array_equal(arr, full_params(soft_model)[name])

    def test_empty_data_rejected(self, scheme):
        _, val = unlearnable_splits(scheme)
        cfg = small_config()
        with pytest.raises(ValueError, match="empty"):
            train(TaggerModel.init(cfg, scheme), Corpus((), scheme, "empty"), val)

    def test_unlabelled_corpus_rejected(self, scheme):
        trn, val = unlearnable_splits(scheme)
        bare = Corpus([Sentence(s.tokens) for s in trn.sentences], scheme, "bare")
        cfg = small_config()
        with pytest.raises(ValueError, match="hard labels"):
            train(TaggerModel.init(cfg, scheme), bare, val)

    def test_scheme_mismatch_rejected(self, scheme):
        other = LabelScheme(("PER",))
        sent = Sentence(("Anna",), (other.b_index("PER"),))
        soft = SoftDataset((sent,), np.eye(other.tag_count)[:1], other)
        trn, val = unlearnable_splits(scheme)
        cfg = small_config()
        with pytest.raises(ValueError, match="scheme"):
            train(TaggerModel.init(cfg, scheme), soft, val)


def stage_buckets(train_seqs, val, config) -> np.ndarray:
    """Sorted unique bucket ids of a stage's training and validation tokens."""
    seqs = [*train_seqs, *(s.tokens for s in val.sentences)]
    return np.unique(encode_tokens(seqs, config).ids)


class TestStageTable:
    def test_compact_rows_and_remapped_ids(self, scheme, learnable):
        trn, val = learnable
        cfg = small_config(hash_buckets=4096)
        model = TaggerModel.init(cfg, scheme)
        full = full_params(model)["embed"]
        enc = encode_tokens([s.tokens for s in trn.sentences], cfg)
        table = StageTable(model, [s.tokens for s in trn.sentences], val)
        assert table.model is model
        np.testing.assert_array_equal(
            model.rows, stage_buckets([s.tokens for s in trn.sentences], val, cfg))
        assert model.rows.size < cfg.hash_buckets
        np.testing.assert_array_equal(model.rows[table.enc.ids], enc.ids)
        val_enc = encode_tokens([s.tokens for s in val.sentences], cfg)
        np.testing.assert_array_equal(model.rows[table.val_enc.ids], val_enc.ids)
        np.testing.assert_array_equal(model.embed, full[model.rows])
        np.testing.assert_array_equal(full_params(model)["embed"], full)

    def test_rows_outside_the_stage_keep_their_bits(self, scheme, learnable):
        trn, val = learnable
        cfg = TaggerConfig(embed_dim=8, window=1, hidden_dim=12, hash_buckets=4096,
                           learning_rate=0.3, max_epochs=4, patience=4, seed=0)
        start = TaggerModel.init(cfg, scheme)
        model, trace = train(start.copy(), trn, val)
        assert trace.best_iteration > 0
        inside = stage_buckets([s.tokens for s in trn.sentences], val, cfg)
        outside = np.setdiff1d(np.arange(cfg.hash_buckets), inside)
        assert outside.size
        got, was = full_params(model)["embed"], full_params(start)["embed"]
        np.testing.assert_array_equal(got[outside].view(np.int64), was[outside].view(np.int64))
        assert not np.array_equal(got[inside], was[inside])


class TestSoftDataset:
    def test_length_mismatch(self, scheme, make_sentence):
        with pytest.raises(ValueError, match="shape"):
            SoftDataset((make_sentence("a b"),), np.zeros((0, scheme.tag_count)), scheme)

    def test_shape_mismatch(self, scheme, make_sentence):
        bad = np.ones((3, scheme.tag_count)) / scheme.tag_count
        with pytest.raises(ValueError, match="shape"):
            SoftDataset((make_sentence("a b"),), bad, scheme)

    def test_rows_must_be_distributions(self, scheme, make_sentence):
        bad = np.full((2, scheme.tag_count), 0.5)
        with pytest.raises(ValueError, match="distributions"):
            SoftDataset((make_sentence("a b"),), bad, scheme)
        with pytest.raises(ValueError, match="distributions"):  # NaN fails every check
            SoftDataset((make_sentence("a b"),), bad * np.nan, scheme)

    def test_negative_mass_rejected(self, scheme, make_sentence):
        bad = np.zeros((1, scheme.tag_count))
        bad[0, 0] = 1.5
        bad[0, 1] = -0.5
        with pytest.raises(ValueError, match="distributions"):
            SoftDataset((make_sentence("a"),), bad, scheme)

    def test_rows_cover_every_sentence(self, scheme, make_sentence):
        rows = np.eye(scheme.tag_count)[:3]
        sentences = (make_sentence("a b"), make_sentence("c"))
        assert len(SoftDataset(sentences, rows, scheme)) == 2
        with pytest.raises(ValueError, match="shape"):
            SoftDataset(sentences + (make_sentence("d"),), rows, scheme)
        with pytest.raises(ValueError, match="distributions"):
            SoftDataset(sentences, np.concatenate([rows[:2], rows[2:] * 0.5]), scheme)

    def test_no_sentences(self, scheme):
        assert len(SoftDataset((), np.zeros((0, scheme.tag_count)), scheme)) == 0


class TestReportCsv:
    def test_write_csv_roundtrips_floats(self, tmp_path):
        f1s = [0.05, 0.1, 1 / 3]
        trace = StageTrace("ner_fit", f1s, best_iteration=2, losses=[0.5, 0.25])
        path = tmp_path / "curve.csv"
        trace.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "stage,iteration,val_f1,teacher_refresh"
        assert lines[1] == "ner_fit,0,0.05,0"
        assert len(lines) == 4
        assert [float(line.split(",")[2]) for line in lines[1:]] == f1s
        assert trace.best_f1 == 1 / 3
        assert trace.best_epoch == 1


def model_holding_rows(scheme, make_sentence, seed=9):
    """An initial model holding the rows of one sentence, and that sentence."""
    model = TaggerModel.init(small_config(seed=seed), scheme)
    sent = make_sentence("Anna met Bob in Paris")
    distributions(model, sent)
    assert model.rows.size
    return model, sent


class TestCheckpoint:
    def test_roundtrip(self, scheme, make_sentence, tmp_path):
        model, sent = model_holding_rows(scheme, make_sentence)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.scheme.categories == model.scheme.categories
        assert loaded.rows.dtype == model.rows.dtype
        np.testing.assert_array_equal(loaded.rows, model.rows)  # the held rows only
        for name, arr in model.params().items():
            np.testing.assert_array_equal(arr.view(np.int64), loaded.params()[name].view(np.int64))
        unseen = make_sentence("Omar flew to Lima")  # rows drawn on demand after loading
        for s in (sent, unseen):
            np.testing.assert_array_equal(distributions(model, s), distributions(loaded, s))

    def test_loads_a_config_echo_with_the_retired_plateau_field(self, scheme, make_sentence,
                                                                tmp_path):
        # v1 checkpoints written before the field was removed still carry it
        model, _ = model_holding_rows(scheme, make_sentence)
        old = str(tmp_path / "old.npz")
        save_v1_checkpoint(model, old, halve_on_plateau=False)
        with np.load(old) as z:
            assert str(z["magic"]) == "partialner.tagger.v1" and "rows" not in z.files
            assert json.loads(str(z["config"]))["halve_on_plateau"] is False
        loaded = load_checkpoint(old)
        assert loaded.config == model.config
        np.testing.assert_array_equal(loaded.rows, np.arange(model.config.hash_buckets))
        for name, arr in full_params(model).items():
            np.testing.assert_array_equal(arr, loaded.params()[name])

    def test_rejects_foreign_npz(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault,message", [
        ("unsorted", "rows are not increasing"),
        ("duplicate", "rows are not increasing"),
        ("negative", "rows are not increasing"),
        ("out_of_range", "rows are not increasing"),
        ("float_rows", "rows are not increasing"),
        ("embed_shape", "embed shape"),
    ])
    def test_rejects_rows_that_positions_cannot_bisect(self, scheme, make_sentence, tmp_path,
                                                       fault, message):
        """Each fault keeps `rows` and `embed` paired up, so only its own check sees it."""
        model, _ = model_holding_rows(scheme, make_sentence)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        rows, embed = arrays["rows"], arrays["embed"]
        assert rows[0] > 0 and rows[-1] < model.config.hash_buckets - 1
        arrays["rows"], arrays["embed"] = {
            "unsorted": (rows[::-1], embed[::-1]),
            "duplicate": (rows[[0, *range(rows.size)]], embed[[0, *range(rows.size)]]),
            "negative": (rows - rows[0] - 1, embed),
            "out_of_range": (rows - rows[-1] + model.config.hash_buckets, embed),
            "float_rows": (rows.astype(np.float64), embed),
            "embed_shape": (rows, embed[:-1]),
        }[fault]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault,message", [
        ("float32_embed", "embed dtype float32, want float64"),
        ("float32_w1", "w1 dtype float32, want float64"),
        ("transposed_w1", r"w1 shape \(8, 24\), want \(24, 8\)"),
        ("short_b2", r"b2 shape \(6,\), want \(7,\)"),
    ])
    def test_rejects_parameters_the_model_cannot_use(self, scheme, make_sentence, tmp_path,
                                                     fault, message):
        """A parameter of another dtype or shape would load and score silently."""
        model, _ = model_holding_rows(scheme, make_sentence)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        name, arr = {
            "float32_embed": ("embed", arrays["embed"].astype(np.float32)),
            "float32_w1": ("w1", arrays["w1"].astype(np.float32)),
            "transposed_w1": ("w1", arrays["w1"].T),
            "short_b2": ("b2", arrays["b2"][:-1]),
        }[fault]
        arrays[name] = arr
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)
