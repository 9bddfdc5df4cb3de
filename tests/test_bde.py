"""Tests for cross-fit soft-target estimation and its audit trail."""

import copy
import re
import struct
from dataclasses import fields, replace

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialner import bde, selftrain
from partialner.annotation import mask_entities, one_hot_rows, partial_from_labels
from partialner.bde import (
    BdeConfig,
    LineageRecord,
    estimate_base,
    load_soft,
    partition,
    run_bde,
    save_soft,
    train_on_base,
)
from partialner.corpus import Corpus, LabelScheme, Sentence, SynthConfig, generate_synthetic
from partialner.evaluation import evaluate_model
from partialner.rng import derive_seed
from partialner.selftrain import RunOutput, SelfTrainConfig, run_method
from partialner.tagger import SoftDataset, TaggerConfig


def fast_selftrain(seed=0) -> SelfTrainConfig:
    tcfg = TaggerConfig(embed_dim=8, window=1, hidden_dim=12, hash_buckets=1024,
                        learning_rate=0.3, max_epochs=6, patience=6, seed=seed)
    return SelfTrainConfig(tagger=tcfg, self_train_epochs=2)


@pytest.fixture(scope="module")
def splits():
    trn = generate_synthetic(SynthConfig(n_sentences=100, seed=31, name="bde-train"))
    val = generate_synthetic(SynthConfig(n_sentences=50, seed=32, name="bde-val"))
    return trn, val


@pytest.fixture(scope="module")
def masked(splits):
    trn, _ = splits
    partial, kept = mask_entities(trn, 0.2, seed=9)
    assert kept
    return partial


@pytest.fixture(scope="module")
def small_run(splits, masked, tmp_path_factory):
    """A default run, and the soft targets and lineage record it wrote."""
    _, val = splits
    root = tmp_path_factory.mktemp("small_run")
    soft_path, lineage_path = str(root / "soft.bin"), str(root / "lineage.csv")
    out = run_bde(masked, val, BdeConfig(selftrain=fast_selftrain()),
                  soft_path=soft_path, lineage_path=lineage_path)
    return SimpleNamespace(out=out, soft=load_soft(soft_path, masked, val.scheme),
                           lineage=LineageRecord.read_csv(lineage_path))


n_and_k_st = st.integers(2, 200).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(2, min(n, 10))))


class TestPartition:
    """The fold plan is the lineage record: fold i trains on its complement."""

    def test_balanced_and_covering(self):
        part = partition(10, 3, seed=0)
        assert sorted(map(len, part.fold_scored_ids)) == [3, 3, 4]
        assert sorted(sum(part.fold_scored_ids, [])) == list(range(10))

    def test_fold_complement_partition_ids(self):
        part = partition(9, 2, seed=3)
        for train_ids, scored_ids in zip(part.fold_train_ids, part.fold_scored_ids):
            assert sorted(scored_ids + train_ids) == list(range(9))
            assert not set(scored_ids) & set(train_ids)

    def test_deterministic_in_seed(self):
        assert partition(20, 4, seed=5) == partition(20, 4, seed=5)
        assert partition(20, 4, seed=5) != partition(20, 4, seed=6)

    @settings(deadline=None, max_examples=150)
    @given(n_and_k_st, st.integers(0, 2**64 - 1))
    def test_every_partition_is_a_verified_record(self, n_and_k, seed):
        n, k = n_and_k
        part = partition(n, k, seed)
        part.verify()
        assert len(part.fold_scored_ids) == len(part.fold_train_ids) == k
        sizes = [len(ids) for ids in part.fold_scored_ids]
        assert max(sizes) - min(sizes) <= 1
        for i, (train_ids, scored_ids) in enumerate(
                zip(part.fold_train_ids, part.fold_scored_ids)):
            assert train_ids == [s for s in range(n) if s not in set(scored_ids)]
            assert scored_ids == [s for s in range(n) if part.sentence_fold[s] == i]
        assert partition(n, k, seed) == part

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            partition(10, 1, seed=0)
        with pytest.raises(ValueError):
            partition(3, 4, seed=0)


class TestBdeConfig:
    def test_defaults(self):
        cfg = BdeConfig()
        assert cfg.k == 2
        assert cfg.inner_method == "guided_bond"
        assert cfg.final_method == "supervised"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BdeConfig(k=1)
        with pytest.raises(ValueError, match="k must be int, got 3.0"):
            BdeConfig(k=3.0)
        with pytest.raises(ValueError, match="inner"):
            BdeConfig(inner_method="distill")
        with pytest.raises(ValueError, match="final"):
            BdeConfig(final_method="bond")

    def test_seed_is_the_model_seed(self):
        assert "seed" not in {f.name for f in fields(BdeConfig)}
        assert BdeConfig(selftrain=fast_selftrain(7)).seed == 7


def good_lineage():
    return LineageRecord(fold_train_ids=[[2, 3], [0, 1]],
                         fold_scored_ids=[[0, 1], [2, 3]],
                         sentence_fold=[0, 0, 1, 1])


class TestLineage:
    def test_consistent_record_verifies(self):
        good_lineage().verify()

    def test_scoring_a_training_sentence_is_caught(self):
        rec = good_lineage()
        rec.fold_scored_ids[0] = [0, 2]
        rec.sentence_fold[2] = 0
        with pytest.raises(AssertionError, match="trained on"):
            rec.verify()

    def test_wrong_fold_attribution_is_caught(self):
        rec = good_lineage()
        rec.sentence_fold[1] = 1
        with pytest.raises(AssertionError, match="recorded under"):
            rec.verify()

    def test_double_scoring_is_caught(self):
        rec = good_lineage()
        rec.fold_train_ids[1] = [1]
        rec.fold_scored_ids[1] = [0, 2, 3]
        with pytest.raises(AssertionError, match="re-scored"):
            rec.verify()

    def test_missing_sentence_is_caught(self):
        rec = good_lineage()
        rec.fold_scored_ids[1] = [2]
        with pytest.raises(AssertionError, match="exactly once"):
            rec.verify()

    def test_csv_roundtrip(self, tmp_path):
        rec = good_lineage()
        path = str(tmp_path / "lineage.csv")
        rec.write_csv(path)
        back = LineageRecord.read_csv(path)
        assert back == rec
        back.verify()


class TestSoftIO:
    def test_roundtrip_is_bitwise(self, splits, masked, tmp_path):
        _, val = splits
        soft, _ = estimate_base(masked, val, BdeConfig(selftrain=fast_selftrain()))
        path = str(tmp_path / "soft.bin")
        save_soft(soft, path)
        back = load_soft(path, masked, val.scheme)
        assert back.sentences == soft.sentences
        np.testing.assert_array_equal(back.rows.view(np.int64), soft.rows.view(np.int64))

    def test_rejects_foreign_file(self, splits, masked, tmp_path):
        _, val = splits
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTSOFT!" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a"):
            load_soft(str(path), masked, val.scheme)

    def test_rejects_corpus_mismatch(self, splits, masked, tmp_path, small_run):
        _, val = splits
        path = str(tmp_path / "soft.bin")
        save_soft(small_run.soft, path)
        with pytest.raises(ValueError, match="sentences"):
            load_soft(path, masked[:-1], val.scheme)

    # file header: magic (8) + version, tags, count (12); sentence header: 8
    @pytest.mark.parametrize("cut", [14, 24, 28 + 12, -1],
                             ids=["file-header", "sentence-header", "row", "last-byte"])
    def test_rejects_truncated_file(self, splits, masked, tmp_path, small_run, cut):
        _, val = splits
        path = tmp_path / "soft.bin"
        save_soft(small_run.soft, str(path))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated")):
            load_soft(str(path), masked, val.scheme)

    def test_rejects_nan_rows(self, splits, masked, tmp_path, small_run):
        _, val = splits
        path = tmp_path / "soft.bin"
        save_soft(small_run.soft, str(path))
        data = bytearray(path.read_bytes())
        row = 28  # the first sentence's first row, after both headers
        data[row:row + 8 * val.scheme.tag_count] = np.full(
            val.scheme.tag_count, np.nan).astype("<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="not distributions"):
            load_soft(str(path), masked, val.scheme)

    def test_rejects_trailing_bytes(self, splits, masked, tmp_path, small_run):
        _, val = splits
        path = tmp_path / "soft.bin"
        save_soft(small_run.soft, str(path))
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(ValueError, match=re.escape(f"{path}: bytes left")):
            load_soft(str(path), masked, val.scheme)


class TestSoftHeaders:
    """`load_soft` checks each header field against the corpus it pairs with."""

    # magic (8), then u32 version, tag count, sentence count; per sentence a
    # u32 id and length, then its rows
    @pytest.mark.parametrize("offset,value,message", [
        (8, 2, "unsupported version 2"),
        (20, 1, "sentence id 1 out of order"),
        (24, 7, "sentence 0 length 7 != 6"),
    ], ids=["version", "sentence-id", "sentence-length"])
    def test_rejects_a_header_field(self, tiny_corpus, tmp_path, offset, value, message):
        partial = partial_from_labels(tiny_corpus)
        path = tmp_path / "soft.bin"
        save_soft(hard_soft(partial, tiny_corpus.scheme), str(path))
        data = bytearray(path.read_bytes())
        data[offset:offset + 4] = struct.pack("<I", value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_soft(str(path), partial, tiny_corpus.scheme)

    def test_rejects_another_tag_count(self, tiny_corpus, tmp_path):
        partial = partial_from_labels(tiny_corpus)
        path = str(tmp_path / "soft.bin")
        save_soft(hard_soft(partial, tiny_corpus.scheme), path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: 7 tags, scheme has 3")):
            load_soft(path, partial, LabelScheme(("PER",)))


def hard_soft(partial, scheme) -> SoftDataset:
    """One-hot soft targets of the partial labels."""
    return SoftDataset(tuple(p.sentence for p in partial),
                       one_hot_rows([l for p in partial for l in p.labels], scheme.tag_count),
                       scheme)


class TestEstimateBase:
    def test_soft_targets_come_from_the_other_folds(self, splits, masked):
        """Re-derive fold 0's scoring model independently and compare rows."""
        _, val = splits
        config = BdeConfig(selftrain=fast_selftrain())
        soft, lineage = estimate_base(masked, val, config)
        train_ids = lineage.fold_train_ids[0]
        scored_ids = lineage.fold_scored_ids[0]
        inner_cfg = replace(
            config.selftrain,
            tagger=replace(config.selftrain.tagger,
                           seed=derive_seed(config.seed, 1, 0)))
        out = run_method(config.inner_method, [masked[s] for s in train_ids],
                         val, inner_cfg)
        redone = out.model.sequence_distributions(
            [masked[s].tokens for s in scored_ids])
        offsets = np.cumsum([0, *map(len, masked)])
        for s, d in zip(scored_ids, redone):
            np.testing.assert_array_equal(soft.rows[offsets[s]:offsets[s + 1]], d)

    def test_the_model_seed_drives_the_estimate(self, splits, masked):
        _, val = splits
        first, second = (estimate_base(masked, val, BdeConfig(
            inner_method="supervised", selftrain=fast_selftrain(seed)))[0] for seed in (0, 7))
        assert not np.array_equal(first.rows, second.rows)

    def test_every_sentence_scored_once(self, splits, masked, small_run):
        small_run.lineage.verify()
        assert small_run.soft.sentences == tuple(p.sentence for p in masked)
        assert small_run.soft.rows.shape == (sum(map(len, masked)),
                                             splits[1].scheme.tag_count)

    def test_folds_produce_distinct_models(self, small_run):
        a = small_run.lineage.fold_scored_ids[0][0]
        b = small_run.lineage.fold_scored_ids[1][0]
        assert small_run.lineage.sentence_fold[a] != small_run.lineage.sentence_fold[b]


class TestRunBde:
    def test_output_shape_and_consistency(self, splits, small_run):
        _, val = splits
        out = small_run.out
        assert isinstance(out, RunOutput)
        assert [t.stage for t in out.traces] == ["ner_fit"]
        assert evaluate_model(out.model, val).f1 == pytest.approx(out.val_f1)

    def test_guided_final_stage(self, splits, masked):
        _, val = splits
        out = run_bde(masked, val, BdeConfig(final_method="guided_bond",
                                             selftrain=fast_selftrain()))
        assert [t.stage for t in out.traces] == ["ner_fit", "self_train"]
        assert evaluate_model(out.model, val).f1 == pytest.approx(out.val_f1)

    def test_deterministic(self, splits, masked, small_run):
        _, val = splits
        again = run_bde(masked, val, BdeConfig(selftrain=fast_selftrain()))
        assert again.val_f1 == small_run.out.val_f1
        for name, arr in again.model.params().items():
            np.testing.assert_array_equal(arr, small_run.out.model.params()[name])

    def test_artifact_files(self, splits, masked, tmp_path, estimate_spy):
        _, val = splits
        config = BdeConfig(selftrain=fast_selftrain())
        soft, lineage = estimate_base(masked, val, config)
        soft_path = str(tmp_path / "soft.bin")
        lineage_path = str(tmp_path / "lineage.csv")
        run_bde(masked, val, config, soft_path=soft_path, lineage_path=lineage_path)
        assert len(estimate_spy) == 2  # the same final method asks again: recomputed
        back = LineageRecord.read_csv(lineage_path)
        assert back == lineage
        back.verify()
        loaded = load_soft(soft_path, masked, val.scheme)
        np.testing.assert_array_equal(loaded.rows.view(np.int64), soft.rows.view(np.int64))

    def test_final_stage_is_run_method_on_the_soft_targets(self, splits, masked):
        _, val = splits
        config = BdeConfig(final_method="guided_bond", selftrain=fast_selftrain())
        soft, _ = estimate_base(masked, val, config)
        cfg = replace(config.selftrain, tagger=replace(config.selftrain.tagger,
                                                       seed=derive_seed(config.seed, 2)))
        want = run_method("guided_bond", masked, val, cfg, soft)
        got = train_on_base(masked, soft, val, config)
        assert got.val_f1 == want.val_f1
        assert [t.val_f1 for t in got.traces] == [t.val_f1 for t in want.traces]
        for name, arr in got.model.params().items():
            np.testing.assert_array_equal(arr, want.model.params()[name])


class TestTrainOnBase:
    def test_unbeaten_baseline_reports_the_restored_model(self, scheme):
        """All-O soft targets never beat the random baseline; the reported F1
        must describe the restored initial parameters, not the last epoch."""
        c = scheme.tag_count
        sentences = tuple(Sentence(("filler", "words", "here"), (0, 0, 0))
                          for _ in range(8))
        rows = np.zeros((3, c))
        rows[:, 0] = 1.0
        soft = SoftDataset(sentences, np.concatenate([rows] * len(sentences)), scheme)
        partial = partial_from_labels(Corpus(sentences, scheme, "all-o"))
        val = Corpus((Sentence(("Anna", "met", "Bob"),
                               (scheme.b_index("PER"), 0, scheme.b_index("PER"))),),
                     scheme, "val")
        cfg = BdeConfig(selftrain=fast_selftrain())
        out = train_on_base(partial, soft, val, cfg)
        assert out.val_f1 == pytest.approx(evaluate_model(out.model, val).f1)
        assert out.traces[0].val_f1[out.traces[0].best_iteration] == pytest.approx(out.val_f1)


def snapshot(out: RunOutput, soft_path: str, lineage_path: str) -> dict:
    """Every output of a run as exact bits."""
    with open(soft_path, "rb") as fh:
        soft_bin = fh.read()
    with open(lineage_path, encoding="utf-8") as fh:
        lineage_csv = fh.read()
    return {"soft": soft_bin,
            "lineage": lineage_csv,
            "params": {k: v.view(np.int64).copy() for k, v in out.model.params().items()},
            "val_f1": out.val_f1.hex(),
            "traces": [(t.stage, [f.hex() for f in t.val_f1], t.best_iteration)
                       for t in out.traces]}


def assert_same_bits(a: dict, b: dict) -> None:
    assert a["params"].keys() == b["params"].keys()
    for name in a["params"]:
        np.testing.assert_array_equal(a["params"][name], b["params"][name])
    for key in ("soft", "lineage", "val_f1", "traces"):
        assert a[key] == b[key], key


class TestEstimateHandover:
    """The stage memo hands a cross-fit estimate to the other final method."""

    FINALS = ("supervised", "guided_bond")

    def run(self, masked, val, final, path):
        soft_path, lineage_path = f"{path}_soft.bin", f"{path}_lineage.csv"
        out = run_bde(masked, val, BdeConfig(final_method=final,
                                             selftrain=fast_selftrain()),
                      soft_path=soft_path, lineage_path=lineage_path)
        return snapshot(out, soft_path, lineage_path)

    def test_pair_equals_two_fresh_runs(self, splits, masked, tmp_path,
                                        estimate_spy, monkeypatch):
        _, val = splits
        fresh = {}
        for final in self.FINALS:
            monkeypatch.setattr(selftrain, "memo", selftrain.StageMemo())
            fresh[final] = self.run(masked, val, final, str(tmp_path / f"fresh_{final}"))
        assert len(estimate_spy) == 2
        monkeypatch.setattr(selftrain, "memo", selftrain.StageMemo())
        first_bits = self.run(masked, val, "supervised", str(tmp_path / "a"))
        second_bits = self.run(masked, val, "guided_bond", str(tmp_path / "b"))
        assert len(estimate_spy) == 3
        assert_same_bits(first_bits, fresh["supervised"])
        assert_same_bits(second_bits, fresh["guided_bond"])

    def test_held_estimate_is_a_private_copy(self, splits, masked, tmp_path,
                                             estimate_spy):
        _, val = splits
        config = BdeConfig(selftrain=fast_selftrain())
        soft, lineage = estimate_base(masked, val, config)
        want_rows, want_lineage = soft.rows.copy(), copy.deepcopy(lineage)
        soft.rows.fill(0.5)
        lineage.sentence_fold.reverse()
        soft_path, lineage_path = str(tmp_path / "soft.bin"), str(tmp_path / "lineage.csv")
        run_bde(masked, val, replace(config, final_method="guided_bond"),
                soft_path=soft_path, lineage_path=lineage_path)
        assert len(estimate_spy) == 1
        assert LineageRecord.read_csv(lineage_path) == want_lineage
        np.testing.assert_array_equal(load_soft(soft_path, masked, val.scheme).rows, want_rows)

    def test_handed_over_once_and_verified(self, splits, masked, estimate_spy,
                                           monkeypatch):
        _, val = splits
        verified = []
        real_verify = LineageRecord.verify
        monkeypatch.setattr(LineageRecord, "verify",
                            lambda self: verified.append(1) or real_verify(self))
        config = BdeConfig(selftrain=fast_selftrain())
        estimate_base(masked, val, config)
        assert (len(estimate_spy), len(verified)) == (1, 1)
        estimate_base(masked, val, replace(config, final_method="guided_bond"))
        assert (len(estimate_spy), len(verified)) == (1, 2)
        estimate_base(masked, val, replace(config, final_method="guided_bond"))
        assert (len(estimate_spy), len(verified)) == (2, 3)

    def test_kept_across_seeds_when_cells_run_method_by_method(self, splits, masked,
                                                                 estimate_spy):
        _, val = splits
        for final in self.FINALS:  # every seed of one final, then of the other
            for seed in (0, 1):
                run_bde(masked, val, BdeConfig(final_method=final,
                                               selftrain=fast_selftrain(seed)))
        assert len(estimate_spy) == 2

    @pytest.mark.parametrize("change", ["seed", "k", "inner", "selftrain",
                                        "partial", "val"])
    def test_any_other_input_misses(self, splits, masked, estimate_spy, change):
        trn, val = splits
        config = BdeConfig(inner_method="supervised", selftrain=fast_selftrain())
        estimate_base(masked, val, config)
        other_partial, other_val = masked, val
        if change == "seed":
            config = replace(config, selftrain=fast_selftrain(1))
        elif change == "k":
            config = replace(config, k=3)
        elif change == "inner":
            config = replace(config, inner_method="bond")
        elif change == "selftrain":
            config = replace(config, selftrain=replace(config.selftrain,
                                                       self_train_epochs=3))
        elif change == "partial":
            other_partial = mask_entities(trn, 0.2, seed=10)[0]
            assert len(other_partial) == len(masked) and other_partial != masked
        else:
            other_val = Corpus(val.sentences[::-1], val.scheme, val.name)
        estimate_base(other_partial, other_val, config)
        assert len(estimate_spy) == 2
