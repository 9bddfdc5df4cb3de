"""Tests for cross-fit soft-target estimation and its audit trail."""

from dataclasses import replace

import numpy as np
import pytest

from partialner import bde
from partialner.annotation import mask_entities
from partialner.bde import (
    BdeConfig,
    BdeOutput,
    FoldPartition,
    LineageRecord,
    estimate_base,
    load_soft,
    partition,
    run_bde,
    save_soft,
    train_on_base,
)
from partialner.corpus import Corpus, Sentence, SynthConfig, generate_synthetic
from partialner.evaluation import evaluate_model
from partialner.rng import derive_seed
from partialner.selftrain import SelfTrainConfig, run_method
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
def small_run(splits, masked):
    _, val = splits
    return run_bde(masked, val, BdeConfig(selftrain=fast_selftrain()))


class TestPartition:
    def test_balanced_and_covering(self):
        part = partition(10, 3, seed=0)
        sizes = [len(part.fold(i)) for i in range(3)]
        assert sorted(sizes) == [3, 3, 4]
        assert sorted(sum((part.fold(i) for i in range(3)), [])) == list(range(10))

    def test_fold_complement_partition_ids(self):
        part = partition(9, 2, seed=3)
        for i in range(2):
            assert sorted(part.fold(i) + part.complement(i)) == list(range(9))
            assert not set(part.fold(i)) & set(part.complement(i))

    def test_deterministic_in_seed(self):
        assert partition(20, 4, seed=5) == partition(20, 4, seed=5)
        assert partition(20, 4, seed=5) != partition(20, 4, seed=6)

    def test_accepts_corpus_or_count(self, tiny_corpus):
        by_corpus = partition(tiny_corpus, 2, seed=1)
        by_count = partition(len(tiny_corpus), 2, seed=1)
        assert by_corpus == by_count

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
        with pytest.raises(ValueError, match="inner"):
            BdeConfig(inner_method="distill")
        with pytest.raises(ValueError, match="final"):
            BdeConfig(final_method="bond")


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
    def test_roundtrip_is_bitwise(self, splits, masked, tmp_path, small_run):
        _, val = splits
        path = str(tmp_path / "soft.bin")
        save_soft(small_run.soft, path)
        back = load_soft(path, masked, val.scheme)
        assert len(back) == len(small_run.soft)
        for a, b in zip(back.dists, small_run.soft.dists):
            np.testing.assert_array_equal(a, b)
        assert back.known == small_run.soft.known

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
        for s, d in zip(scored_ids, redone):
            np.testing.assert_array_equal(soft.dists[s], d)

    def test_every_sentence_scored_once(self, splits, masked, small_run):
        small_run.lineage.verify()
        assert len(small_run.soft) == len(masked)
        for p, d in zip(masked, small_run.soft.dists):
            assert d.shape[0] == len(p)

    def test_folds_produce_distinct_models(self, small_run):
        # two disjoint training halves should not emit identical rows
        a = small_run.lineage.fold_scored_ids[0][0]
        b = small_run.lineage.fold_scored_ids[1][0]
        assert small_run.soft.dists[a].shape[1] == small_run.soft.dists[b].shape[1]
        assert small_run.lineage.sentence_fold[a] != small_run.lineage.sentence_fold[b]


class TestRunBde:
    def test_output_shape_and_consistency(self, splits, small_run):
        _, val = splits
        assert isinstance(small_run, BdeOutput)
        assert [t.stage for t in small_run.traces] == ["ner_fit"]
        assert evaluate_model(small_run.model, val).f1 == pytest.approx(small_run.val_f1)

    def test_guided_final_stage(self, splits, masked):
        _, val = splits
        out = run_bde(masked, val, BdeConfig(final_method="guided_bond",
                                             selftrain=fast_selftrain()))
        assert [t.stage for t in out.traces] == ["ner_fit", "self_train"]
        assert evaluate_model(out.model, val).f1 == pytest.approx(out.val_f1)

    def test_deterministic(self, splits, masked, small_run):
        _, val = splits
        again = run_bde(masked, val, BdeConfig(selftrain=fast_selftrain()))
        assert again.val_f1 == small_run.val_f1
        for name, arr in again.model.params().items():
            np.testing.assert_array_equal(arr, small_run.model.params()[name])

    def test_artifact_files(self, splits, masked, tmp_path):
        _, val = splits
        soft_path = str(tmp_path / "soft.bin")
        lineage_path = str(tmp_path / "lineage.csv")
        out = run_bde(masked, val, BdeConfig(selftrain=fast_selftrain()),
                      soft_path=soft_path, lineage_path=lineage_path)
        back = LineageRecord.read_csv(lineage_path)
        assert back == out.lineage
        back.verify()
        loaded = load_soft(soft_path, masked, val.scheme)
        for a, b in zip(loaded.dists, out.soft.dists):
            np.testing.assert_array_equal(a, b)


class TestTrainOnBase:
    def test_unbeaten_baseline_reports_the_restored_model(self, scheme):
        """All-O soft targets never beat the random baseline; the reported F1
        must describe the restored initial parameters, not the last epoch."""
        c = scheme.tag_count
        sentences = tuple(Sentence(("filler", "words", "here"), (0, 0, 0))
                          for _ in range(8))
        rows = np.zeros((3, c))
        rows[:, 0] = 1.0
        soft = SoftDataset(sentences, [rows.copy() for _ in sentences], scheme,
                           known=tuple([] for _ in sentences))
        val = Corpus((Sentence(("Anna", "met", "Bob"),
                               (scheme.b_index("PER"), 0, scheme.b_index("PER"))),),
                     scheme, "val")
        cfg = BdeConfig(selftrain=fast_selftrain())
        model, val_f1, traces = train_on_base(soft, val, cfg)
        assert val_f1 == pytest.approx(evaluate_model(model, val).f1)
        assert traces[0].val_f1[traces[0].best_iteration] == pytest.approx(val_f1)


def snapshot(out: BdeOutput, lineage_path: str) -> dict:
    """Every output of a run as exact bits."""
    with open(lineage_path, encoding="utf-8") as fh:
        lineage_csv = fh.read()
    return {"soft": [d.view(np.int64).copy() for d in out.soft.dists],
            "known": out.soft.known,
            "lineage": lineage_csv,
            "params": {k: v.view(np.int64).copy() for k, v in out.model.params().items()},
            "val_f1": out.val_f1.hex(),
            "traces": [(t.stage, [f.hex() for f in t.val_f1], t.best_iteration)
                       for t in out.traces]}


def assert_same_bits(a: dict, b: dict) -> None:
    assert len(a["soft"]) == len(b["soft"])
    for x, y in zip(a["soft"], b["soft"]):
        np.testing.assert_array_equal(x, y)
    assert a["params"].keys() == b["params"].keys()
    for name in a["params"]:
        np.testing.assert_array_equal(a["params"][name], b["params"][name])
    for key in ("known", "lineage", "val_f1", "traces"):
        assert a[key] == b[key], key


class TestEstimateHandover:
    FINALS = ("supervised", "guided_bond")

    def run(self, masked, val, final, path):
        out = run_bde(masked, val, BdeConfig(final_method=final,
                                             selftrain=fast_selftrain()),
                      lineage_path=path)
        return out, snapshot(out, path)

    def test_pair_equals_two_fresh_runs(self, splits, masked, tmp_path,
                                        estimate_spy, monkeypatch):
        _, val = splits
        fresh = {}
        for final in self.FINALS:
            monkeypatch.setattr(bde, "_handover", bde._Handover())
            fresh[final] = self.run(masked, val, final, str(tmp_path / f"fresh_{final}"))[1]
        assert len(estimate_spy) == 2
        monkeypatch.setattr(bde, "_handover", bde._Handover())
        first, first_bits = self.run(masked, val, "supervised", str(tmp_path / "a"))
        for d in first.soft.dists:   # the held estimate is a private copy
            d.fill(0.5)
        first.lineage.sentence_fold.reverse()
        _, second_bits = self.run(masked, val, "guided_bond", str(tmp_path / "b"))
        assert len(estimate_spy) == 3
        assert_same_bits(first_bits, fresh["supervised"])
        assert_same_bits(second_bits, fresh["guided_bond"])

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

    @pytest.mark.parametrize("change", ["seed", "k", "inner", "selftrain",
                                        "partial", "val"])
    def test_any_other_input_misses(self, splits, masked, estimate_spy, change):
        trn, val = splits
        config = BdeConfig(inner_method="supervised", selftrain=fast_selftrain())
        estimate_base(masked, val, config)
        other_partial, other_val = masked, val
        if change == "seed":
            config = replace(config, seed=1)
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
