"""Tests for the two-stage self-training loop and its guided variant."""

import numpy as np
import pytest

from partialner import selftrain
from partialner.annotation import mask_entities, partial_from_labels
from partialner.corpus import SynthConfig, generate_synthetic
from partialner.evaluation import evaluate_model
from partialner.selftrain import (
    METHODS,
    RunOutput,
    SelfTrainConfig,
    StageTrace,
    ner_fit,
    run_method,
    self_train,
)
from partialner.tagger import TaggerConfig, TaggerModel, load_checkpoint


def bits(arr):
    """Raw 64-bit patterns, so -0.0 and 0.0 differ."""
    arr = np.ascontiguousarray(arr)
    return arr.view(np.int64) if arr.dtype == np.float64 else arr


def fast_config(**overrides) -> SelfTrainConfig:
    tagger_overrides = overrides.pop("tagger", {})
    tcfg = TaggerConfig(embed_dim=8, window=1, hidden_dim=12, hash_buckets=1024,
                        learning_rate=0.3, max_epochs=8, patience=8, seed=0,
                        **tagger_overrides)
    overrides.setdefault("self_train_epochs", 3)
    return SelfTrainConfig(tagger=tcfg, **overrides)


@pytest.fixture(scope="module")
def splits():
    trn = generate_synthetic(SynthConfig(n_sentences=120, seed=21, name="st-train"))
    val = generate_synthetic(SynthConfig(n_sentences=60, seed=22, name="st-val"))
    return trn, val


@pytest.fixture(scope="module")
def masked(splits):
    trn, _ = splits
    partial, kept = mask_entities(trn, 0.3, seed=77)
    assert kept  # the tests below assume some anchors exist
    return partial


class TestConfig:
    def test_defaults(self):
        cfg = SelfTrainConfig()
        assert cfg.self_train_epochs == 20
        assert cfg.teacher_refresh_period == 1
        assert not cfg.guidance
        assert cfg.self_train_patience is None

    @pytest.mark.parametrize("bad", [
        dict(teacher_refresh_period=0),
        dict(self_train_epochs=0),
        dict(self_train_patience=0),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            SelfTrainConfig(**bad)


class TestStageTrace:
    def test_write_csv_marks_refreshes(self, tmp_path):
        trace = StageTrace("self_train", [0.1, 0.2, 0.3], refresh_epochs=[2],
                           best_iteration=2)
        path = tmp_path / "trace.csv"
        trace.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "stage,iteration,val_f1,teacher_refresh"
        assert lines[1] == "self_train,0,0.1,0"
        assert lines[3] == "self_train,2,0.3,1"


class TestNerFit:
    def test_trace_starts_at_baseline(self, splits, masked):
        _, val = splits
        cfg = fast_config()
        model, trace = ner_fit(masked, val, cfg)
        assert trace.stage == "ner_fit"
        assert len(trace.val_f1) >= 2  # baseline plus at least one epoch
        assert 0 <= trace.best_iteration < len(trace.val_f1)
        assert trace.val_f1[trace.best_iteration] == max(trace.val_f1)
        assert evaluate_model(model, val).f1 == pytest.approx(
            trace.val_f1[trace.best_iteration])


class TestSelfTrain:
    def test_plain_distillation_from_own_outputs_is_a_fixpoint(self, splits, masked):
        # teacher == student == init, so targets equal outputs and nothing moves
        _, val = splits
        cfg = fast_config()
        init = TaggerModel.init(cfg.tagger, val.scheme)
        model, trace = self_train(init, masked, val, cfg)
        for name, arr in model.params().items():
            np.testing.assert_array_equal(arr, init.params()[name])
        assert trace.best_iteration == 0
        assert len(set(trace.val_f1)) == 1

    def test_patience_counts_non_improving_iterations(self, splits, masked):
        _, val = splits
        cfg = fast_config(self_train_patience=1, self_train_epochs=10)
        init = TaggerModel.init(cfg.tagger, val.scheme)
        _, trace = self_train(init, masked, val, cfg)
        # the fixpoint never improves, so one epoch exhausts the patience
        assert len(trace.val_f1) == 2

    def test_guidance_anchors_pull_the_student_off_the_fixpoint(self, splits, masked):
        # selection may still pick iteration 0, but the anchored rows must
        # produce real gradients, visible as a changed epoch-1 validation F1
        _, val = splits
        cfg = fast_config(guidance=True, self_train_epochs=1)
        init = TaggerModel.init(cfg.tagger, val.scheme)
        _, trace = self_train(init, masked, val, cfg)
        assert trace.val_f1[1] != trace.val_f1[0]

    def test_hard_targets_break_the_fixpoint(self, splits, masked):
        _, val = splits
        cfg = fast_config(hard_targets=True, self_train_epochs=1,
                          self_train_patience=None)
        init = TaggerModel.init(cfg.tagger, val.scheme)
        # argmax one-hots differ from the soft outputs, so the student moves
        _, trace = self_train(init, masked, val, cfg)
        assert trace.val_f1[1] != trace.val_f1[0]

    def test_refresh_schedule_and_checkpoints(self, splits, masked, tmp_path):
        _, val = splits
        cfg = fast_config(teacher_refresh_period=2, self_train_epochs=5,
                          checkpoint_dir=str(tmp_path))
        init = TaggerModel.init(cfg.tagger, val.scheme)
        _, trace = self_train(init, masked, val, cfg)
        assert trace.refresh_epochs == [2, 4]
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["teacher_epoch002.npz", "teacher_epoch004.npz"]
        loaded = load_checkpoint(str(tmp_path / names[0]))
        assert loaded.scheme.categories == val.scheme.categories


class TestClosedFormStage:
    """`self_train` without guidance or hard targets skips SGD; the loop is
    the reference it must reproduce bit for bit."""

    @pytest.fixture(scope="class")
    def inits(self, splits, masked):
        _, val = splits
        cfg = fast_config()
        fitted, _ = ner_fit(masked, val, cfg)
        return {"untrained": TaggerModel.init(cfg.tagger, val.scheme),
                "fitted": fitted}

    @pytest.mark.parametrize("which", ["untrained", "fitted"])
    @pytest.mark.parametrize("overrides", [
        {},
        {"self_train_patience": 3},
        {"teacher_refresh_period": 4},
        {"checkpoint_dir": True},
    ], ids=["defaults", "patience3", "refresh4", "checkpoints"])
    def test_matches_the_sgd_loop(self, splits, masked, inits, tmp_path,
                                  which, overrides):
        _, val = splits
        init = inits[which]
        runs = {}
        for name, fn in (("closed", self_train), ("loop", selftrain._self_train_loop)):
            extra = dict(overrides)
            if extra.pop("checkpoint_dir", False):
                extra["checkpoint_dir"] = str(tmp_path / name)
                (tmp_path / name).mkdir()
            runs[name] = fn(init, masked, val, fast_config(self_train_epochs=6, **extra))
        (closed, closed_trace), (loop, loop_trace) = runs["closed"], runs["loop"]
        assert closed is not init
        for key, arr in loop.params().items():
            assert np.array_equal(bits(closed.params()[key]), bits(arr)), key
        assert [f.hex() for f in closed_trace.val_f1] == [f.hex() for f in loop_trace.val_f1]
        assert closed_trace.refresh_epochs == loop_trace.refresh_epochs
        assert closed_trace.best_iteration == loop_trace.best_iteration == 0
        if "checkpoint_dir" in overrides:
            names = sorted(p.name for p in (tmp_path / "loop").iterdir())
            assert names
            assert sorted(p.name for p in (tmp_path / "closed").iterdir()) == names
            for name in names:
                with np.load(tmp_path / "closed" / name) as a, \
                        np.load(tmp_path / "loop" / name) as b:
                    assert a.files == b.files
                    for key in a.files:
                        assert np.array_equal(bits(a[key]), bits(b[key])), (name, key)

    @pytest.mark.parametrize("overrides,takes_loop", [
        ({}, False),
        ({"guidance": True}, True),
        ({"hard_targets": True}, True),
    ])
    def test_only_the_fixpoint_skips_the_loop(self, splits, masked, inits,
                                              monkeypatch, overrides, takes_loop):
        _, val = splits
        calls = []
        loop = selftrain._self_train_loop

        def spy(*args):
            calls.append(args)
            return loop(*args)
        monkeypatch.setattr(selftrain, "_self_train_loop", spy)
        self_train(inits["fitted"], masked, val, fast_config(**overrides))
        assert len(calls) == int(takes_loop)


class TestRunMethod:
    def test_unknown_method_rejected(self, splits, masked):
        _, val = splits
        with pytest.raises(ValueError, match="unknown method"):
            run_method("distill", masked, val, fast_config())

    @pytest.mark.parametrize("method", METHODS)
    def test_reported_f1_matches_returned_model(self, splits, masked, method):
        _, val = splits
        out = run_method(method, masked, val, fast_config())
        assert isinstance(out, RunOutput)
        assert evaluate_model(out.model, val).f1 == pytest.approx(out.val_f1)

    def test_trace_stages(self, splits, masked):
        _, val = splits
        sup = run_method("supervised", masked, val, fast_config())
        assert [t.stage for t in sup.traces] == ["ner_fit"]
        bond = run_method("bond", masked, val, fast_config())
        assert [t.stage for t in bond.traces] == ["ner_fit", "self_train"]

    def test_bond_reduces_to_supervised_exactly(self, splits, masked):
        # distilling a deterministic net from its own frozen outputs is a no-op,
        # so the self-training stage returns the first-stage model bitwise
        _, val = splits
        sup = run_method("supervised", masked, val, fast_config())
        bond = run_method("bond", masked, val, fast_config())
        assert bond.val_f1 == sup.val_f1
        for name, arr in bond.model.params().items():
            np.testing.assert_array_equal(arr, sup.model.params()[name])

    def test_guided_bond_departs_from_bond(self, splits, masked):
        _, val = splits
        bond = run_method("bond", masked, val, fast_config())
        guided = run_method("guided_bond", masked, val, fast_config())
        different = any(
            not np.array_equal(arr, bond.model.params()[name])
            for name, arr in guided.model.params().items())
        assert different

    def test_guided_bond_keeps_full_annotation_quality(self, splits):
        # with everything kept, guidance anchors every entity token; the
        # result should stay close to plain supervised training
        trn, val = splits
        partial = partial_from_labels(trn)
        cfg = fast_config(self_train_epochs=2)
        sup = run_method("supervised", partial, val, cfg)
        guided = run_method("guided_bond", partial, val, cfg)
        assert guided.val_f1 >= sup.val_f1 - 0.02
