"""Tests for the two-stage self-training loop and its guided variant."""

import hashlib
import os
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from partialner import selftrain, tagger
from partialner.annotation import mask_entities, one_hot_rows, partial_from_labels
from partialner.corpus import ConfigError, Corpus, Sentence, SynthConfig, generate_synthetic
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
from partialner.tagger import SoftDataset, TaggerConfig, TaggerModel

from conftest import full_params


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


def stage_args(guided=False, **overrides) -> tuple[SelfTrainConfig, bool]:
    """`self_train`'s config and guidance flag, from `fast_config` overrides."""
    return fast_config(**overrides), guided


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
        assert not cfg.hard_targets

    def test_holds_only_what_a_run_sets(self):
        # guidance comes from the method name, the seed from `tagger`
        assert [f.name for f in fields(SelfTrainConfig)] == [
            "tagger", "teacher_refresh_period", "self_train_epochs", "hard_targets"]

    @pytest.mark.parametrize("bad", [
        dict(teacher_refresh_period=0),
        dict(self_train_epochs=0),
        dict(teacher_refresh_period=1.5),
        dict(hard_targets="no"),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
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
        start = init.copy()
        model, trace = self_train(init, masked, val, cfg)
        assert model is init
        for name, arr in full_params(model).items():
            np.testing.assert_array_equal(arr, full_params(start)[name])
        assert trace.best_iteration == 0
        assert len(set(trace.val_f1)) == 1

    def test_guidance_anchors_pull_the_student_off_the_fixpoint(self, splits, masked):
        # selection may still pick iteration 0, but the anchored rows must
        # produce real gradients, visible as a changed epoch-1 validation F1
        _, val = splits
        cfg = fast_config(self_train_epochs=1)
        init = TaggerModel.init(cfg.tagger, val.scheme)
        _, trace = self_train(init, masked, val, cfg, guided=True)
        assert trace.val_f1[1] != trace.val_f1[0]

    def test_hard_targets_break_the_fixpoint(self, splits, masked):
        _, val = splits
        cfg = fast_config(hard_targets=True, self_train_epochs=1)
        init = TaggerModel.init(cfg.tagger, val.scheme)
        # argmax one-hots differ from the soft outputs, so the student moves
        _, trace = self_train(init, masked, val, cfg)
        assert trace.val_f1[1] != trace.val_f1[0]

    def test_refresh_schedule_and_checkpoints(self, splits, masked):
        _, val = splits
        cfg = fast_config(teacher_refresh_period=2, self_train_epochs=5)
        init = TaggerModel.init(cfg.tagger, val.scheme)
        model, trace = self_train(init, masked, val, cfg)
        assert trace.refresh_epochs == [2, 4]
        # the returned checkpoint is the selected iteration's
        assert evaluate_model(model, val).f1 == pytest.approx(trace.best_f1)

    @pytest.mark.parametrize("guided", [True, False], ids=["guided", "closed_form"])
    def test_trains_with_the_model_config(self, splits, masked, guided):
        # tagger settings in the SelfTrainConfig other than the model's own
        # change nothing: the stage reads the model's config
        _, val = splits
        own = fast_config()
        other = replace(own, tagger=replace(own.tagger, hash_buckets=4096, seed=7,
                                            learning_rate=0.01))
        fitted, _ = ner_fit(masked, val, own)
        (want, want_trace), (got, got_trace) = (
            self_train(fitted.copy(), masked, val, cfg, guided) for cfg in (own, other))
        assert got.config == own.tagger
        np.testing.assert_array_equal(got.rows, want.rows)
        for name, arr in full_params(want).items():
            assert np.array_equal(bits(full_params(got)[name]), bits(arr)), name
        assert [f.hex() for f in got_trace.val_f1 + got_trace.losses] == \
            [f.hex() for f in want_trace.val_f1 + want_trace.losses]
        assert got_trace == want_trace


class TestClosedFormStage:
    """`self_train` without guidance or hard targets skips SGD; the merged
    SGD loop `tagger.fit`, driven by `selftrain._distill`, is the reference
    it must reproduce bit for bit."""

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
        {"teacher_refresh_period": 4},
        {"teacher_refresh_period": 7},  # longer than the stage: no refresh
    ], ids=["defaults", "refresh4", "refresh7"])
    def test_matches_the_sgd_loop(self, splits, masked, inits, which, overrides):
        _, val = splits
        init = inits[which]
        before = init.copy()
        runs = {}
        for name, fn in (("closed", self_train), ("loop", selftrain._distill)):
            # both train their input in place; the loop gets a copy of it
            start = init if name == "closed" else init.copy()
            cfg = fast_config(self_train_epochs=6, **overrides)
            runs[name] = fn(start, masked, val, cfg, False)
        (closed, closed_trace), (loop, loop_trace) = runs["closed"], runs["loop"]
        assert closed is init  # returned unchanged: the snapshot's bits
        for key, arr in full_params(before).items():
            assert np.array_equal(bits(full_params(closed)[key]), bits(arr)), key
        for key, arr in full_params(loop).items():
            assert np.array_equal(bits(full_params(closed)[key]), bits(arr)), key
        assert [f.hex() for f in closed_trace.val_f1] == [f.hex() for f in loop_trace.val_f1]
        assert closed_trace.refresh_epochs == loop_trace.refresh_epochs
        assert closed_trace.best_iteration == loop_trace.best_iteration == 0
        assert closed_trace.stopped_early == loop_trace.stopped_early
        assert closed_trace.losses == []  # not computed without the loop
        assert len(loop_trace.losses) == len(loop_trace.val_f1) - 1

    @pytest.mark.parametrize("overrides,takes_loop", [
        ({}, False),
        ({"guided": True}, True),
        ({"hard_targets": True}, True),
    ])
    def test_only_the_fixpoint_skips_the_loop(self, splits, masked, inits,
                                              monkeypatch, overrides, takes_loop):
        _, val = splits
        calls = []
        loop = tagger.fit

        def spy(*args):
            calls.append(args)
            return loop(*args)
        monkeypatch.setattr(tagger, "fit", spy)
        self_train(inits["fitted"].copy(), masked, val, *stage_args(**overrides))
        assert len(calls) == int(takes_loop)


def params_digest(model):
    h = hashlib.sha256()
    for name, arr in full_params(model).items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# stage -> trace fields as float hex and a SHA-256 of the returned parameters
PINNED_TRACES = {
    "ner_fit": {
        "val_f1": [
            "0x1.8e6527af1373ep-4", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        ],
        "losses": [
            "0x1.8440ed72bc554p+0", "0x1.a85078c2d7591p-1", "0x1.608b895818453p-1",
            "0x1.4f962f0527ae0p-1", "0x1.457f3c7f24520p-1", "0x1.3c40bd61bec23p-1",
            "0x1.34594182e0cedp-1", "0x1.2d485d2d5d00dp-1",
        ],
        "best_iteration": 0,
        "stopped_early": True,
        "params": "6d68974475d5fb014f17cb4c53cc3b2ba90ef0deff6e2a55f1e820f5ae69af1a",
    },
    "ner_fit_full_labels": {
        "val_f1": [
            "0x1.8e6527af1373ep-4", "0x1.1a7b9611a7b96p-6", "0x0.0p+0",
            "0x1.0410410410410p-5", "0x1.cfb2b78c13522p-4", "0x1.0e10e10e10e11p-3",
            "0x1.890cede62433cp-3", "0x1.0fac687d6343fp-2", "0x1.38bfaf4a6768bp-2",
        ],
        "losses": [
            "0x1.c470b462b115ap+0", "0x1.6ef7ba2e5e231p+0", "0x1.4214b5d0febcbp+0",
            "0x1.225efb770f2b3p+0", "0x1.081fa38a54c89p+0", "0x1.e2b1135da656ap-1",
            "0x1.bdf3642f5aa02p-1", "0x1.9fb2c5d66ff8cp-1",
        ],
        "best_iteration": 8,
        "stopped_early": False,
        "params": "ae0d7f95171716a8d53a96d5d2e297c097f22964efcf2c8ed782ff4ba2cacd5e",
    },
    "guided_self_train": {
        "val_f1": [
            "0x1.8e6527af1373ep-4", "0x1.7d05f417d05f5p-4", "0x1.af286bca1af28p-4",
            "0x1.f7047dc11f704p-4", "0x1.2a8ad278e8dcfp-3",
        ],
        "losses": [
            "0x1.efa49f66eb2bep+0", "0x1.edb78c4a49c60p+0", "0x1.eb3f8aa3a5702p+0",
            "0x1.e98cc8f6a4fe3p+0",
        ],
        "best_iteration": 4,
        "refresh_epochs": [2, 4],
        "params": "d5f8caccc4d4dce6e7f278a1f312bdb6eca5ed5dc85009c5b17b26371ece419e",
    },
    "hard_target_self_train": {
        "val_f1": [
            "0x1.8e6527af1373ep-4", "0x1.3333333333334p-4", "0x1.1111111111110p-4",
            "0x1.970e4f80cb872p-7", "0x1.6c16c16c16c17p-6", "0x0.0p+0",
        ],
        "losses": [
            "0x1.afd2faedd78efp+0", "0x1.8ec275de8fbf7p+0", "0x1.2f305eb6916c4p+0",
            "0x1.c85622b9699bfp-1", "0x1.097a6f05930bep-1",
        ],
        "best_iteration": 0,
        "refresh_epochs": [2, 4],
        "params": "6d68974475d5fb014f17cb4c53cc3b2ba90ef0deff6e2a55f1e820f5ae69af1a",
    },
}

class TestPinnedTraces:
    """Traces recorded before the two SGD loops were merged into `tagger.fit`;
    the hard-target stage before `fit` moved onto a compact per-stage
    embedding table."""

    def check(self, name, model, trace):
        want = PINNED_TRACES[name]
        assert [f.hex() for f in trace.val_f1] == want["val_f1"]
        assert [f.hex() for f in trace.losses] == want["losses"]
        assert trace.best_iteration == want["best_iteration"]
        assert trace.stopped_early == want.get("stopped_early", False)
        assert trace.refresh_epochs == want.get("refresh_epochs", [])
        assert params_digest(model) == want["params"]

    def test_ner_fit_and_guided_self_train(self, splits, masked):
        _, val = splits
        fitted, fit_trace = ner_fit(masked, val, fast_config())
        self.check("ner_fit", fitted, fit_trace)
        cfg = fast_config(self_train_epochs=4, teacher_refresh_period=2)
        self.check("guided_self_train", *self_train(fitted, masked, val, cfg, guided=True))

    def test_hard_target_self_train(self, splits, masked):
        _, val = splits
        fitted = ner_fit(masked, val, fast_config())[0]
        cfg = fast_config(hard_targets=True, self_train_epochs=5, teacher_refresh_period=2)
        self.check("hard_target_self_train", *self_train(fitted, masked, val, cfg))

    def test_ner_fit_that_improves_on_its_start(self, splits):
        trn, val = splits
        self.check("ner_fit_full_labels",
                   *ner_fit(partial_from_labels(trn), val, fast_config()))


class TestStageTable:
    def test_guided_self_train_keeps_rows_outside_the_stage(self, splits, masked):
        _, val = splits
        cfg = fast_config(self_train_epochs=4, teacher_refresh_period=2)
        init_model = ner_fit(masked, val, cfg)[0]
        start = init_model.copy()
        model, trace = self_train(init_model, masked, val, cfg, guided=True)
        assert trace.best_iteration > 0
        seqs = [p.tokens for p in masked] + [s.tokens for s in val.sentences]
        inside = np.unique(tagger.encode_tokens(seqs, cfg.tagger).ids)
        outside = np.setdiff1d(np.arange(cfg.tagger.hash_buckets), inside)
        assert outside.size
        assert model is init_model  # trained in place; `start` is its snapshot
        np.testing.assert_array_equal(model.rows, inside)  # the rows the stage read
        got, was = full_params(model)["embed"], full_params(start)["embed"]
        np.testing.assert_array_equal(bits(got[outside]), bits(was[outside]))
        assert not np.array_equal(got[inside], was[inside])


def one_token_partial(trn, outside):
    """One-token partial sentences: an entity's first token, then `outside`
    tokens labelled O, each with its label from `trn`."""
    pairs = [(t, l) for s in trn.sentences for t, l in zip(s.tokens, s.labels)]
    entity = next(s for s in trn.sentences if s.labels[0])
    words = [(entity.tokens[0], entity.labels[0]), *[p for p in pairs if not p[1]][:outside]]
    return partial_from_labels(Corpus(tuple(Sentence((t,), (l,)) for t, l in words),
                                      trn.scheme))


def teacher_stage(monkeypatch, cores, init, partial, val, config, guided):
    """`self_train` of a copy of `init` with `cores` usable cores, and the
    threads that computed features during it."""
    monkeypatch.setattr(selftrain, "_usable_cores", lambda: cores)
    threads, features = set(), tagger._features

    def spy(*args):
        threads.add(threading.get_ident())
        return features(*args)
    monkeypatch.setattr(tagger, "_features", spy)
    try:
        return self_train(init.copy(), partial, val, config, guided), threads
    finally:
        monkeypatch.setattr(tagger, "_features", features)


class TestTeacherHelper:
    """With a core to spare, a helper thread scores the frozen teacher's
    batches; the stage is the inline one bit for bit, and no thread outlives it."""

    @pytest.fixture(scope="class")
    def fitted(self, splits, masked):
        return ner_fit(masked, splits[1], fast_config())[0]

    @pytest.mark.parametrize("overrides", [
        {"guided": True},
        {"hard_targets": True},
        {"guided": True, "teacher_refresh_period": 2, "self_train_epochs": 4},
    ], ids=["guided", "hard_targets", "refresh2"])
    def test_the_helper_changes_no_bit(self, splits, masked, fitted, monkeypatch, overrides):
        args = (fitted, masked, splits[1], *stage_args(**overrides))
        inline, inline_threads = teacher_stage(monkeypatch, 1, *args)
        helped, helped_threads = teacher_stage(monkeypatch, 2, *args)
        assert inline_threads == {threading.get_ident()}
        assert len(helped_threads) == 2  # the student here, the teacher on the helper
        assert_same_fit(helped, inline)

    def test_a_one_token_last_batch_changes_no_bit(self, splits, monkeypatch):
        # 5 sentences in batches of 2: the last batch is one token, a
        # product numpy computes through gemv, whose bits differ from gemm's;
        # guidance pins the entity's row only
        trn, val = splits
        partial = one_token_partial(trn, 4)
        cfg, guided = stage_args(guided=True, tagger={"batch_size": 2})
        init = TaggerModel.init(cfg.tagger, val.scheme)
        inline, _ = teacher_stage(monkeypatch, 1, init, partial, val, cfg, guided)
        helped, threads = teacher_stage(monkeypatch, 2, init, partial, val, cfg, guided)
        assert len(threads) == 2
        assert_same_fit(helped, inline)

    @pytest.mark.parametrize("cores", [2, 1], ids=["helper", "inline"])
    def test_a_scoring_error_ends_the_stage_and_its_thread(self, splits, masked, fitted,
                                                          monkeypatch, cores):
        calls, pin = [], selftrain.pin_rows

        def failing_pin(*args):  # the teacher's second batch fails
            calls.append(threading.get_ident())
            if len(calls) == 2:
                raise ValueError("teacher batch failed")
            return pin(*args)
        monkeypatch.setattr(selftrain, "pin_rows", failing_pin)
        monkeypatch.setattr(selftrain, "_usable_cores", lambda: cores)
        before = threading.active_count()
        with pytest.raises(ValueError, match="teacher batch failed"):
            self_train(fitted.copy(), masked, splits[1], *stage_args(guided=True))
        assert (calls[1] != threading.get_ident()) == (cores > 1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cores", [2, 1], ids=["helper", "inline"])
    def test_a_val_f1_error_ends_the_stage_and_its_thread(self, splits, masked, fitted,
                                                         monkeypatch, cores):
        validate, during = tagger.validation_f1, []

        def failing_validation(*args):  # the first epoch's validation fails
            during.append(threading.active_count())
            if len(during) == 2:
                raise RuntimeError("validation failed")
            return validate(*args)
        monkeypatch.setattr(tagger, "validation_f1", failing_validation)
        monkeypatch.setattr(selftrain, "_usable_cores", lambda: cores)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="validation failed"):
            self_train(fitted.copy(), masked, splits[1], *stage_args(guided=True))
        assert during == [before, before + (cores > 1)]  # the helper was alive in validation
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["pool_worker", "one_core", "spare_core"])
    def test_only_a_spare_core_starts_the_helper(self, splits, masked, fitted,
                                                 monkeypatch, where):
        made, executor = [], selftrain.ThreadPoolExecutor

        def spy(*args):
            made.append(args)
            return executor(*args)
        monkeypatch.setattr(selftrain, "ThreadPoolExecutor", spy)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0} if where == "one_core" else {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1 if where == "one_core" else 2)
        if where == "pool_worker":  # a worker process has a parent, the main process none
            monkeypatch.setattr(selftrain.multiprocessing, "parent_process", lambda: object())
        self_train(fitted.copy(), masked, splits[1], *stage_args(guided=True))
        assert made == ([(1,)] if where == "spare_core" else [])


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
        for name, arr in full_params(bond.model).items():
            np.testing.assert_array_equal(arr, full_params(sup.model)[name])

    def test_guided_bond_departs_from_bond(self, splits, masked):
        _, val = splits
        bond = run_method("bond", masked, val, fast_config())
        guided = run_method("guided_bond", masked, val, fast_config())
        different = any(
            not np.array_equal(arr, full_params(bond.model)[name])
            for name, arr in full_params(guided.model).items())
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


def soft_targets(partial, scheme, smoothing=0.0):
    """Smoothed one-hot soft targets of the partial labels."""
    rows = one_hot_rows([l for p in partial for l in p.labels], scheme.tag_count)
    return SoftDataset(tuple(p.sentence for p in partial),
                       rows * (1.0 - smoothing) + smoothing / scheme.tag_count, scheme)


def assert_same_fit(got, want):
    (model, trace), (want_model, want_trace) = got, want
    for name, arr in full_params(want_model).items():
        np.testing.assert_array_equal(bits(full_params(model)[name]), bits(arr), err_msg=name)
    assert trace == want_trace
    assert [f.hex() for f in trace.val_f1] == [f.hex() for f in want_trace.val_f1]
    assert [f.hex() for f in trace.losses] == [f.hex() for f in want_trace.losses]
    np.testing.assert_array_equal(model.rows, want_model.rows)


def memo_fetch(memo, stage, scope, key, method, computed):
    """`memo.fetch` of a stage whose value names the method that computed it;
    each computation is logged in `computed` after checking that, while it
    runs, the stage holds only the asking scope and no stale entry of its key."""
    def compute():
        held_scope, entries = memo.stages[stage]
        assert held_scope == scope and key not in entries  # freed before the stage runs
        computed.append((stage, key, method))
        return [method]
    return memo.fetch(stage, scope, key, method, compute, list)


class TestStageMemo:
    def test_each_method_takes_an_entry_once(self):
        memo, scope, computed = selftrain.StageMemo(), (("s1", "s2"), "val"), []

        def fetch(method, stage="fit", key=("k",)):
            return memo_fetch(memo, stage, scope, key, method, computed)
        assert fetch("supervised") == ["supervised"]
        assert fetch("supervised") == ["supervised"]  # it produced it: computed again
        assert fetch("bond") == ["supervised"]
        assert fetch("guided_bond") == ["supervised"]
        assert fetch("bond") == ["bond"]  # it received it: computed again ...
        assert fetch("guided_bond") == ["bond"]  # ... and the entry replaced
        assert fetch("x", key=("other",)) == ["x"]
        assert fetch("x", stage="estimate") == ["x"]
        assert [method for _, _, method in computed] == ["supervised", "supervised",
                                                         "bond", "x", "x"]

    def test_entries_are_private_copies(self):
        memo, value = selftrain.StageMemo(), ["fit"]
        assert memo.fetch("fit", "scope", "k", "a", lambda: value, list) is value
        held = memo.stages["fit"][1]["k"][0]
        assert held == value and held is not value  # the memo keeps a copy ...
        got = memo.fetch("fit", "scope", "k", "b", pytest.fail, list)
        assert got == value and got is not held  # ... and hands out another

    def test_a_miss_frees_the_stale_entry(self):
        memo, corpora, computed = selftrain.StageMemo(), (("s1", "s2"), "val"), []

        def fit(seed, method):  # the fit's scope is its whole key
            return memo_fetch(memo, "fit", (corpora, seed), seed, method, computed)

        def estimate(seed, method):  # the estimate's is its corpora
            return memo_fetch(memo, "estimate", corpora, seed, method, computed)
        fit("seed0", "a")
        estimate("seed0", "a")
        assert fit("seed0", "b") == ["a"]
        assert fit("seed1", "a") == ["a"]  # another scope: seed0 is dropped ...
        assert computed[-1] == ("fit", "seed1", "a")  # ... before seed1's compute ran
        assert list(memo.stages["fit"][1]) == ["seed1"]
        assert fit("seed1", "a") == ["a"]  # a method asking again computes again
        assert list(memo.stages["fit"][1]) == ["seed1"]
        assert fit("seed0", "b") == ["b"]
        assert estimate("seed1", "b") == ["b"]  # the estimate keeps one entry per key
        assert estimate("seed0", "b") == ["a"]
        assert estimate("seed0", "a") == ["a"]  # it produced it: stale, freed first
        assert estimate("seed1", "a") == ["b"]
        assert len(computed) == 7

    def test_the_fit_keeps_one_entry(self, splits, masked, stage_spy):
        _, val = splits
        cfg = fast_config()
        other = cfg.with_seed(cfg.tagger.seed + 1)
        for config in (cfg, other):
            run_method("supervised", masked, val, config)
        assert len(selftrain.memo.stages["ner_fit"][1]) == 1
        run_method("bond", masked, val, other)  # the latest is served ...
        run_method("bond", masked, val, cfg)  # ... the one before trains again
        assert stage_spy() == [("hard_fit", len(masked))] * 3

    def test_another_pair_drops_only_its_stage(self):
        memo, corpora, fold = selftrain.StageMemo(), (("s1", "s2"), "val"), (("s1",), "val")
        computed = []

        def fetch(stage, scope):
            return memo_fetch(memo, stage, scope, ("k",), "b", computed)
        for stage in ("fit", "estimate"):
            memo_fetch(memo, stage, corpora, ("k",), "a", computed)
        assert fetch("fit", fold) == ["b"]  # a fold's fit ...
        assert fetch("estimate", corpora) == ["a"]  # ... keeps this
        assert fetch("fit", corpora) == ["b"]  # and dropped that
        assert computed == [("fit", ("k",), "a"), ("estimate", ("k",), "a"),
                            ("fit", ("k",), "b"), ("fit", ("k",), "b")]

    @pytest.mark.parametrize("smoothing", [None, 0.1], ids=["hard", "soft"])
    def test_a_hit_is_the_fit_bit_for_bit(self, splits, masked, smoothing):
        _, val = splits
        cfg = fast_config()
        soft = None if smoothing is None else soft_targets(masked, val.scheme, smoothing)
        want = ner_fit(masked, val, cfg, soft)
        first = selftrain._memo_fit("supervised", masked, val, cfg, soft)
        assert_same_fit(first, want)
        hit = selftrain._memo_fit("bond", masked, val, cfg, soft)
        assert hit[0] is not first[0] and hit[1] is not first[1]
        assert_same_fit(hit, want)
        for model, trace in (first, hit):  # self-training writes what it is given
            model.embed.fill(0.0)
            model.w1.fill(0.0)
            trace.val_f1.clear()
            model.rows.fill(0)
        assert_same_fit(selftrain._memo_fit("guided_bond", masked, val, cfg, soft), want)

    def test_bond_then_guided_bond_twice_trains_twice(self, splits, masked, stage_spy):
        _, val = splits
        outs = [run_method(m, masked, val, fast_config())
                for m in ("bond", "guided_bond", "bond", "guided_bond")]
        assert stage_spy() == [("hard_fit", len(masked))] * 2
        for a, b in zip(outs[:2], outs[2:]):
            for name, arr in full_params(a.model).items():
                np.testing.assert_array_equal(bits(full_params(b.model)[name]), bits(arr))

    @pytest.mark.parametrize("change,hit", [
        ("self_train_epochs", True),
        ("equal_soft_copy", True),
        ("tagger_seed", False),
        ("soft_values", False),
        ("hard_labels", False),
        ("val", False),
    ])
    def test_keyed_by_what_the_fit_reads(self, splits, masked, stage_spy, change, hit):
        trn, val = splits
        cfg, soft = fast_config(), soft_targets(masked, val.scheme, 0.1)
        run_method("supervised", masked, val, cfg, soft)
        other_val = val
        if change == "self_train_epochs":
            cfg = replace(cfg, self_train_epochs=5)
        elif change == "equal_soft_copy":
            soft = replace(soft, rows=soft.rows.copy())
        elif change == "tagger_seed":
            cfg = cfg.with_seed(1)
        elif change == "soft_values":
            soft = soft_targets(masked, val.scheme, 0.2)
        elif change == "hard_labels":
            soft = None
        else:
            other_val = Corpus(val.sentences[::-1], val.scheme, val.name)
        run_method("bond", masked, other_val, cfg, soft)
        assert len(stage_spy()) == (1 if hit else 2)
