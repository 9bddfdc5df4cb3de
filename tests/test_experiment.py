"""Tests for the methods x fractions x seeds harness and its reports."""

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from partialner import cli, experiment, selftrain, tagger
from partialner.annotation import mask_entities
from partialner.corpus import ConfigError, SynthConfig, generate_synthetic, serialize_conll
from partialner.experiment import (
    DEFAULT_FRACTIONS,
    DEFAULT_SEEDS,
    RESULT_COLUMNS,
    RESULTS_NAME,
    SUMMARY_NAME,
    ExperimentConfig,
    MethodSpec,
    RunRecord,
    canonical_json,
    config_hash,
    load_corpora,
    masked_partial,
    parse_summary,
    recompute_stats,
    run_cell,
    run_experiment,
    verify_report,
)
from partialner.tagger import TaggerConfig


def fast_tagger(**overrides) -> TaggerConfig:
    base = dict(embed_dim=8, window=1, hidden_dim=12, hash_buckets=1024,
                learning_rate=0.3, max_epochs=4, patience=4)
    base.update(overrides)
    return TaggerConfig(**base)


def smoke_config(**overrides) -> ExperimentConfig:
    base = dict(synth=SynthConfig(n_sentences=60, seed=41),
                dev_sentences=20, test_sentences=20,
                fractions=(0.2, 0.5), seeds=(0, 1),
                methods=("supervised", "bde:supervised+supervised"),
                tagger=fast_tagger(), self_train_epochs=2, workers=1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMethodSpec:
    @pytest.mark.parametrize("name", ["supervised", "bond", "guided_bond"])
    def test_plain_methods(self, name):
        spec = MethodSpec.parse(name)
        assert spec == MethodSpec(name, name)

    def test_bde_form(self):
        spec = MethodSpec.parse("bde:guided_bond+supervised")
        assert spec.kind == "bde"
        assert spec.inner == "guided_bond"
        assert spec.final == "supervised"
        assert spec.name == "bde:guided_bond+supervised"

    def test_strips_whitespace(self):
        assert MethodSpec.parse(" bond ").name == "bond"

    @pytest.mark.parametrize("bad", [
        "bde:guided_bond",        # missing final
        "bde:mystery+supervised", # unknown inner
        "bde:bond+bond",          # bond is not a final method
        "distill",                # unknown method
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            MethodSpec.parse(bad)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.fractions == DEFAULT_FRACTIONS
        assert cfg.seeds == DEFAULT_SEEDS
        assert cfg.mask_seed == 20230
        assert cfg.methods == ("supervised", "bond", "guided_bond")

    @pytest.mark.parametrize("bad", [
        dict(train_path="a.conll"),              # partial path triple
        dict(fractions=()),
        dict(fractions=(0.0,)),
        dict(fractions=(1.5,)),
        dict(seeds=()),
        dict(methods=()),
        dict(methods=("mystery",)),
        dict(methods=("bond", "bond")),
        dict(bde_k=1),
        dict(workers=0),
        dict(workers=-2),
        dict(fractions=(0.1, 0.1)),
        dict(seeds=(0, 0)),
        dict(seeds=(0, 0), fractions=(0.1, 0.1)),
        dict(self_train_epochs=0),
        dict(teacher_refresh_period=0),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)

    def test_from_dict_builds_nested_configs(self):
        cfg = ExperimentConfig.from_dict({
            "synth": {"n_sentences": 50, "seed": 3, "categories": ["PER", "LOC"],
                      "gazetteers": {"PER": ["Anna"], "LOC": ["Oslo"]}},
            "tagger": {"embed_dim": 8},
            "fractions": [0.1, 0.5],
            "seeds": [0],
            "methods": ["bond"],
            "out_dir": "ignored",
        })
        assert cfg.synth.n_sentences == 50
        assert cfg.synth.categories == ("PER", "LOC")
        assert cfg.synth.gazetteers == {"PER": ("Anna",), "LOC": ("Oslo",)}
        assert cfg.tagger.embed_dim == 8
        assert cfg.fractions == (0.1, 0.5)
        assert cfg.methods == ("bond",)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown experiment config keys"):
            ExperimentConfig.from_dict({"fracs": [0.1]})

    @pytest.mark.parametrize("data,message", [
        ({"synth": {"n_sentence": 50}}, "unknown synth config keys"),
        ({"tagger": {"embed_dims": 8}}, "bad experiment config"),
        ({"tagger": {"patience": 0}}, "patience must be >= 1"),
        ({"tagger": {"learning_rate": float("nan")}}, "learning_rate must be positive"),
        ({"tagger": {"embed_dims": 8}}, "unknown tagger config keys"),
    ])
    def test_from_dict_rejects_unknown_nested_keys(self, data, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(data)

    def test_from_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"fractions": [0.25], "seeds": [1, 2]}))
        cfg = ExperimentConfig.from_json(str(path))
        assert cfg.fractions == (0.25,)
        assert cfg.seeds == (1, 2)

    def test_from_dict_rejects_a_list_of_pairs(self):
        with pytest.raises(TypeError, match="not a mapping"):
            ExperimentConfig.from_dict([["seeds", [3]]])

    @pytest.mark.parametrize("text,message", [
        ('[["seeds", [3]]]', "expected a JSON object"),
        ('{"seeds": [3]', "not valid JSON"),
    ], ids=["array", "malformed"])
    def test_from_json_reads_one_json_object(self, tmp_path, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"{path}: {message}"):
            ExperimentConfig.from_json(str(path))

    def test_with_seed_replaces_seed(self):
        cfg = smoke_config(self_train_epochs=7, teacher_refresh_period=3, hard_targets=True)
        st = cfg.with_seed(99)
        assert type(st) is selftrain.SelfTrainConfig  # hashable: memo keys hold it
        assert st.tagger.seed == 99
        assert st.tagger.embed_dim == cfg.tagger.embed_dim
        assert st.self_train_epochs == 7
        assert st.teacher_refresh_period == 3
        assert st.hard_targets

    def test_every_self_training_setting_is_an_experiment_key(self):
        # a run sets self-training through its config keys, declared once on
        # SelfTrainConfig; guidance comes from the method name in run_method
        assert issubclass(ExperimentConfig, selftrain.SelfTrainConfig)
        declared = set(vars(ExperimentConfig)["__annotations__"])
        assert not declared & set(selftrain.SelfTrainConfig.__dataclass_fields__)

    def test_canonical_json_and_hash_are_stable(self):
        a, b = smoke_config(), smoke_config()
        assert canonical_json(a) == canonical_json(b)
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 12
        assert config_hash(a) != config_hash(smoke_config(seeds=(0,)))


class TestLoadCorpora:
    def test_synthetic_splits(self):
        cfg = smoke_config()
        train, dev, test = load_corpora(cfg)
        assert (len(train), len(dev), len(test)) == (60, 20, 20)
        assert (train.name, dev.name, test.name) == (
            "synthetic-train", "synthetic-dev", "synthetic-test")
        # split seeds are derived, so the texts differ
        assert train.sentences[0].tokens != dev.sentences[0].tokens
        again = load_corpora(cfg)[0]
        assert again.sentences == train.sentences

    def test_conll_paths(self, tmp_path, tiny_corpus):
        paths = {}
        for split in ("train", "dev", "test"):
            p = tmp_path / f"{split}.conll"
            p.write_text(serialize_conll(tiny_corpus))
            paths[split] = str(p)
        cfg = ExperimentConfig(train_path=paths["train"], dev_path=paths["dev"],
                               test_path=paths["test"])
        train, dev, test = load_corpora(cfg)
        # inferred schemes list categories in sorted order
        assert train.scheme.categories == tuple(sorted(tiny_corpus.scheme.categories))
        assert [s.tokens for s in train.sentences] == \
               [s.tokens for s in tiny_corpus.sentences]
        assert len(dev) == len(tiny_corpus)


class TestMaskedPartial:
    def test_exact_count_and_sidecar(self, tmp_path, tiny_corpus):
        cache = str(tmp_path / "masks")
        partial, kept = masked_partial(tiny_corpus, 0.5, 11, cache)
        assert kept == round(0.5 * tiny_corpus.total_entities())
        assert len(partial) == len(tiny_corpus)
        files = os.listdir(cache)
        assert len(files) == 1 and files[0].startswith("mask_")

    @pytest.mark.parametrize("fault", ["truncated", "non-gold", "duplicated"])
    def test_a_faulty_sidecar_is_drawn_again(self, tmp_path, tiny_corpus,
                                             tamper_sidecar, fault):
        # the sidecar is an audit record only: the mask is drawn on every call
        cache = str(tmp_path / "masks")
        first, kept = masked_partial(tiny_corpus, 0.5, 11, cache)
        sidecar = os.path.join(cache, os.listdir(cache)[0])
        with open(sidecar, "rb") as fh:
            written = fh.read()
        tamper_sidecar(sidecar, fault)
        again, kept_again = masked_partial(tiny_corpus, 0.5, 11, cache)
        assert kept_again == kept
        assert again == first
        with open(sidecar, "rb") as fh:
            assert fh.read() == written
        assert os.listdir(cache) == [os.path.basename(sidecar)]

    def test_distinct_keys_get_distinct_files(self, tmp_path, tiny_corpus):
        cache = str(tmp_path / "masks")
        masked_partial(tiny_corpus, 0.5, 11, cache)
        masked_partial(tiny_corpus, 0.2, 11, cache)
        masked_partial(tiny_corpus, 0.5, 12, cache)
        assert len(os.listdir(cache)) == 3


class TestRunRecord:
    def test_row_formats_types(self):
        rec = RunRecord("bond", 0.1, 3, 0.5, 0.25, 1 / 3, 0.4, 17, 1234)
        row = rec.row()
        assert row[0] == "bond"
        assert row[1] == "0.1"
        assert row[5] == repr(1 / 3)  # full float precision survives
        assert row[7] == "17"
        assert row[9] == ""

    def test_row_renders_missing_values_empty(self):
        rec = RunRecord("bond", 0.1, 3, None, None, None, None, None, 5, "boom")
        row = rec.row()
        assert row[3:8] == [""] * 5
        assert row[9] == "boom"


class TestRunCell:
    def test_success(self, tmp_path, small_splits):
        train, dev, test = small_splits
        cfg = smoke_config()
        partial, kept = masked_partial(train, 0.5, cfg.mask_seed, str(tmp_path))
        rec = run_cell(MethodSpec.parse("supervised"), partial, kept, dev, test,
                       cfg, 0.5, seed=0)
        assert rec.error == ""
        assert rec.f1 is not None and 0.0 <= rec.f1 <= 1.0
        assert rec.kept_entities == kept
        assert rec.wall_ms >= 0

    def test_failure_is_recorded_not_raised(self, small_splits, tmp_path):
        train, dev, test = small_splits
        cfg = smoke_config()
        # a single-sentence corpus cannot be split into two folds
        partial, kept = masked_partial(train, 0.5, cfg.mask_seed, str(tmp_path))
        rec = run_cell(MethodSpec.parse("bde:supervised+supervised"),
                       partial[:1], 0, dev, test, cfg, 0.5, seed=0)
        assert rec.f1 is None
        assert "ValueError" in rec.error
        assert rec.method == "bde:supervised+supervised"


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("exp"))
    cfg = smoke_config()
    results = run_experiment(cfg, out_dir)
    return cfg, out_dir, results


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunExperiment:
    def test_results_shape_and_order(self, smoke_run):
        cfg, _, results = smoke_run
        rows = read_rows(results)
        assert rows[0] == list(RESULT_COLUMNS)
        body = rows[1:]
        assert len(body) == len(cfg.methods) * len(cfg.fractions) * len(cfg.seeds)
        want_order = [(m, repr(f), str(s)) for m in cfg.methods
                      for f in cfg.fractions for s in cfg.seeds]
        assert [(r[0], r[1], r[2]) for r in body] == want_order
        assert all(r[9] == "" for r in body), "smoke cells should not error"

    def test_artifacts_written(self, smoke_run):
        cfg, out_dir, _ = smoke_run
        assert os.path.exists(os.path.join(out_dir, SUMMARY_NAME))
        echoed = open(os.path.join(out_dir, "config_echo.json")).read()
        assert echoed == canonical_json(cfg) + "\n"
        masks = os.listdir(os.path.join(out_dir, "masks"))
        assert len(masks) == len(cfg.fractions)
        lineage = os.listdir(os.path.join(out_dir, "lineage"))
        # one lineage file per bde cell
        assert len(lineage) == len(cfg.fractions) * len(cfg.seeds)

    def test_summary_agrees_with_results(self, smoke_run):
        _, out_dir, _ = smoke_run
        assert verify_report(out_dir) == []

    def test_parse_summary_roundtrip(self, smoke_run):
        cfg, out_dir, results = smoke_run
        stats = parse_summary(os.path.join(out_dir, SUMMARY_NAME))
        recomputed = recompute_stats(results)
        assert set(stats) == set(recomputed)
        assert set(stats) == {(m, f) for m in cfg.methods for f in cfg.fractions}
        for key, (mean, std, n) in recomputed.items():
            assert stats[key][0] == pytest.approx(mean, abs=1e-12)
            assert stats[key][1] == pytest.approx(std, abs=1e-12)
            assert stats[key][2] == n

    def test_rerun_reproduces_results_excluding_wall_ms(self, smoke_run, tmp_path):
        cfg, _, results = smoke_run
        second = run_experiment(cfg, str(tmp_path / "again"))
        wall = RESULT_COLUMNS.index("wall_ms")
        strip = lambda rows: [r[:wall] + r[wall + 1:] for r in rows]
        assert strip(read_rows(second)) == strip(read_rows(results))

    def test_parallel_run_matches_serial(self, smoke_run, tmp_path):
        cfg, _, results = smoke_run
        par_cfg = smoke_config(workers=2)
        second = run_experiment(par_cfg, str(tmp_path / "par"))
        wall = RESULT_COLUMNS.index("wall_ms")
        strip = lambda rows: [r[:wall] + r[wall + 1:] for r in rows]
        assert strip(read_rows(second)) == strip(read_rows(results))

    def test_serial_run_is_the_worker_in_process(self, tmp_path, monkeypatch):
        """A serial run draws each mask once, through the pool's worker
        functions but not its entry points, which a tracer may replace."""
        drawn = []
        real = experiment.mask_entities

        def spy(*args):
            drawn.append(args[1])
            return real(*args)

        def pool_only(*args):
            raise AssertionError("a serial run entered the process pool's entry point")
        monkeypatch.setattr(experiment, "mask_entities", spy)
        monkeypatch.setattr(experiment, "_pool_init", pool_only)
        monkeypatch.setattr(experiment, "_pool_cell", pool_only)
        cfg = smoke_config(methods=("supervised",))
        rows = read_rows(run_experiment(cfg, str(tmp_path / "serial")))[1:]
        assert sorted(drawn) == sorted(cfg.fractions)
        assert len(rows) == len(cfg.fractions) * len(cfg.seeds)
        assert all(r[RESULT_COLUMNS.index("error")] == "" for r in rows)
        assert experiment._POOL_STATE == {}


class TestWorkerMasks:
    """A cell worker draws each fraction's mask once and keeps only the
    mask of the fraction it is running."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_mask_per_fraction_per_worker(self, tmp_path, monkeypatch, workers):
        log = tmp_path / "masks.log"  # forked workers inherit the spies and append here
        real_mask, real_cell = experiment.masked_partial, experiment._worker_cell

        def record(*fields):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(" ".join(map(str, (os.getpid(), *fields))) + "\n")

        def mask(train, fraction, *args):
            record("draw", fraction)
            return real_mask(train, fraction, *args)

        def cell(st, args):
            out = real_cell(st, args)
            record("held", args[1], *st["masks"])
            return out
        monkeypatch.setattr(experiment, "masked_partial", mask)
        monkeypatch.setattr(experiment, "_worker_cell", cell)
        cfg = smoke_config(methods=("supervised",), fractions=(0.2, 0.5, 0.8), workers=workers)
        rows = read_rows(run_experiment(cfg, str(tmp_path / "run")))[1:]
        assert all(r[RESULT_COLUMNS.index("error")] == "" for r in rows)
        lines = [line.split() for line in log.read_text().splitlines()]
        draws = [tuple(line) for line in lines if line[1] == "draw"]
        assert len(draws) == len(set(draws))  # one draw per fraction per worker
        assert {f for _, _, f in draws} == {repr(f) for f in cfg.fractions}
        held = [line[2:] for line in lines if line[1] == "held"]
        assert len(held) == len(rows)
        assert all(keys == [fraction] for fraction, *keys in held)


class TestSharedEstimate:
    """Both bde: finals of one inner method share each cross-fit estimate."""

    METHODS = ("supervised", "bde:supervised+supervised", "bde:supervised+guided_bond")

    def test_serial_and_pooled_rows_agree_in_config_order(self, tmp_path, estimate_spy):
        cfg = smoke_config(methods=self.METHODS)
        serial = read_rows(run_experiment(cfg, str(tmp_path / "serial")))
        assert len(estimate_spy) == len(cfg.fractions) * len(cfg.seeds)
        pooled = read_rows(run_experiment(smoke_config(methods=self.METHODS, workers=2),
                                          str(tmp_path / "pooled")))
        wall = RESULT_COLUMNS.index("wall_ms")
        strip = lambda rows: [r[:wall] + r[wall + 1:] for r in rows]
        assert strip(pooled) == strip(serial)
        assert [tuple(r[:3]) for r in serial[1:]] == [
            (m, repr(f), str(s)) for m in cfg.methods
            for f in cfg.fractions for s in cfg.seeds]
        assert all(r[RESULT_COLUMNS.index("error")] == "" for r in serial[1:])


FULL_METHODS = ("supervised", "bond", "guided_bond",
                "bde:guided_bond+supervised", "bde:guided_bond+guided_bond")


class TestStagesTrainedOnce:
    """The stage memo trains each repeated stage once per (fraction, seed)."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_fit_per_fraction_and_seed(self, tmp_path, stage_spy, workers):
        cfg = smoke_config(methods=("supervised", "bond", "guided_bond"), workers=workers)
        rows = read_rows(run_experiment(cfg, str(tmp_path / "run")))[1:]
        assert all(r[RESULT_COLUMNS.index("error")] == "" for r in rows)
        n_train = cfg.synth.n_sentences
        assert stage_spy() == [("hard_fit", n_train)] * (len(cfg.fractions) * len(cfg.seeds))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_soft_fit_and_estimate_per_bde_pair(self, tmp_path, stage_spy, workers):
        cfg = smoke_config(methods=FULL_METHODS, workers=workers)
        rows = read_rows(run_experiment(cfg, str(tmp_path / "run")))[1:]
        assert all(r[RESULT_COLUMNS.index("error")] == "" for r in rows)
        calls, groups = stage_spy(), len(cfg.fractions) * len(cfg.seeds)
        n_train = cfg.synth.n_sentences
        assert calls.count(("hard_fit", n_train)) == groups
        assert calls.count(("soft_fit", n_train)) == groups
        assert calls.count(("estimate", n_train)) == groups
        # the rest are the inner guided_bond fits, one per fold
        assert sum(1 for stage, n in calls if n < n_train) == groups * cfg.bde_k
        assert all(stage == "hard_fit" for stage, n in calls if n < n_train)

    def test_method_by_method_order_of_the_acceptance_gate(self, small_splits, stage_spy):
        # The gate runs every seed of one method before the next method, so
        # the fit, which holds one entry, trains 6 times for 2 distinct inputs
        # and the soft fit 4 times for 2; the estimate keeps one entry per
        # seed and trains twice.  ROADMAP item 4 is meant to lower the fit
        # counts; this pins them until it does.
        train, dev, test = small_splits
        cfg = smoke_config(methods=FULL_METHODS)
        partial, kept = mask_entities(train, 0.3, cfg.mask_seed)
        for method in FULL_METHODS:
            for seed in (0, 1):
                rec = run_cell(MethodSpec.parse(method), partial, len(kept),
                               dev, test, cfg, 0.3, seed)
                assert rec.error == "", rec.error
        n = len(partial)
        folds = [("hard_fit", n // 2), ("hard_fit", n - n // 2)]  # k = 2
        estimate = [("estimate", n), *folds, ("soft_fit", n)]
        assert stage_spy() == ([("hard_fit", n)] * 6 + estimate * 2
                               + [("soft_fit", n)] * 2)

    @pytest.mark.parametrize("method", FULL_METHODS)
    def test_no_full_table_copy_in_a_cell(self, small_splits, rows_spy, method):
        train, dev, test = small_splits
        cfg = smoke_config(tagger=fast_tagger(hash_buckets=1 << 14))
        partial, kept = mask_entities(train, 0.3, cfg.mask_seed)
        rec = run_cell(MethodSpec.parse(method), partial, len(kept), dev, test, cfg, 0.3, 0)
        assert rec.error == ""
        held = rows_spy()
        assert max(held) > 0  # the models drew the rows their tokens need ...
        assert max(held) < cfg.tagger.hash_buckets  # ... and never the full table

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_model_in_a_run_holds_the_full_table(self, tmp_path, rows_spy, workers):
        cfg = smoke_config(methods=FULL_METHODS, workers=workers,
                           tagger=fast_tagger(hash_buckets=1 << 14))
        rows = read_rows(run_experiment(cfg, str(tmp_path / "run")))[1:]
        assert all(r[RESULT_COLUMNS.index("error")] == "" for r in rows)
        held = rows_spy()
        assert max(held) > 0
        assert max(held) < cfg.tagger.hash_buckets


@pytest.fixture
def rows_spy(monkeypatch, tmp_path):
    """The number of embedding rows every model held, after each
    construction and each `positions` call in this test, pool workers
    included: forked workers inherit the spies and append to one file."""
    log = tmp_path / "rows_spy.log"
    real_init, real_positions = tagger.TaggerModel.__init__, tagger.TaggerModel.positions

    def record(model):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{model.rows.size}\n")

    def init(model, *args, **kwargs):
        real_init(model, *args, **kwargs)
        record(model)

    def positions(model, *encs):
        out = real_positions(model, *encs)
        record(model)
        return out
    monkeypatch.setattr(tagger.TaggerModel, "__init__", init)
    monkeypatch.setattr(tagger.TaggerModel, "positions", positions)
    return lambda: [int(n) for n in log.read_text().split()]


class TestDefaultWorkers:
    def test_one_usable_core_runs_serially(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-core run started a process pool")
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        cfg = smoke_config(methods=("supervised",), workers=None)
        rows = read_rows(run_experiment(cfg, str(tmp_path / "run")))[1:]
        assert len(rows) == len(cfg.fractions) * len(cfg.seeds)
        assert all(r[RESULT_COLUMNS.index("error")] == "" for r in rows)


class TestVerifyReport:
    def test_detects_tampered_summary(self, smoke_run, tmp_path):
        _, out_dir, _ = smoke_run
        tampered = tmp_path / "tampered"
        shutil.copytree(out_dir, tampered)  # masks and lineage stay valid
        assert verify_report(str(tampered)) == []
        summary = open(os.path.join(out_dir, SUMMARY_NAME)).read()
        stats = parse_summary(os.path.join(out_dir, SUMMARY_NAME))
        (key, (mean, _, _)) = next(iter(stats.items()))
        (tampered / SUMMARY_NAME).write_text(summary.replace(repr(mean), "0.123", 1))
        (problem,) = verify_report(str(tampered))
        assert problem.startswith(f"{key}: recomputed mean={mean!r}")

    def test_generates_only_the_training_split(self, smoke_run, monkeypatch):
        _, out_dir, _ = smoke_run
        calls = []
        real = experiment.generate_synthetic

        def spy(config):
            calls.append(config.name)
            return real(config)
        monkeypatch.setattr(experiment, "generate_synthetic", spy)
        assert verify_report(out_dir) == []
        assert calls == ["synthetic-train"]

    def test_recompute_rejects_foreign_columns(self, tmp_path):
        bad = tmp_path / "results.csv"
        bad.write_text("method,f1\nbond,0.5\n")
        with pytest.raises(ValueError, match="columns"):
            recompute_stats(str(bad))

    def test_parse_summary_requires_table(self, tmp_path):
        empty = tmp_path / "summary.md"
        empty.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="table"):
            parse_summary(str(empty))


@pytest.fixture(scope="module")
def failing_run(tmp_path_factory):
    """One seed whose bond cells fail in self-training: the summary shows
    them as n/a and lists them under Errors."""
    def boom(*args, **kwargs):
        raise RuntimeError("boom")
    out_dir = tmp_path_factory.mktemp("failing")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selftrain, "self_train", boom)
        run_experiment(smoke_config(methods=("supervised", "bond"), seeds=(0,)), str(out_dir))
    return out_dir


class TestReportMismatches:
    def test_a_failing_cell_passes(self, failing_run, capsys):
        summary = (failing_run / SUMMARY_NAME).read_text()
        assert "| bond | n/a | n/a |" in summary
        assert "## Errors\n\n- bond fraction=0.2 seed=0: RuntimeError: boom" in summary
        assert cli.main(["report", str(failing_run)]) == 0
        assert "report OK" in capsys.readouterr().out

    @pytest.mark.parametrize("fault,problem", [
        ("results_row", "('supervised', 0.2): in summary.md but not recomputable"),
        ("summary_row", "('supervised', 0.5): in results.csv but missing from summary.md"),
        ("config_echo", "masks: cannot redraw: ConfigError"),
    ])
    def test_a_tampered_copy_is_named(self, failing_run, tmp_path, capsys, fault, problem):
        run = tmp_path / "run"
        shutil.copytree(failing_run, run)
        if fault == "results_row":
            lines = (run / RESULTS_NAME).read_text().splitlines(keepends=True)
            (run / RESULTS_NAME).write_text("".join(
                l for l in lines if not l.startswith("supervised,0.2,")))
        elif fault == "summary_row":
            lines = (run / SUMMARY_NAME).read_text().splitlines(keepends=True)
            (run / SUMMARY_NAME).write_text("".join(
                l for l in lines if not l.startswith("| supervised |")))
        else:
            (run / "config_echo.json").write_text("{")
        assert cli.main(["report", str(run)]) == 1
        assert f"MISMATCH {problem}" in capsys.readouterr().out


class TestCompareRuns:
    SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "compare_runs.py")

    def compare(self, a, b):
        return subprocess.run([sys.executable, self.SCRIPT, str(a), str(b)],
                              capture_output=True, text=True, timeout=60)

    def test_equal_runs_and_a_tampered_copy(self, smoke_run, tmp_path):
        cfg, out_dir, _ = smoke_run
        again = tmp_path / "again"
        run_experiment(cfg, str(again))
        same = self.compare(out_dir, again)
        assert (same.returncode, same.stdout) == (0, "no difference\n")
        lineage = sorted(os.listdir(again / "lineage"))[0]
        with open(again / "lineage" / lineage, "a") as fh:
            fh.write("scored,9,0\n")
        sidecar = sorted(os.listdir(again / "masks"))[0]
        os.remove(again / "masks" / sidecar)
        changed = self.compare(out_dir, again)
        assert changed.returncode == 1
        assert changed.stdout.splitlines() == [
            f"lineage/{lineage}: contents differ", f"masks/{sidecar}: only in A",
            "2 difference(s)"]

    def test_equal_train_directories_and_a_tampered_copy(self, tmp_path):
        for name, n, seed in (("train", 40, 3), ("dev", 20, 4)):
            corpus = generate_synthetic(SynthConfig(n_sentences=n, seed=seed))
            (tmp_path / f"{name}.conll").write_text(serialize_conll(corpus))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tagger": dataclasses.asdict(fast_tagger()),
                                      "self_train_epochs": 2}))
        for out in ("a", "b"):
            assert cli.main(["train", "--method", "bde:supervised+guided_bond",
                             "--train", str(tmp_path / "train.conll"),
                             "--dev", str(tmp_path / "dev.conll"), "--config", str(config),
                             "--seed", "0", "--out", str(tmp_path / out)]) == 0
        assert sorted(os.listdir(tmp_path / "a")) == [
            "checkpoint.npz", "lineage.csv", "soft.bin", "trace_ner_fit.csv",
            "trace_self_train.csv"]
        same = self.compare(tmp_path / "a", tmp_path / "b")
        assert (same.returncode, same.stdout) == (0, "no difference\n")
        checkpoint = tmp_path / "b" / "checkpoint.npz"
        with np.load(checkpoint) as z:
            arrays = {k: z[k] for k in z.files}
        np.savez(checkpoint, **dict(reversed(arrays.items())))  # other bytes, same arrays
        assert checkpoint.read_bytes() != (tmp_path / "a" / "checkpoint.npz").read_bytes()
        same = self.compare(tmp_path / "a", tmp_path / "b")
        assert (same.returncode, same.stdout) == (0, "no difference\n")
        arrays["w1"] = arrays["w1"] + 1.0
        arrays["b1"] = arrays["b1"].astype(np.float32)
        arrays["b2"] = arrays["b2"][:-1]
        arrays["extra"] = arrays.pop("rows")
        np.savez(checkpoint, **arrays)
        with open(tmp_path / "b" / "trace_self_train.csv", "a") as fh:
            fh.write("self_train,3,0.5,0\n")
        os.remove(tmp_path / "b" / "soft.bin")
        changed = self.compare(tmp_path / "a", tmp_path / "b")
        assert changed.returncode == 1
        n_tags = arrays["b2"].size + 1
        assert changed.stdout.splitlines() == [
            "checkpoint.npz array b1: dtype <f8 in A, <f4 in B",
            f"checkpoint.npz array b2: shape ({n_tags},) in A, ({n_tags - 1},) in B",
            "checkpoint.npz array extra: only in B", "checkpoint.npz array rows: only in A",
            "checkpoint.npz array w1: contents differ",
            "soft.bin: only in A", "trace_self_train.csv: contents differ",
            "7 difference(s)"]
