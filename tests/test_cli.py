"""End-to-end command line tests, all driven through cli.main in process."""

import csv
import hashlib
import json
import os
import shutil
import sys

import numpy as np
import pytest

from partialner import cli
from partialner.bde import LineageRecord
from partialner.corpus import infer_scheme, parse_conll
from partialner.experiment import RESULT_COLUMNS, parse_summary
from partialner.tagger import load_checkpoint

from conftest import full_params, save_v1_checkpoint

FAST_TAGGER = {"embed_dim": 8, "window": 1, "hidden_dim": 12, "hash_buckets": 1024,
               "learning_rate": 0.3, "max_epochs": 4, "patience": 4}
# SHA-256 of (dtype, shape) and the bytes of each checkpoint array that
# `train --seed 0` writes on the `workdir` corpora, per method
PINNED_CHECKPOINTS = {
    "supervised": {
        "magic": "b2c3a9ca6975fa5a550547d98613b301e0d6a293b83fef14f13b64845a599b2b",
        "config": "a401b4daf77003ac432ad8683a7e0c09edcdca047f1a6f3d6dd91487c4f48bdc",
        "categories": "1f2a8669ea101fb40392b5ed2791aec6087eda4febe8525e4943f96c69efe89d",
        "rows": "a7e9b9df617b6628e294552976e27528246d394319dae91437675fc71a47f126",
        "embed": "1f461ccb7c7bcfee5f1d7b0949f69d9350e000b1c3bc1529194b03ab01e96315",
        "w1": "2458cf7cd86184cedd6fef9c5e5a616862668dcf667223689f21d473e73383f2",
        "b1": "96e171a2720623c96ff79723292e1dafc52d40729c196142b4d25648a00d2e8c",
        "w2": "6ece88fa41b900e28b4d582ca843f6b3cd5f44d35efaae75c405788bd210f512",
        "b2": "6a8d090781b09fbc8fe9426ae3646aaa1cac46270cc57c8838a2cdf402ecd146",
    },
    "bond": {
        "magic": "b2c3a9ca6975fa5a550547d98613b301e0d6a293b83fef14f13b64845a599b2b",
        "config": "a401b4daf77003ac432ad8683a7e0c09edcdca047f1a6f3d6dd91487c4f48bdc",
        "categories": "1f2a8669ea101fb40392b5ed2791aec6087eda4febe8525e4943f96c69efe89d",
        "rows": "a7e9b9df617b6628e294552976e27528246d394319dae91437675fc71a47f126",
        "embed": "1f461ccb7c7bcfee5f1d7b0949f69d9350e000b1c3bc1529194b03ab01e96315",
        "w1": "2458cf7cd86184cedd6fef9c5e5a616862668dcf667223689f21d473e73383f2",
        "b1": "96e171a2720623c96ff79723292e1dafc52d40729c196142b4d25648a00d2e8c",
        "w2": "6ece88fa41b900e28b4d582ca843f6b3cd5f44d35efaae75c405788bd210f512",
        "b2": "6a8d090781b09fbc8fe9426ae3646aaa1cac46270cc57c8838a2cdf402ecd146",
    },
    "guided_bond": {
        "magic": "b2c3a9ca6975fa5a550547d98613b301e0d6a293b83fef14f13b64845a599b2b",
        "config": "a401b4daf77003ac432ad8683a7e0c09edcdca047f1a6f3d6dd91487c4f48bdc",
        "categories": "1f2a8669ea101fb40392b5ed2791aec6087eda4febe8525e4943f96c69efe89d",
        "rows": "a7e9b9df617b6628e294552976e27528246d394319dae91437675fc71a47f126",
        "embed": "1f461ccb7c7bcfee5f1d7b0949f69d9350e000b1c3bc1529194b03ab01e96315",
        "w1": "2458cf7cd86184cedd6fef9c5e5a616862668dcf667223689f21d473e73383f2",
        "b1": "96e171a2720623c96ff79723292e1dafc52d40729c196142b4d25648a00d2e8c",
        "w2": "6ece88fa41b900e28b4d582ca843f6b3cd5f44d35efaae75c405788bd210f512",
        "b2": "6a8d090781b09fbc8fe9426ae3646aaa1cac46270cc57c8838a2cdf402ecd146",
    },
    "bde:guided_bond+supervised": {
        "magic": "b2c3a9ca6975fa5a550547d98613b301e0d6a293b83fef14f13b64845a599b2b",
        "config": "298afaa238a5e2fb6af94f3fecb17ab62d75675b71ecffd0ca33face5bbfa31f",
        "categories": "1f2a8669ea101fb40392b5ed2791aec6087eda4febe8525e4943f96c69efe89d",
        "rows": "a7e9b9df617b6628e294552976e27528246d394319dae91437675fc71a47f126",
        "embed": "e6cf938170110362c490aaced8cb92d76fc08649a1f9ec3b16c4dab62e5de4a3",
        "w1": "a38d7e59286f2cc839974474eb7394799a34bb94c20f3fe4d2190240ccd743c3",
        "b1": "96e171a2720623c96ff79723292e1dafc52d40729c196142b4d25648a00d2e8c",
        "w2": "3fd9fb98281ccaabe0e116fc9c8870c2c8ef36f7ee56b8f5d5221e57a2bb8625",
        "b2": "6a8d090781b09fbc8fe9426ae3646aaa1cac46270cc57c8838a2cdf402ecd146",
    },
    "bde:guided_bond+guided_bond": {
        "magic": "b2c3a9ca6975fa5a550547d98613b301e0d6a293b83fef14f13b64845a599b2b",
        "config": "298afaa238a5e2fb6af94f3fecb17ab62d75675b71ecffd0ca33face5bbfa31f",
        "categories": "1f2a8669ea101fb40392b5ed2791aec6087eda4febe8525e4943f96c69efe89d",
        "rows": "a7e9b9df617b6628e294552976e27528246d394319dae91437675fc71a47f126",
        "embed": "e6cf938170110362c490aaced8cb92d76fc08649a1f9ec3b16c4dab62e5de4a3",
        "w1": "a38d7e59286f2cc839974474eb7394799a34bb94c20f3fe4d2190240ccd743c3",
        "b1": "96e171a2720623c96ff79723292e1dafc52d40729c196142b4d25648a00d2e8c",
        "w2": "3fd9fb98281ccaabe0e116fc9c8870c2c8ef36f7ee56b8f5d5221e57a2bb8625",
        "b2": "6a8d090781b09fbc8fe9426ae3646aaa1cac46270cc57c8838a2cdf402ecd146",
    },
}
# the same digest of the full (hash_buckets, embed_dim) table, the `embed` of
# the v1 checkpoints that `train` wrote before checkpoints held `rows`
PINNED_V1_TABLES = {
    "supervised":
        "f5ec691ccb6287560d6ed13d05e48d73ad8d450e69428e21c2d4176252ef7511",
    "bond":
        "f5ec691ccb6287560d6ed13d05e48d73ad8d450e69428e21c2d4176252ef7511",
    "guided_bond":
        "f5ec691ccb6287560d6ed13d05e48d73ad8d450e69428e21c2d4176252ef7511",
    "bde:guided_bond+supervised":
        "85fdff5cf477f6030bd2936397c7304f9d365fb95eb9b72022baf351661d529e",
    "bde:guided_bond+guided_bond":
        "85fdff5cf477f6030bd2936397c7304f9d365fb95eb9b72022baf351661d529e",
}


def array_digest(arr):
    return hashlib.sha256(repr((arr.dtype.str, arr.shape)).encode() + arr.tobytes()).hexdigest()


def read_corpus(path):
    text = open(path, encoding="utf-8").read()
    return parse_conll(text, infer_scheme(text), os.path.basename(path))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic train/dev/test CoNLL files plus a masked training set."""
    root = tmp_path_factory.mktemp("cli")
    for name, n, seed in (("train", 40, 3), ("dev", 20, 4), ("test", 20, 5)):
        rc = cli.main(["synth", "--out", str(root / f"{name}.conll"),
                       "--n-sentences", str(n), "--seed", str(seed)])
        assert rc == 0
    rc = cli.main(["mask", str(root / "train.conll"), "--fraction", "0.5",
                   "--seed", "9", "--out", str(root / "masked.conll"),
                   "--kept-out", str(root / "kept.csv")])
    assert rc == 0
    train_cfg = root / "train_config.json"
    train_cfg.write_text(json.dumps({"tagger": FAST_TAGGER, "self_train_epochs": 2}))
    return root


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.main(["transmogrify"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["mask", str(tmp_path / "nope.conll"),
                       "--fraction", "0.5", "--out", str(tmp_path / "out.conll")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_config_error_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_such_key": 1}))
        rc = cli.main(["synth", "--config", str(bad),
                       "--out", str(tmp_path / "c.conll")])
        assert rc == 2
        assert "unknown synth config keys" in capsys.readouterr().err

    def test_bad_synth_categories_are_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "synth.json"
        bad.write_text(json.dumps({"categories": []}))
        rc = cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "c.conll")])
        assert rc == 2
        assert "error: LabelScheme needs at least one category" in capsys.readouterr().err
        assert not (tmp_path / "c.conll").exists()

    def test_json_array_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "synth.json"
        bad.write_text(json.dumps([["n_sentences", 5]]))
        rc = cli.main(["synth", "--config", str(bad), "--out", str(tmp_path / "c.conll")])
        assert rc == 2
        assert f"{bad}: expected a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "c.conll").exists()

    def test_non_json_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "experiment.json"
        bad.write_text("fractions: [0.5]\n")
        rc = cli.main(["experiment", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert f"{bad}: not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("fraction", ["1.5", "-0.1", "nan"])
    def test_fraction_outside_unit_interval_is_usage_error(self, workdir, tmp_path,
                                                           capsys, fraction):
        rc = cli.main(["mask", str(workdir / "train.conll"), "--fraction", fraction,
                       "--out", str(tmp_path / "m.conll")])
        assert rc == 2
        assert "outside [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "m.conll").exists()

    @pytest.mark.parametrize("method,config,message", [
        ("supervised", {"self_train_epoch": 999}, "unknown experiment config keys"),
        ("bde:supervised+supervised", {"bde_k": 1}, "bde_k must be >= 2"),
        ("bond", {"self_train_epochs": 0}, "self_train_epochs must be >= 1"),
        ("supervised", {"tagger": {"patience": 0}}, "patience must be >= 1"),
        ("bond", {"self_train_epochs": 1.5}, "self_train_epochs must be int, got 1.5"),
    ], ids=["misspelled-key", "bde-k-1", "self-train-epochs-0", "patience-0",
            "self-train-epochs-float"])
    def test_bad_train_config_is_usage_error(self, workdir, tmp_path, capsys,
                                             method, config, message):
        bad = tmp_path / "train.json"
        bad.write_text(json.dumps(config))
        rc = cli.main(["train", "--method", method,
                       "--train", str(workdir / "masked.conll"),
                       "--dev", str(workdir / "dev.conll"),
                       "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config,message", [
        ({"self_train_epochs": 0}, "self_train_epochs must be >= 1"),
        ({"teacher_refresh_period": 0}, "teacher_refresh_period must be >= 1"),
        ({"tagger": {"patience": 0}}, "patience must be >= 1"),
        ({"seeds": "ab"}, "seeds must be tuple[int, ...], got 'ab'"),
        ({"self_train_epochs": 1.5}, "self_train_epochs must be int, got 1.5"),
        ({"tagger": {"max_epochs": 2.5}}, "tagger: max_epochs must be int, got 2.5"),
        ({"dev_sentences": 0}, "dev_sentences and test_sentences must be >= 1"),
        ({"fractions": 0.1}, "fractions must be tuple[float, ...], got 0.1"),
        ({"synth": [1]}, "synth: 'list' object is not a mapping"),
        ({"synth": {"n_sentences": "x"}}, "synth: n_sentences must be int, got 'x'"),
        ({"synth": {"categories": "PER"}}, "synth: categories must be tuple[str, ...], got 'PER'"),
        ({"mask_seed": "a"}, "mask_seed must be int, got 'a'"),
        ({"synth": {"n_sentences": 0}}, "synth: n_sentences must be >= 1"),
        ({"synth": {"gazetteers": {"PER": "Bob"}}},
         "synth: gazetteers must be Mapping[str, tuple[str, ...]] | None, got {'PER': 'Bob'}"),
        ({"synth": {"gazetteers": ["PER"]}},
         "synth: gazetteers must be Mapping[str, tuple[str, ...]] | None, got ['PER']"),
        ({"synth": {"categories": []}}, "synth: LabelScheme needs at least one category"),
    ], ids=["self-train-epochs-0", "refresh-period-0", "patience-0", "seeds-string",
            "self-train-epochs-float", "max-epochs-float", "dev-sentences-0",
            "fractions-number", "synth-list", "synth-n-sentences-string",
            "synth-categories-string", "mask-seed-string", "synth-n-sentences-0",
            "synth-gazetteer-string", "synth-gazetteers-list", "synth-no-categories"])
    def test_bad_experiment_config_is_usage_error(self, tmp_path, capsys, config, message):
        # rejected before any cell runs, not reported per cell with exit 0
        bad = tmp_path / "experiment.json"
        bad.write_text(json.dumps({
            "synth": {"n_sentences": 20, "seed": 1}, "dev_sentences": 10,
            "test_sentences": 10, "fractions": [0.5], "seeds": [0],
            "methods": ["bond"], "workers": 1, **config}))
        rc = cli.main(["experiment", "--config", str(bad), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_parse_error_is_usage_error(self, tmp_path, capsys):
        mangled = tmp_path / "mangled.conll"
        mangled.write_text("just-one-column\n")
        rc = cli.main(["mask", str(mangled), "--fraction", "0.5",
                       "--out", str(tmp_path / "m.conll")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("dev_text", ["Oslo B-LOC\nbad\n", "Oslo B-LOC\nBergen X-LOC\n"],
                             ids=["one-column", "bad-tag"])
    def test_conll_error_names_its_file_and_line(self, workdir, tmp_path, capsys, dev_text):
        bad = tmp_path / "bad_dev.conll"
        bad.write_text(dev_text)
        rc = cli.main(["train", "--method", "supervised", "--train", str(workdir / "masked.conll"),
                       "--dev", str(bad), "--config", str(workdir / "train_config.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {bad}: line 2: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_error_exits_one(self, tmp_path, capsys):
        not_npz = tmp_path / "model.npz"
        not_npz.write_text("this is not a checkpoint")
        corpus = tmp_path / "c.conll"
        corpus.write_text("Anna B-PER\n\n")
        rc = cli.main(["eval", str(not_npz), str(corpus)])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestSynthAndMask:
    def test_synth_output_parses(self, workdir, capsys):
        corpus = read_corpus(workdir / "train.conll")
        assert len(corpus) == 40
        assert corpus.total_entities() > 0

    def test_synth_writes_an_empty_corpus(self, tmp_path, capsys):
        out = tmp_path / "empty.conll"
        assert cli.main(["synth", "--out", str(out), "--n-sentences", "0"]) == 0
        assert "wrote 0 sentences" in capsys.readouterr().out
        assert out.read_text().strip() == ""

    def test_synth_is_deterministic_per_seed(self, workdir, tmp_path, capsys):
        rc = cli.main(["synth", "--out", str(tmp_path / "again.conll"),
                       "--n-sentences", "40", "--seed", "3"])
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "again.conll").read_text() == \
               (workdir / "train.conll").read_text()

    def test_mask_keeps_exact_fraction(self, workdir):
        full = read_corpus(workdir / "train.conll")
        masked = read_corpus(workdir / "masked.conll")
        want = round(0.5 * full.total_entities())
        assert masked.total_entities() == want
        with open(workdir / "kept.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == want

    def test_masked_tokens_are_unchanged(self, workdir):
        full = read_corpus(workdir / "train.conll")
        masked = read_corpus(workdir / "masked.conll")
        assert [s.tokens for s in masked.sentences] == \
               [s.tokens for s in full.sentences]


@pytest.fixture(scope="module")
def trained(workdir):
    out = workdir / "run_supervised"
    rc = cli.main(["train", "--method", "supervised",
                   "--train", str(workdir / "masked.conll"),
                   "--dev", str(workdir / "dev.conll"),
                   "--config", str(workdir / "train_config.json"),
                   "--seed", "0", "--out", str(out)])
    assert rc == 0
    return out


class TestTrainAndEval:
    def test_train_writes_checkpoint_and_trace(self, trained):
        assert (trained / "checkpoint.npz").exists()
        trace = (trained / "trace_ner_fit.csv").read_text().splitlines()
        assert trace[0] == "stage,iteration,val_f1,teacher_refresh"
        assert len(trace) >= 2
        assert not (trained / "soft.bin").exists()  # audit files are bde:-only
        assert not (trained / "lineage.csv").exists()

    def test_seed_flag_sets_the_model_seed(self, workdir, tmp_path, capsys):
        rc = cli.main(["train", "--method", "supervised",
                       "--train", str(workdir / "masked.conll"),
                       "--dev", str(workdir / "dev.conll"),
                       "--config", str(workdir / "train_config.json"),
                       "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        assert load_checkpoint(str(tmp_path / "checkpoint.npz")).config.seed == 7

    def test_bde_train_writes_audit_files(self, workdir):
        out = workdir / "run_bde"
        rc = cli.main(["train", "--method", "bde:supervised+supervised",
                       "--train", str(workdir / "masked.conll"),
                       "--dev", str(workdir / "dev.conll"),
                       "--config", str(workdir / "train_config.json"),
                       "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert (out / "checkpoint.npz").exists()
        assert (out / "soft.bin").exists()
        LineageRecord.read_csv(str(out / "lineage.csv")).verify()

    def test_rerun_keeps_only_its_own_files(self, workdir, tmp_path, capsys):
        for method in ("bde:guided_bond+guided_bond", "supervised"):
            rc = cli.main(["train", "--method", method,
                           "--train", str(workdir / "masked.conll"),
                           "--dev", str(workdir / "dev.conll"),
                           "--config", str(workdir / "train_config.json"),
                           "--seed", "0", "--out", str(tmp_path)])
            assert rc == 0
        capsys.readouterr()
        assert sorted(os.listdir(tmp_path)) == ["checkpoint.npz", "trace_ner_fit.csv"]

    def test_bde_audit_files_are_pinned(self, workdir, capsys):
        """soft.bin and lineage.csv of a guided cross-fit run, byte for byte."""
        out = workdir / "run_bde_gb_gb"
        rc = cli.main(["train", "--method", "bde:guided_bond+guided_bond",
                       "--train", str(workdir / "masked.conll"),
                       "--dev", str(workdir / "dev.conll"),
                       "--config", str(workdir / "train_config.json"),
                       "--seed", "0", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()

        def digest(name):
            return hashlib.sha256((out / name).read_bytes()).hexdigest()

        assert digest("soft.bin") == \
            "0d721eed8ad8e7be766d44abd37de774401747134ffb92c2749f1819d30b3333"
        assert digest("lineage.csv") == \
            "ed15e5d717956e98e6b4304af01da018fd628ef3e915f10716abeb508f0a07d4"

    @pytest.mark.parametrize("method", list(PINNED_CHECKPOINTS))
    def test_checkpoint_arrays_are_pinned(self, workdir, tmp_path, capsys, method):
        """Every array of the checkpoint `train` writes, byte for byte."""
        rc = cli.main(["train", "--method", method,
                       "--train", str(workdir / "masked.conll"),
                       "--dev", str(workdir / "dev.conll"),
                       "--config", str(workdir / "train_config.json"),
                       "--seed", "0", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        with np.load(tmp_path / "checkpoint.npz", allow_pickle=False) as z:
            got = {name: array_digest(z[name]) for name in z.files}
        assert got == PINNED_CHECKPOINTS[method]
        # the held rows are those of the table that v1 checkpoints held
        table = full_params(load_checkpoint(str(tmp_path / "checkpoint.npz")))["embed"]
        assert array_digest(table) == PINNED_V1_TABLES[method]

    def test_eval_prints_the_same_bytes_from_a_v1_checkpoint(self, workdir, trained,
                                                               tmp_path, capsys):
        v2 = str(trained / "checkpoint.npz")
        v1 = str(tmp_path / "v1.npz")
        save_v1_checkpoint(load_checkpoint(v2), v1)
        printed = []
        for path in (v2, v1):
            assert cli.main(["eval", path, str(workdir / "test.conll"), "--per-category"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert len(printed[0].splitlines()) == 5  # micro and three categories
        assert os.path.getsize(v2) < os.path.getsize(v1) / 2

    def test_eval_stdout(self, workdir, trained, capsys):
        rc = cli.main(["eval", str(trained / "checkpoint.npz"),
                       str(workdir / "test.conll")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "category,precision,recall,f1"
        name, p, r, f1 = lines[1].split(",")
        assert name == "micro"
        assert 0.0 <= float(f1) <= 1.0

    def test_eval_per_category_file(self, workdir, trained, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        rc = cli.main(["eval", str(trained / "checkpoint.npz"),
                       str(workdir / "test.conll"), "--per-category",
                       "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()
        assert rows[0] == "category,precision,recall,f1"
        assert rows[1].startswith("micro,")
        assert len(rows) > 2  # at least one category row follows


def experiment_config(workdir, out_dir):
    return {
        "synth": {"n_sentences": 50, "seed": 21},
        "dev_sentences": 15, "test_sentences": 15,
        "fractions": [0.3], "seeds": [0, 1], "methods": ["supervised"],
        "tagger": FAST_TAGGER, "self_train_epochs": 2, "workers": 1,
        "out_dir": str(out_dir),
    }


@pytest.fixture(scope="module")
def experiment_run(workdir):
    out_dir = workdir / "expA"
    cfg_path = workdir / "experiment.json"
    cfg_path.write_text(json.dumps(experiment_config(workdir, out_dir)))
    rc = cli.main(["experiment", "--config", str(cfg_path)])
    assert rc == 0
    return cfg_path, out_dir


@pytest.fixture(scope="module")
def bde_run(workdir):
    """A run with a mask sidecar and a lineage file."""
    out_dir = workdir / "expBde"
    cfg = dict(experiment_config(workdir, out_dir), seeds=[0],
               methods=["supervised", "bde:supervised+supervised"])
    cfg_path = workdir / "bde_experiment.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
    assert os.listdir(out_dir / "masks") and os.listdir(out_dir / "lineage")
    return out_dir


def file_bytes(root):
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*")}


class TestExperimentAndReport:
    def test_out_dir_from_config_json(self, experiment_run):
        _, out_dir = experiment_run
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "summary.md").exists()

    def test_results_have_expected_cells(self, experiment_run):
        _, out_dir = experiment_run
        with open(out_dir / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(RESULT_COLUMNS)
        assert len(rows) == 3  # header + 2 seeds

    def test_seed_flag_overrides_mask_seed(self, workdir, experiment_run, capsys):
        cfg_path, _ = experiment_run
        out_dir = workdir / "expSeed"
        rc = cli.main(["experiment", "--config", str(cfg_path),
                       "--out", str(out_dir), "--seed", "777"])
        assert rc == 0
        capsys.readouterr()
        echoed = json.loads((out_dir / "config_echo.json").read_text())
        assert echoed["mask_seed"] == 777

    def test_rerun_is_identical_excluding_wall_ms(self, workdir, experiment_run, capsys):
        cfg_path, out_dir = experiment_run
        second = workdir / "expB"
        rc = cli.main(["experiment", "--config", str(cfg_path),
                       "--out", str(second)])
        assert rc == 0
        capsys.readouterr()
        wall = RESULT_COLUMNS.index("wall_ms")

        def rows_sans_wall(path):
            with open(path, newline="") as fh:
                return [r[:wall] + r[wall + 1:] for r in csv.reader(fh)]

        assert rows_sans_wall(second / "results.csv") == \
               rows_sans_wall(out_dir / "results.csv")

    def test_report_accepts_honest_run(self, experiment_run, capsys):
        _, out_dir = experiment_run
        assert cli.main(["report", str(out_dir)]) == 0
        assert "report OK" in capsys.readouterr().out

    @pytest.mark.parametrize("tamper", ["overlap", "unreadable", "repeated-row"])
    def test_report_rejects_tampered_lineage(self, workdir, tmp_path, capsys, tamper):
        cfg = experiment_config(workdir, tmp_path / "bde")
        cfg.update(seeds=[0], methods=["bde:supervised+supervised"])
        cfg_path = tmp_path / "bde.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        assert cli.main(["report", str(tmp_path / "bde")]) == 0
        capsys.readouterr()
        (path,) = (tmp_path / "bde" / "lineage").iterdir()
        record = LineageRecord.read_csv(str(path))
        if tamper == "overlap":  # fold 0 also trains on a sentence it scores
            record.fold_train_ids[0].append(record.fold_scored_ids[0][0])
            record.write_csv(str(path))
        elif tamper == "unreadable":
            path.write_text("record,fold,sentence_ids\nscored,0,x\n")
        else:  # the last row again: read back, the record itself would still verify
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines + lines[-1:]))
        rc = cli.main(["report", str(tmp_path / "bde")])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"MISMATCH lineage/{path.name}: " in out

    @pytest.mark.parametrize("fault", ["truncated", "non-gold", "duplicated", "missing"])
    def test_report_rejects_tampered_sidecar(self, experiment_run, tmp_path, capsys,
                                             tamper_sidecar, fault):
        _, out_dir = experiment_run
        run = tmp_path / "run"
        shutil.copytree(out_dir, run)
        (sidecar,) = (run / "masks").iterdir()
        if fault == "missing":
            sidecar.unlink()
        else:
            tamper_sidecar(str(sidecar), fault)
        rc = cli.main(["report", str(run)])
        out = capsys.readouterr().out
        assert rc == 1
        (line,) = out.splitlines()
        assert line.startswith(f"MISMATCH masks/{sidecar.name}: ")

    def test_report_rejects_tampered_summary(self, experiment_run, tmp_path, capsys):
        _, out_dir = experiment_run
        bad = tmp_path / "tampered"
        shutil.copytree(out_dir, bad)  # masks and lineage stay valid
        summary = (out_dir / "summary.md").read_text()
        stats = parse_summary(str(out_dir / "summary.md"))
        key, (mean, _, _) = next(iter(stats.items()))
        (bad / "summary.md").write_text(summary.replace(repr(mean), "0.123", 1))
        rc = cli.main(["report", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        (line,) = out.splitlines()
        assert line.startswith(f"MISMATCH {key}: recomputed mean={mean!r}")

    def test_report_rejects_a_nan_in_the_summary(self, experiment_run, tmp_path, capsys):
        _, out_dir = experiment_run
        bad = tmp_path / "nan"
        shutil.copytree(out_dir, bad)
        summary = (out_dir / "summary.md").read_text()
        key, (mean, std, _) = next(iter(parse_summary(str(out_dir / "summary.md")).items()))
        (bad / "summary.md").write_text(summary.replace(f"{mean!r} ± {std!r}", "nan ± nan", 1))
        rc = cli.main(["report", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        (line,) = out.splitlines()
        assert line.startswith(f"MISMATCH {key}: recomputed mean={mean!r}")
        assert line.endswith("summary mean=nan std=nan n=2")

    @pytest.mark.parametrize("tolerance", ["nan", "-1e-09"])
    def test_report_rejects_a_nan_or_negative_tolerance(self, experiment_run, capsys,
                                                        tolerance):
        _, out_dir = experiment_run
        assert cli.main(["report", str(out_dir), f"--tolerance={tolerance}"]) == 2
        assert f"--tolerance {float(tolerance)!r} must be >= 0" in capsys.readouterr().err

    def test_report_passes_after_a_rerun_with_another_mask_seed(
            self, experiment_run, tmp_path, capsys):
        cfg_path, out_dir = experiment_run
        run = tmp_path / "run"
        shutil.copytree(out_dir, run)
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(run),
                         "--seed", "777"]) == 0
        (sidecar,) = (run / "masks").iterdir()  # the first run's sidecar is gone
        assert sidecar.name.endswith("_s777.csv")
        assert cli.main(["report", str(run)]) == 0
        capsys.readouterr()

    def test_rerun_keeps_no_earlier_lineage(self, workdir, tmp_path, capsys):
        cfg = dict(experiment_config(workdir, tmp_path / "run"), seeds=[0])
        cfg_path = tmp_path / "run.json"
        for methods in (["bde:supervised+supervised"], ["supervised"]):
            cfg_path.write_text(json.dumps(dict(cfg, methods=methods)))
            assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        assert os.listdir(tmp_path / "run" / "lineage") == []
        assert cli.main(["report", str(tmp_path / "run")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fault", ["missing-train-path", "unknown-slot"])
    def test_bad_input_leaves_the_earlier_run(self, workdir, bde_run, tmp_path, capsys,
                                              fault, workers):
        """Corpora that cannot be read or generated end the run with the real
        error, at any worker count, before it changes its run directory."""
        run = tmp_path / "run"
        shutil.copytree(bde_run, run)
        cfg = dict(experiment_config(workdir, run), workers=workers)
        if fault == "missing-train-path":
            del cfg["synth"]
            cfg.update(train_path=str(tmp_path / "nope.conll"),
                       dev_path=str(workdir / "dev.conll"), test_path=str(workdir / "test.conll"))
            message = f"error: [Errno 2] No such file or directory: '{tmp_path / 'nope.conll'}'"
        else:  # the default templates also have {LOC}, {ORG} and {MISC} slots
            cfg["synth"] = dict(cfg["synth"], categories=["PER"])
            message = "error: template slot '{LOC}' names an unknown category"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["experiment", "--config", str(cfg_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        for name in ("masks", "lineage"):
            assert file_bytes(run / name) == file_bytes(bde_run / name)
        assert cli.main(["report", str(run)]) == 0
        capsys.readouterr()

    def test_report_runs_from_another_directory(self, workdir, tmp_path, monkeypatch,
                                                 capsys):
        cfg = experiment_config(workdir, tmp_path / "run")
        del cfg["synth"]
        cfg.update(seeds=[0], train_path="train.conll", dev_path="dev.conll",
                   test_path="test.conll")
        cfg_path = tmp_path / "paths.json"
        cfg_path.write_text(json.dumps(cfg))
        monkeypatch.chdir(workdir)  # the config's paths are relative to here
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        echoed = json.loads((tmp_path / "run" / "config_echo.json").read_text())
        assert echoed["train_path"] == str(workdir / "train.conll")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["report", str(tmp_path / "run")]) == 0
        capsys.readouterr()


def test_commands_never_decode_sentence_by_sentence(workdir, tmp_path, monkeypatch, capsys):
    """Masking, training and the experiment read gold spans from one decoder,
    `evaluation.gold_spans`, never from per-sentence `decode_bio`."""
    def refuse(*args, **kwargs):
        raise AssertionError("decode_bio called")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "partialner" and hasattr(module, "decode_bio"):
            monkeypatch.setattr(module, "decode_bio", refuse)
    masked = tmp_path / "masked.conll"
    assert cli.main(["mask", str(workdir / "train.conll"), "--fraction", "0.3",
                     "--out", str(masked)]) == 0
    for method in ("supervised", "guided_bond", "bde:bond+guided_bond"):
        assert cli.main(["train", "--method", method, "--train", str(masked),
                         "--dev", str(workdir / "dev.conll"),
                         "--config", str(workdir / "train_config.json"),
                         "--out", str(tmp_path / method.replace(":", "_"))]) == 0
    cfg = experiment_config(workdir, tmp_path / "exp")
    cfg.update(seeds=[0], methods=["supervised", "bond", "guided_bond",
                                   "bde:supervised+guided_bond"])
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
    with open(tmp_path / "exp" / "results.csv", newline="") as fh:
        assert [row["error"] for row in csv.DictReader(fh)] == [""] * 4
    assert cli.main(["report", str(tmp_path / "exp")]) == 0
    capsys.readouterr()
