"""End-to-end command line tests, all driven through cli.main in process."""

import csv
import hashlib
import json
import os
import shutil
import sys

import pytest

from partialner import cli
from partialner.bde import LineageRecord
from partialner.corpus import infer_scheme, parse_conll
from partialner.experiment import RESULT_COLUMNS, parse_summary
from partialner.tagger import load_checkpoint

FAST_TAGGER = {"embed_dim": 8, "window": 1, "hidden_dim": 12, "hash_buckets": 1024,
               "learning_rate": 0.3, "max_epochs": 4, "patience": 4}


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
    ], ids=["misspelled-key", "bde-k-1", "self-train-epochs-0", "patience-0"])
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
    ], ids=["self-train-epochs-0", "refresh-period-0", "patience-0"])
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

    @pytest.mark.parametrize("tamper", ["overlap", "unreadable"])
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
        else:
            path.write_text("record,fold,sentence_ids\nscored,0,x\n")
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
