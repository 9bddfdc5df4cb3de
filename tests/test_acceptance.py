"""Acceptance gate: exact property suites plus benchmark trend checks.

Each test prints one PASS/FAIL line with the measured numbers (written
straight to the real stdout so the lines survive pytest's capture) and then
asserts.  The benchmark matrix runs once as a session fixture; the whole
module takes a few minutes single threaded.
"""

import csv
import json
import os
import sys
import time

import numpy as np
import pytest

from partialner import cli
from partialner.annotation import (
    EMPTY_ANNOTATIONS,
    EntityAnnotationSet,
    guide_correct,
    mask_entities,
    one_hot_rows,
    partial_from_labels,
)
from partialner.bde import LineageRecord
from partialner.corpus import EntitySpan, Sentence, SynthConfig, generate_synthetic
from partialner.evaluation import span_f1
from partialner.experiment import (
    RESULT_COLUMNS,
    ExperimentConfig,
    MethodSpec,
    load_corpora,
    run_cell,
    write_summary,
)
from partialner.selftrain import run_method
from partialner.tagger import TaggerConfig, TaggerModel, finite_difference_check

SEEDS = (0, 1, 2, 3, 4)
MATRIX_EPOCHS = 60  # benchmark self-training length; the guided runs have
                    # flattened out by here while the default 20 is still climbing
PLAIN_CELLS = {
    "supervised": (0.05, 0.1, 0.5),
    "bond": (0.05, 0.1, 0.15),
    "guided_bond": (0.05, 0.1, 0.15),
}
BDE_FRACTION = 0.05
BDE_METHODS = ("bde:guided_bond+supervised", "bde:guided_bond+guided_bond")


_CAPTURE = None


@pytest.fixture(scope="session", autouse=True)
def _criterion_lines(request):
    """Let the PASS/FAIL lines through pytest's output capture."""
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPTURE = None


def _emit(line: str) -> None:
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def report(ok: bool, label: str, detail: str) -> None:
    _emit(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def progress(msg: str) -> None:
    _emit(f"  [benchmark] {msg}")


@pytest.fixture(scope="session")
def bench_config():
    return ExperimentConfig(self_train_epochs=MATRIX_EPOCHS)


@pytest.fixture(scope="session")
def bench_corpora(bench_config):
    return load_corpora(bench_config)


@pytest.fixture(scope="session")
def gold_run(bench_config, bench_corpora):
    """Supervised training on the fully labelled benchmark corpus, timed."""
    train, dev, test = bench_corpora
    start = time.perf_counter()
    out = run_method("supervised", partial_from_labels(train), dev,
                     bench_config.with_seed(0))
    from partialner.evaluation import evaluate_model
    f1 = evaluate_model(out.model, test).f1
    return f1, time.perf_counter() - start


@pytest.fixture(scope="session")
def matrix(bench_config, bench_corpora, tmp_path_factory):
    """All benchmark cells the trend criteria need, plus lineage artifacts."""
    train, dev, test = bench_corpora
    lineage_dir = str(tmp_path_factory.mktemp("lineage"))
    fractions = sorted({f for fs in PLAIN_CELLS.values() for f in fs} | {BDE_FRACTION})
    masks = {f: mask_entities(train, f, bench_config.mask_seed) for f in fractions}
    cells = {}
    start = time.perf_counter()
    for method, fracs in PLAIN_CELLS.items():
        for f in fracs:
            partial, kept = masks[f]
            for seed in SEEDS:
                rec = run_cell(MethodSpec.parse(method), partial, len(kept),
                               dev, test, bench_config, f, seed)
                assert rec.error == "", f"{method}@{f} seed {seed}: {rec.error}"
                cells[(method, f, seed)] = rec
            progress(f"{method} fraction {f} done")
    partial, kept = masks[BDE_FRACTION]
    for method in BDE_METHODS:
        for seed in SEEDS:
            rec = run_cell(MethodSpec.parse(method), partial, len(kept),
                           dev, test, bench_config, BDE_FRACTION, seed,
                           lineage_dir=lineage_dir)
            assert rec.error == "", f"{method} seed {seed}: {rec.error}"
            cells[(method, BDE_FRACTION, seed)] = rec
        progress(f"{method} fraction {BDE_FRACTION} done")
    elapsed = time.perf_counter() - start
    return cells, elapsed, lineage_dir


def f1s(cells, method, fraction):
    return [cells[(method, fraction, s)].f1 for s in SEEDS]


def mean_std(cells, method, fraction):
    vals = f1s(cells, method, fraction)
    return float(np.mean(vals)), float(np.std(vals))


# --- exact property suites ---------------------------------------------------

def random_guidance_instance(rng, scheme):
    length = int(rng.integers(1, 26))
    c = scheme.tag_count
    dists = rng.random((length, c)) + 1e-3
    dists /= dists.sum(axis=1, keepdims=True)
    labels = [0] * length
    spans = []
    k = 0
    while k < length:
        if rng.random() < 0.35:
            width = int(rng.integers(1, min(3, length - k) + 1))
            cat = scheme.categories[int(rng.integers(len(scheme.categories)))]
            spans.append(EntitySpan(k, k + width, cat))
            labels[k] = scheme.b_index(cat)
            for j in range(k + 1, k + width):
                labels[j] = scheme.i_index(cat)
            k += width
        k += 1
    return dists, EntityAnnotationSet(tuple(spans)), labels


def full_coverage_instance(rng, scheme):
    length = int(rng.integers(1, 20))
    spans, labels, k = [], [], 0
    while k < length:
        width = int(rng.integers(1, min(3, length - k) + 1))
        cat = scheme.categories[int(rng.integers(len(scheme.categories)))]
        spans.append(EntitySpan(k, k + width, cat))
        labels += [scheme.b_index(cat)] + [scheme.i_index(cat)] * (width - 1)
        k += width
    dists = rng.random((length, scheme.tag_count)) + 1e-3
    dists /= dists.sum(axis=1, keepdims=True)
    return dists, EntityAnnotationSet(tuple(spans)), labels


def test_01_guidance_correction_properties(scheme):
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    for _ in range(1000):
        dists, known, labels = random_guidance_instance(rng, scheme)
        frozen = dists.copy()

        identity = guide_correct(dists, EMPTY_ANNOTATIONS, labels)
        assert identity is not dists
        np.testing.assert_array_equal(identity, dists)

        corrected = guide_correct(dists, known, labels)
        np.testing.assert_array_equal(dists, frozen)  # input never mutated
        covered = known.covered_indices(len(labels))
        mask = np.zeros(len(labels), dtype=bool)
        mask[covered] = True
        np.testing.assert_array_equal(corrected[~mask], dists[~mask])
        if covered.size:
            want = one_hot_rows([labels[k] for k in covered], scheme.tag_count)
            np.testing.assert_array_equal(corrected[mask], want)
        twice = guide_correct(corrected, known, labels)
        np.testing.assert_array_equal(twice, corrected)

        dists_f, known_f, labels_f = full_coverage_instance(rng, scheme)
        full = guide_correct(dists_f, known_f, labels_f)
        np.testing.assert_array_equal(
            full, one_hot_rows(labels_f, scheme.tag_count))
    elapsed = time.perf_counter() - start
    report(elapsed < 1.0, "01 guidance correction",
           f"1000 randomized instances, all four properties exact, "
           f"{elapsed:.2f}s (< 1s)")


def test_02_gradients_match_finite_differences(scheme):
    rng = np.random.default_rng(505)
    vocab = ["Anna", "b7", "rain", "Paris", "x9y", "the", "Fort", "mill",
             "Quill", "04", "під", "zz"]
    start = time.perf_counter()
    worst_overall = 0.0
    for trial in range(20):
        cfg = TaggerConfig(embed_dim=int(rng.integers(3, 7)),
                           window=int(rng.integers(0, 3)),
                           hidden_dim=int(rng.integers(4, 11)),
                           hash_buckets=int(rng.integers(32, 129)),
                           seed=trial)
        model = TaggerModel.init(cfg, scheme)
        sentences = []
        targets = []
        for _ in range(int(rng.integers(2, 4))):
            length = int(rng.integers(1, 6))
            tokens = tuple(vocab[int(i)] for i in rng.integers(0, len(vocab), length))
            sentences.append(Sentence(tokens))
            t = rng.random((length, scheme.tag_count)) + 0.1
            targets.append(t / t.sum(axis=1, keepdims=True))
        worst = finite_difference_check(model, sentences, targets)
        worst_overall = max(worst_overall, worst)
        assert worst < 1e-4, f"trial {trial}: relative error {worst}"
    elapsed = time.perf_counter() - start
    report(elapsed < 30.0 and worst_overall < 1e-4,
           "02 gradient finite differences",
           f"20 randomized models, worst relative error {worst_overall:.2e} "
           f"(< 1e-4), {elapsed:.1f}s (< 30s)")


def test_03_span_scorer_matches_oracle():
    cats = ("PER", "LOC", "ORG")
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(1, 7))
        pairs = []
        for _ in range(n):
            def sample():
                spans = set()
                for _ in range(int(rng.integers(0, 5))):
                    s = int(rng.integers(0, 12))
                    spans.add(EntitySpan(s, s + int(rng.integers(1, 4)),
                                         cats[int(rng.integers(3))]))
                return frozenset(spans)
            pairs.append((sample(), sample()))
        pred = [p for p, _ in pairs]
        gold = [g for _, g in pairs]
        res = span_f1(pred, gold)
        matches = sum(len(p & g) for p, g in pairs)
        assert res.match_count == matches
        assert res.predicted_count == sum(len(p) for p in pred)
        assert res.gold_count == sum(len(g) for g in gold)
        for cat in cats:
            m = sum(len({s for s in p if s.category == cat} &
                        {s for s in g if s.category == cat}) for p, g in pairs)
            np_ = sum(sum(1 for s in p if s.category == cat) for p in pred)
            ng = sum(sum(1 for s in g if s.category == cat) for g in gold)
            got = res.category_counts.get(cat, (0, 0, 0))
            assert got == (m, np_, ng)
    elapsed = time.perf_counter() - start
    report(elapsed < 5.0, "03 span scorer oracle",
           f"500 randomized sentence sets, exact count agreement, "
           f"{elapsed:.2f}s (< 5s)")


# --- benchmark trends ---------------------------------------------------------

@pytest.mark.slow
def test_04_gold_training_reaches_high_f1(gold_run):
    f1, seconds = gold_run
    report(f1 >= 0.90 and seconds < 300.0, "04 gold supervised",
           f"test F1 {f1:.4f} (>= 0.90), {seconds:.0f}s (< 300s)")


@pytest.mark.slow
def test_05_partial_labels_degrade_supervised(matrix):
    cells, _, _ = matrix
    low, _ = mean_std(cells, "supervised", 0.1)
    high, _ = mean_std(cells, "supervised", 0.5)
    report(low <= high - 0.05, "05 degradation trend",
           f"supervised mean F1 {low:.4f} at fraction 0.1 vs {high:.4f} "
           f"at 0.5 (drop {high - low:.4f} >= 0.05)")


@pytest.mark.slow
def test_06_guidance_lifts_mean_and_calms_variance(matrix):
    cells, elapsed, _ = matrix
    g_mean, _ = mean_std(cells, "guided_bond", 0.1)
    b_mean, _ = mean_std(cells, "bond", 0.1)
    s_mean, _ = mean_std(cells, "supervised", 0.1)
    means_ok = g_mean > b_mean and g_mean > s_mean
    std_lines = []
    stds_ok = True
    for f in (0.05, 0.1, 0.15):
        g_std = mean_std(cells, "guided_bond", f)[1]
        b_std = mean_std(cells, "bond", f)[1]
        stds_ok &= g_std <= b_std
        std_lines.append(f"f={f}: {g_std:.4f} <= {b_std:.4f}")
    budget_ok = elapsed < 2 * 3600
    report(means_ok and stds_ok and budget_ok, "06 guidance trend",
           f"means at 0.1: guided {g_mean:.4f} > bond {b_mean:.4f}, "
           f"> supervised {s_mean:.4f}; stds guided <= bond at "
           f"{'; '.join(std_lines)}; matrix {elapsed:.0f}s (< 7200s)")


@pytest.mark.slow
def test_07_crossfit_beats_supervised_at_low_fraction(matrix):
    cells, _, _ = matrix
    bde_mean, _ = mean_std(cells, "bde:guided_bond+supervised", BDE_FRACTION)
    sup_mean, _ = mean_std(cells, "supervised", BDE_FRACTION)
    report(bde_mean > sup_mean, "07 cross-fit trend",
           f"bde:guided_bond+supervised mean F1 {bde_mean:.4f} > "
           f"supervised {sup_mean:.4f} at fraction {BDE_FRACTION}")


@pytest.mark.slow
def test_08_final_method_choice_is_a_wash(matrix, tmp_path):
    cells, _, _ = matrix
    guided_mean, _ = mean_std(cells, "bde:guided_bond+guided_bond", BDE_FRACTION)
    plain_mean, _ = mean_std(cells, "bde:guided_bond+supervised", BDE_FRACTION)
    gap = abs(guided_mean - plain_mean)
    records = [cells[(m, BDE_FRACTION, s)] for m in BDE_METHODS for s in SEEDS]
    summary_cfg = ExperimentConfig(self_train_epochs=MATRIX_EPOCHS,
                                   methods=BDE_METHODS,
                                   fractions=(BDE_FRACTION,), seeds=SEEDS)
    summary_path = str(tmp_path / "summary.md")
    write_summary(records, summary_cfg, summary_path)
    text = open(summary_path).read()
    reported = "bde:guided_bond+guided_bond" in text and "delta" in text
    report(gap <= 0.10 and reported, "08 final-method ablation",
           f"|{guided_mean:.4f} - {plain_mean:.4f}| = {gap:.4f} (<= 0.10), "
           f"delta reported in summary.md")


@pytest.mark.slow
def test_09_lineage_proves_crossfit_exclusion(matrix, bench_corpora):
    train, _, _ = bench_corpora
    _, _, lineage_dir = matrix
    files = sorted(os.listdir(lineage_dir))
    assert len(files) == len(BDE_METHODS) * len(SEEDS)
    for name in files:
        rec = LineageRecord.read_csv(os.path.join(lineage_dir, name))
        rec.verify()
        assert len(rec.sentence_fold) == len(train)
    # and verify() really rejects a record that trains on a scored sentence
    tampered = LineageRecord.read_csv(os.path.join(lineage_dir, files[0]))
    tampered.fold_train_ids[0].append(tampered.fold_scored_ids[0][0])
    with pytest.raises(AssertionError):
        tampered.verify()
    report(True, "09 cross-fit lineage",
           f"{len(files)} end-to-end lineage records verified over "
           f"{len(train)} sentences; tampering detected")


def test_10_experiment_runs_are_reproducible(tmp_path):
    config = {
        "synth": {"n_sentences": 200, "seed": 13},
        "dev_sentences": 60, "test_sentences": 60,
        "fractions": [0.1, 0.5], "seeds": [0, 1],
        "methods": ["supervised", "guided_bond"],
        "tagger": {"embed_dim": 16, "window": 1, "hidden_dim": 24,
                   "hash_buckets": 4096, "max_epochs": 10, "patience": 10},
        "self_train_epochs": 5, "workers": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    dirs = [str(tmp_path / "runA"), str(tmp_path / "runB")]
    for d in dirs:
        rc = cli.main(["experiment", "--config", str(cfg_path), "--out", d])
        assert rc == 0

    wall = RESULT_COLUMNS.index("wall_ms")

    def rows(path):
        with open(path, newline="") as fh:
            return [r[:wall] + r[wall + 1:] for r in csv.reader(fh)]

    first, second = (rows(f"{d}/results.csv") for d in dirs)
    report(first == second and len(first) == 9, "10 determinism",
           f"two experiment runs, {len(first) - 1} cells each, "
           f"results.csv identical excluding wall_ms")


def test_11_masking_keeps_exact_counts(bench_corpora, tiny_corpus):
    grid = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)
    corpora = [
        tiny_corpus,
        generate_synthetic(SynthConfig(n_sentences=150, seed=88, name="mid")),
        bench_corpora[0],
    ]
    checked = 0
    for corpus in corpora:
        total = corpus.total_entities()
        for f in grid:
            _, kept = mask_entities(corpus, f, seed=3)
            assert len(kept) == round(f * total), \
                f"{corpus.name}: fraction {f} kept {len(kept)}, " \
                f"want round({f} * {total})"
            checked += 1
    sizes = ", ".join(str(c.total_entities()) for c in corpora)
    report(True, "11 masking arithmetic",
           f"kept == round(fraction * N) on all {checked} cells "
           f"(corpora with {sizes} entities)")
