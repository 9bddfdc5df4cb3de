"""Experiment harness: the methods x fractions x seeds matrix.

Entity masks are drawn once per fraction from a dedicated mask seed, so
every method and every model seed at a given fraction trains on the same
partial corpus and comparisons are paired.  Each cell writes one CSV row;
failures land in the `error` column and the harness keeps going.
Rerunning a config reproduces results.csv byte for byte except for the
wall_ms column.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from . import bde, selftrain
# partial_from_kept is unused here, but perfbench/probes.py wraps this binding
from .annotation import (PartiallyAnnotatedSentence, _per_corpus, _sample_kept, mask_entities,
                         partial_from_kept, read_kept_sidecar, write_kept_sidecar)
from .corpus import (ConfigError, Corpus, SynthConfig, generate_synthetic, read_config,
                     read_conll, serialize_conll)
from .evaluation import evaluate_model
from .rng import derive_seed

DEFAULT_FRACTIONS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
SUMMARY_NAME = "summary.md"
RESULTS_NAME = "results.csv"
# mask sidecars are named by this digest of the training corpus's CoNLL text
_conll_digest = _per_corpus(lambda c: hashlib.sha256(serialize_conll(c).encode()).hexdigest()[:12])


@dataclass(frozen=True)
class MethodSpec:
    """Parsed method string: a plain procedure or bde:<inner>+<final>."""

    name: str               # canonical spec string, as written in configs and CSV
    kind: str               # supervised | bond | guided_bond | bde
    inner: str | None = None
    final: str | None = None

    @staticmethod
    def parse(spec: str) -> "MethodSpec":
        s = spec.strip()
        if s in selftrain.METHODS:
            return MethodSpec(s, s)
        if s.startswith("bde:"):
            body = s[len("bde:"):]
            if "+" not in body:
                raise ConfigError(f"bad method {spec!r}: expected bde:<inner>+<final>")
            inner, final = body.split("+", 1)
            if inner not in selftrain.METHODS:
                raise ConfigError(f"bad method {spec!r}: unknown inner method {inner!r}")
            if final not in bde.FINAL_METHODS:
                raise ConfigError(f"bad method {spec!r}: unknown final method {final!r}")
            return MethodSpec(s, "bde", inner, final)
        raise ConfigError(f"unknown method {spec!r}; expected one of "
                          f"{selftrain.METHODS} or bde:<inner>+<final>")


@dataclass(frozen=True)
class ExperimentConfig(selftrain.SelfTrainConfig):
    """The full experiment matrix, its data source and its cells' self-training settings.

    With CoNLL paths unset, the synthetic generator provides train/dev/test
    splits from derived seeds.  `mask_seed` is separate from the model seeds
    so the entity masks stay fixed across methods and seeds.
    """

    train_path: str | None = None
    dev_path: str | None = None
    test_path: str | None = None
    synth: SynthConfig | None = None
    dev_sentences: int = 500
    test_sentences: int = 500
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    methods: tuple[str, ...] = ("supervised", "bond", "guided_bond")
    mask_seed: int = 20230
    bde_k: int = 2
    workers: int | None = None   # None: one per usable core; 1: in-process serial

    def __post_init__(self):
        super().__post_init__()
        paths = (self.train_path, self.dev_path, self.test_path)
        if any(paths) and not all(paths):
            raise ConfigError("set all of train/dev/test paths or none")
        if min(self.dev_sentences, self.test_sentences) < 1:
            raise ConfigError("dev_sentences and test_sentences must be >= 1")
        if not any(paths) and self.synth is not None and self.synth.n_sentences < 1:
            raise ConfigError("synth: n_sentences must be >= 1")
        for name in ("fractions", "seeds", "methods"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"at least one {name[:-1]} required")
            if len(set(values)) != len(values):
                raise ConfigError(f"duplicate {name}")
        if any(not 0.0 < f <= 1.0 for f in self.fractions):
            raise ConfigError(f"fractions must lie in (0, 1], got {self.fractions}")
        for m in self.methods:
            MethodSpec.parse(m)
        if self.bde_k < 2:
            raise ConfigError(f"bde_k must be >= 2, got {self.bde_k}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1 or unset, got {self.workers}")

    @staticmethod
    def from_dict(data: Mapping) -> "ExperimentConfig":
        data = {**data}  # unlike dict(data), rejects a list of pairs
        data.pop("out_dir", None)  # consumed by the CLI, not part of the matrix
        return read_config(ExperimentConfig, data, "experiment")

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(load_json(path))


def load_json(path: str | None) -> dict:
    """The JSON object in the config file `path`, or {} for no path."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return data


def canonical_json(config: ExperimentConfig) -> str:
    return json.dumps(asdict(config), sort_keys=True, default=str)


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:12]


def load_corpora(config: ExperimentConfig) -> tuple[Corpus, Corpus, Corpus]:
    """Train/dev/test corpora from CoNLL files or the synthetic generator."""
    if config.train_path:
        return tuple(read_conll((config.train_path, config.dev_path, config.test_path)))
    return tuple(_synthetic_split(config, i) for i in range(3))


def _synthetic_split(config: ExperimentConfig, i: int) -> Corpus:
    """Synthetic split i (0 train, 1 dev, 2 test), from its own derived seed."""
    synth = config.synth or SynthConfig()
    size = (synth.n_sentences, config.dev_sentences, config.test_sentences)[i]
    name = ("synthetic-train", "synthetic-dev", "synthetic-test")[i]
    return generate_synthetic(replace(synth, n_sentences=size,
                                      seed=derive_seed(synth.seed, i), name=name))


def _sidecar_name(train: Corpus, fraction: float, mask_seed: int) -> str:
    return f"mask_{_conll_digest(train)}_f{fraction!r}_s{mask_seed}.csv"


def masked_partial(train: Corpus, fraction: float, mask_seed: int, cache_dir: str,
                   ) -> tuple[list[PartiallyAnnotatedSentence], int]:
    """Partial training corpus for one fraction, drawn by `mask_entities`.

    The kept spans go to `cache_dir` as an audit sidecar named by (corpus
    hash, fraction, mask seed) that nothing reads back; `report` checks it
    against a fresh draw.  dev/test corpora are never masked."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, _sidecar_name(train, fraction, mask_seed))
    partial, kept = mask_entities(train, fraction, mask_seed)
    tmp = f"{path}.tmp.{os.getpid()}"
    write_kept_sidecar(tmp, kept)
    os.replace(tmp, path)  # atomic under concurrent writers
    return partial, len(kept)


@dataclass
class RunRecord:
    """One experiment cell, exactly one results.csv row."""

    method: str
    fraction: float
    seed: int
    precision: float | None
    recall: float | None
    f1: float | None
    val_f1: float | None
    kept_entities: int | None
    wall_ms: int
    error: str = ""

    def row(self) -> list[str]:
        """The fields in RESULT_COLUMNS order: "" for None, a float by repr."""
        return ["" if v is None else repr(v) if isinstance(v, float) else str(v)
                for v in (getattr(self, name) for name in RESULT_COLUMNS)]


RESULT_COLUMNS = tuple(f.name for f in fields(RunRecord))


def train_spec(spec: MethodSpec, partial: Sequence[PartiallyAnnotatedSentence],
               dev: Corpus, config: ExperimentConfig, seed: int,
               soft_path: str | None = None, lineage_path: str | None = None,
               ) -> selftrain.RunOutput:
    """Train one method spec with the config's training settings and model
    seed `seed`.  A `bde:` spec writes its soft targets and lineage record to
    `soft_path` and `lineage_path` when given; other specs write nothing."""
    st_cfg = config.with_seed(seed)
    if spec.kind != "bde":
        return selftrain.run_method(spec.kind, partial, dev, st_cfg)
    bde_cfg = bde.BdeConfig(config.bde_k, spec.inner, spec.final, st_cfg)
    return bde.run_bde(partial, dev, bde_cfg, soft_path, lineage_path)


def run_cell(spec: MethodSpec, partial: Sequence[PartiallyAnnotatedSentence],
             kept_count: int, dev: Corpus, test: Corpus,
             config: ExperimentConfig, fraction: float, seed: int,
             lineage_dir: str | None = None) -> RunRecord:
    """Train and evaluate one (method, fraction, seed) cell; never raises."""
    start = time.perf_counter()
    try:
        lineage_path = None
        if lineage_dir:
            safe = spec.name.replace(":", "_").replace("+", "_")
            lineage_path = os.path.join(
                lineage_dir, f"lineage_{safe}_f{fraction!r}_s{seed}.csv")
        out = train_spec(spec, partial, dev, config, seed, lineage_path=lineage_path)
        res = evaluate_model(out.model, test)
        wall = int((time.perf_counter() - start) * 1000)
        return RunRecord(spec.name, fraction, seed, res.precision, res.recall,
                         res.f1, out.val_f1, kept_count, wall)
    except Exception as exc:  # recorded, the matrix keeps going
        wall = int((time.perf_counter() - start) * 1000)
        message = f"{type(exc).__name__}: {' '.join(str(exc).split())}"
        return RunRecord(spec.name, fraction, seed, None, None, None, None,
                         kept_count, wall, message)


# --- the cell worker: a pool process, or this one when workers == 1 ----------

_POOL_STATE: dict = {}  # a pool worker's _worker_state


def _worker_state(config: ExperimentConfig, cache_dir: str, lineage_dir: str) -> dict:
    train, dev, test = load_corpora(config)
    return dict(config=config, train=train, dev=dev, test=test,
                cache_dir=cache_dir, lineage_dir=lineage_dir, masks={})


def _worker_cell(st: dict, args: tuple[str, float, int]) -> RunRecord:
    """Run one cell, drawing its fraction's mask when the worker's fraction
    changes: cells arrive fraction by fraction, so each mask is drawn once
    per worker and only the current one is kept."""
    method, fraction, seed = args
    if fraction not in st["masks"]:
        st["masks"] = {fraction: masked_partial(
            st["train"], fraction, st["config"].mask_seed, st["cache_dir"])}
    partial, kept = st["masks"][fraction]
    return run_cell(MethodSpec.parse(method), partial, kept, st["dev"],
                    st["test"], st["config"], fraction, seed, st["lineage_dir"])


def _pool_init(config: ExperimentConfig, cache_dir: str, lineage_dir: str) -> None:
    _POOL_STATE.update(_worker_state(config, cache_dir, lineage_dir))


def _pool_cell(args: tuple[str, float, int]) -> RunRecord:
    return _worker_cell(_POOL_STATE, args)


def run_experiment(config: ExperimentConfig, out_dir: str) -> str:
    """Run the whole matrix; returns the results.csv path.

    Writes results.csv (one row per cell, in config order), summary.md
    (mean +/- std per method and fraction), config_echo.json (with absolute
    CoNLL paths) and fresh masks/ and lineage/ directories of sidecars and
    cross-fit lineage files.  Cells are independent; with workers > 1 they
    run in a process pool, one (fraction, seed) group per task, and with
    workers == 1 the same worker functions run them in this process, so the
    output is the same for any worker count.
    """
    if config.train_path:  # absolute, so `report` can redraw the masks from anywhere
        config = replace(config, **{k: os.path.abspath(getattr(config, k))
                                    for k in ("train_path", "dev_path", "test_path")})
    cache_dir, lineage_dir = os.path.join(out_dir, "masks"), os.path.join(out_dir, "lineage")
    for d in (cache_dir, lineage_dir):  # no earlier run's sidecars or lineage files stay
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(lineage_dir)
    # Cells run one (fraction, seed) group at a time, each group in one
    # process, so the methods of a group share their repeated stages through
    # the stage memo (selftrain.memo).
    groups = [(f, s) for f in config.fractions for s in config.seeds]
    cells = [(m, f, s) for f, s in groups for m in config.methods]
    workers = config.workers if config.workers is not None else selftrain._usable_cores()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(config, cache_dir, lineage_dir)) as pool:
            records = list(pool.map(_pool_cell, cells,
                                    chunksize=len(config.methods)))
    else:  # not through _pool_*: perfbench replaces those with worker-only wrappers
        state = _worker_state(config, cache_dir, lineage_dir)
        records = [_worker_cell(state, cell) for cell in cells]
    n = len(config.methods)  # back to config order: method, fraction, seed
    records = [records[g * n + j] for j in range(n) for g in range(len(groups))]
    results_path = os.path.join(out_dir, RESULTS_NAME)
    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for record in records:
            writer.writerow(record.row())
    write_summary(records, config, os.path.join(out_dir, SUMMARY_NAME))
    with open(os.path.join(out_dir, "config_echo.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(config) + "\n")
    return results_path


def _aggregate(records: Sequence[RunRecord],
               ) -> dict[tuple[str, float], tuple[float, float, int]]:
    """Mean and population std of test F1 per (method, fraction), numpy route."""
    groups: dict[tuple[str, float], list[float]] = {}
    for r in records:
        if not r.error and r.f1 is not None:
            groups.setdefault((r.method, r.fraction), []).append(r.f1)
    return {key: (float(np.mean(vals)), float(np.std(vals)), len(vals))
            for key, vals in groups.items()}


def write_summary(records: Sequence[RunRecord], config: ExperimentConfig,
                  path: str) -> None:
    stats = _aggregate(records)
    errors = [r for r in records if r.error]
    methods = list(config.methods)
    fractions = list(config.fractions)
    lines = [
        "# Experiment summary",
        "",
        f"- config hash: `{config_hash(config)}`",
        f"- cells: {len(records)} ({len(errors)} errors)",
        f"- seeds: {', '.join(str(s) for s in config.seeds)}",
        f"- mask seed: {config.mask_seed}",
        "",
        "## Test F1, mean ± std (population) over seeds",
        "",
        "| method | " + " | ".join(repr(f) for f in fractions) + " |",
        "|" + "---|" * (len(fractions) + 1),
    ]
    for m in methods:
        cells = []
        for f in fractions:
            if (m, f) in stats:
                mean, std, n = stats[(m, f)]
                cells.append(f"{mean!r} ± {std!r} (n={n})")
            else:
                cells.append("n/a")
        lines.append(f"| {m} | " + " | ".join(cells) + " |")
    deltas = _final_method_deltas(stats, methods, fractions)
    if deltas:
        lines += ["", "## Cross-fit final-method comparison", ""]
        for inner, f, guided_mean, plain_mean in deltas:
            delta = guided_mean - plain_mean
            lines.append(
                f"- fraction {f!r}: mean F1(bde:{inner}+guided_bond) - "
                f"mean F1(bde:{inner}+supervised) = {delta!r} (|delta| = {abs(delta)!r})")
    if errors:
        lines += ["", "## Errors", ""]
        lines += [f"- {r.method} fraction={r.fraction!r} seed={r.seed}: {r.error}"
                  for r in errors]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _final_method_deltas(stats, methods: Sequence[str], fractions: Sequence[float],
                         ) -> list[tuple[str, float, float, float]]:
    """Paired (inner, fraction, guided-final mean, supervised-final mean)."""
    out = []
    for inner in selftrain.METHODS:
        guided, plain = f"bde:{inner}+guided_bond", f"bde:{inner}+supervised"
        if guided in methods and plain in methods:
            for f in fractions:
                if (guided, f) in stats and (plain, f) in stats:
                    out.append((inner, f, stats[(guided, f)][0], stats[(plain, f)][0]))
    return out


# --- independent recomputation (`report`) ------------------------------------

def recompute_stats(results_path: str,
                    ) -> dict[tuple[str, float], tuple[float, float, int]]:
    """Mean/std per (method, fraction) from results.csv via the stdlib only.

    Deliberately avoids numpy so the aggregation route is independent of
    write_summary's.
    """
    groups: dict[tuple[str, float], list[float]] = {}
    with open(results_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(RESULT_COLUMNS):
            raise ValueError(f"unexpected results.csv columns: {reader.fieldnames}")
        for row in reader:
            if row["error"] or not row["f1"]:
                continue
            key = (row["method"], float(row["fraction"]))
            groups.setdefault(key, []).append(float(row["f1"]))
    return {key: (statistics.fmean(vals), statistics.pstdev(vals), len(vals))
            for key, vals in groups.items()}


def parse_summary(path: str) -> dict[tuple[str, float], tuple[float, float, int]]:
    """Read the mean/std table back out of summary.md."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    table = [l for l in lines if l.startswith("|")]
    if len(table) < 2:
        raise ValueError(f"{path}: no summary table found")
    header = [c.strip() for c in table[0].strip("|").split("|")]
    fractions = [float(c) for c in header[1:]]
    out: dict[tuple[str, float], tuple[float, float, int]] = {}
    for line in table[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        method = cells[0]
        for f, cell in zip(fractions, cells[1:]):
            if cell == "n/a":
                continue
            rest, _, n_part = cell.partition("(n=")
            mean_s, _, std_s = rest.partition("±")
            out[(method, f)] = (float(mean_s), float(std_s),
                                int(n_part.rstrip(")")))
    return out


def verify_report(out_dir: str, tolerance: float = 1e-9) -> list[str]:
    """Compare summary.md against stats recomputed from results.csv, verify
    every lineage file under `lineage/`, and compare the sidecars under
    `masks/` with fresh draws of config_echo.json's masks.

    Returns a list of human-readable mismatches; empty means agreement
    within `tolerance`, and lineage files and mask sidecars that all check.
    """
    recomputed = recompute_stats(os.path.join(out_dir, RESULTS_NAME))
    summarized = parse_summary(os.path.join(out_dir, SUMMARY_NAME))
    problems = []
    for key in sorted(set(recomputed) | set(summarized), key=str):
        if key not in recomputed:
            problems.append(f"{key}: in summary.md but not recomputable from results.csv")
            continue
        if key not in summarized:
            problems.append(f"{key}: in results.csv but missing from summary.md")
            continue
        (m1, s1, n1), (m2, s2, n2) = recomputed[key], summarized[key]
        close = abs(m1 - m2) <= tolerance and abs(s1 - s2) <= tolerance  # False on a NaN
        if n1 != n2 or not close:
            problems.append(f"{key}: recomputed mean={m1!r} std={s1!r} n={n1}, "
                            f"summary mean={m2!r} std={s2!r} n={n2}")
    lineage_dir = os.path.join(out_dir, "lineage")
    for name in sorted(os.listdir(lineage_dir)) if os.path.isdir(lineage_dir) else []:
        try:
            bde.LineageRecord.read_csv(os.path.join(lineage_dir, name)).verify()
        except Exception as exc:  # a file that cannot be read is a mismatch too
            problems.append(f"lineage/{name}: {type(exc).__name__}: {exc}")
    try:  # the config's masks drawn afresh, by sidecar name
        config = ExperimentConfig.from_json(os.path.join(out_dir, "config_echo.json"))
        # CoNLL files are all read: the label scheme is inferred from the three
        train = load_corpora(config)[0] if config.train_path else _synthetic_split(config, 0)
        drawn = {_sidecar_name(train, f, config.mask_seed):
                 _sample_kept(train, f, config.mask_seed) for f in config.fractions}
    except Exception as exc:  # no config to redraw from: no sidecar can be checked
        return problems + [f"masks: cannot redraw: {type(exc).__name__}: {exc}"]
    mask_dir = os.path.join(out_dir, "masks")
    found = os.listdir(mask_dir) if os.path.isdir(mask_dir) else []
    for name in sorted(set(found) | set(drawn)):
        try:  # a missing, unreadable or foreign sidecar is a mismatch
            if read_kept_sidecar(os.path.join(mask_dir, name)) != drawn.get(name):
                raise ValueError("not a fresh draw of the config's masks")
        except Exception as exc:
            problems.append(f"masks/{name}: {type(exc).__name__}: {exc}")
    return problems
