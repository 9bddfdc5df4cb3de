"""Time partialner's layers from outside the package.

`installed(tracer)` replaces public functions of `partialner` with timed
wrappers for the length of a `with` block and restores the originals after.
Each wrapper is installed on the name the caller actually looks up: modules
that bind a function by `from ... import` hold their own reference, so
`experiment.evaluate_model` and the `decode_bio` of `tagger`, `evaluation`
and `annotation` are replaced beside the defining module's.  File I/O is
timed by shadowing the builtin `open` in the modules that write results,
sidecars and lineage files.

Pool workers forked while the wrappers are installed record into their
inherited tracer; each finished cell carries the worker's spans back to the
parent on its RunRecord, where the pool's `map` moves them into the parent's
tracer.  `layer_metrics` turns the collected spans into the per-layer
metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

import builtins
import hashlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

from partialner import (annotation, bde, corpus, evaluation, experiment,
                        selftrain, tagger)

from .spans import Span, Tracer, self_times

SPANS_ATTR = "_perfbench_spans"  # RunRecord attribute that carries worker spans
IO_MODULES = (experiment, annotation, bde)

# The installation in force; module-level because pool workers reach it
# through functions that are pickled by name.
_ACTIVE: "_Installation | None" = None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _forward(span, args, kwargs, result):          # forward_flat(model, ids, flags)
    span.attrs = {"rows": _arg(args, kwargs, 1, "ids").shape[0]}


def _backward(span, args, kwargs, result):  # flat_loss_and_grads(model, ids, ...)
    ids = _arg(args, kwargs, 1, "ids")
    span.attrs = {"rows": ids.shape[0], "lookups": ids.size,
                  "unique": result[1].embed_ids.size}


def _sgd(span, args, kwargs, result):              # sgd_step(model, grads, lr)
    g = _arg(args, kwargs, 1, "grads")
    span.attrs = {"zero": not (g.w1.any() or g.b1.any() or g.w2.any()
                               or g.b2.any() or g.embed_rows.any())}


def _encode(span, args, kwargs, result):
    span.attrs = {"tokens": int(result.offsets[-1])}


def _train(span, args, kwargs, result):            # -> (model, TrainReport)
    report = result[1]
    span.attrs = {"epochs": len(report.losses), "initial": report.best_epoch == -1}


def _self_train(span, args, kwargs, result):       # -> (model, StageTrace)
    trace = result[1]
    span.attrs = {"epochs": len(trace.val_f1) - 1, "selected": trace.best_iteration}


def _partial_digest(partial) -> str:
    h = hashlib.sha256()
    for p in partial:
        h.update(repr((p.tokens, p.labels, p.known.spans)).encode())
    return h.hexdigest()


class _Installation:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.estimated: set = set()
        self.saved: list = []        # (owner, attribute, previous value or _MISSING)

    def _estimate(self, span, args, kwargs, result):  # estimate_base(partial, val, config)
        config = _arg(args, kwargs, 2, "config")
        key = (_partial_digest(_arg(args, kwargs, 0, "partial")),
               config.inner_method, config.k, config.seed)
        span.attrs = {"repeat": key in self.estimated}
        self.estimated.add(key)

    def targets(self):
        """(span name, [(owner, attribute)], recorder) for every timed call."""
        return [
            ("corpus.generate_synthetic", [(experiment, "generate_synthetic")], None),
            ("corpus.decode_bio", [(corpus, "decode_bio"), (annotation, "decode_bio"),
                                   (tagger, "decode_bio"), (evaluation, "decode_bio")], None),
            ("annotation.mask_entities", [(experiment, "mask_entities")], None),
            ("annotation.partial_from_kept", [(experiment, "partial_from_kept"),
                                              (annotation, "partial_from_kept")], None),
            ("tagger.encode_tokens", [(tagger, "encode_tokens")], _encode),
            ("tagger.forward_flat", [(tagger, "forward_flat")], _forward),
            ("tagger.flat_loss_and_grads", [(tagger, "flat_loss_and_grads")], _backward),
            ("tagger.sgd_step", [(tagger, "sgd_step")], _sgd),
            ("tagger.validation_f1", [(tagger, "validation_f1")], None),
            ("tagger.train", [(tagger, "train")], _train),
            ("tagger.sequence_distributions",
             [(tagger.TaggerModel, "sequence_distributions")], None),
            ("selftrain.run_method", [(selftrain, "run_method")], None),
            ("selftrain.ner_fit", [(selftrain, "ner_fit")], None),
            ("selftrain.self_train", [(selftrain, "self_train")], _self_train),
            ("bde.run_bde", [(bde, "run_bde")], None),
            ("bde.estimate_base", [(bde, "estimate_base")], self._estimate),
            ("bde.train_on_base", [(bde, "train_on_base")], None),
            ("bde.lineage_verify", [(bde.LineageRecord, "verify")], None),
            ("evaluation.span_f1", [(evaluation, "span_f1")], None),
            ("evaluation.evaluate_model", [(experiment, "evaluate_model"),
                                           (evaluation, "evaluate_model")], None),
            ("experiment.run_experiment", [(experiment, "run_experiment")], None),
            ("experiment.run_cell", [(experiment, "run_cell")], None),
            ("experiment.load_corpora", [(experiment, "load_corpora")], None),
            ("experiment.masked_partial", [(experiment, "masked_partial")], None),
            ("experiment.write_summary", [(experiment, "write_summary")], None),
        ]

    def patch(self, owner, attribute, value) -> None:
        self.saved.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        for name, sites, record in self.targets():
            wrapped = self.tracer.wrap(getattr(*sites[0]), name, record)
            for owner, attribute in sites:
                self.patch(owner, attribute, wrapped)
        for module in IO_MODULES:
            self.patch(module, "open", _timed_open(self.tracer, module.__name__))
        self.pool_init = experiment._pool_init
        self.pool_cell = experiment._pool_cell
        self.patch(experiment, "_pool_init", _traced_pool_init)
        self.patch(experiment, "_pool_cell", _traced_pool_cell)
        self.patch(experiment, "ProcessPoolExecutor", _HarvestingPool)

    def uninstall(self) -> None:
        for owner, attribute, previous in reversed(self.saved):
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)
        self.saved.clear()


_MISSING = object()


@contextmanager
def installed(tracer: Tracer):
    """Every wrapper in place for the block; the originals afterwards."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("probes are already installed")
    inst = _Installation(tracer)
    try:
        inst.install()
        _ACTIVE = inst
        yield inst
    finally:
        _ACTIVE = None
        inst.uninstall()


class _TimedFile:
    """File proxy whose span runs from `open` to `close`."""

    def __init__(self, fh, span: Span, clock):
        self._fh, self._span, self._clock = fh, span, clock

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __iter__(self):
        return iter(self._fh)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
            self._span.end = self._clock()


def _timed_open(tracer: Tracer, module_name: str):
    layer = module_name.rsplit(".", 1)[-1]

    def open(*args, **kwargs):  # noqa: A001 - shadows the builtin on purpose
        span = tracer.detached(f"{layer}.file_io")
        try:
            fh = builtins.open(*args, **kwargs)
        except BaseException:
            span.end = tracer.clock()
            raise
        return _TimedFile(fh, span, tracer.clock)
    return open


def _traced_pool_init(*args):
    """Pool initializer: start the forked worker's tracer empty, then load corpora."""
    inst = _ACTIVE
    if inst is None:  # a worker started by a non-fork method imports fresh modules
        return experiment._pool_init(*args)
    inst.tracer.reset()
    with inst.tracer.span("experiment.pool_init"):
        inst.pool_init(*args)


def _traced_pool_cell(args):
    """Pool task: run one cell and attach the worker's spans to its record."""
    inst = _ACTIVE
    if inst is None:
        return experiment._pool_cell(args)
    with inst.tracer.span("experiment.pool_cell"):
        record = inst.pool_cell(args)
    setattr(record, SPANS_ATTR, inst.tracer.drain())
    return record


class _HarvestingPool(ProcessPoolExecutor):
    """The harness's pool, recording its lifetime and collecting worker spans."""

    def map(self, fn, *iterables, **kwargs):
        tracer = _ACTIVE.tracer
        span = tracer.detached("experiment.pool", workers=self._max_workers)
        try:
            for record in super().map(fn, *iterables, **kwargs):
                tracer.extend(vars(record).pop(SPANS_ATTR, []))
                yield record
        finally:
            span.end = tracer.clock()


# --- per-layer metrics -------------------------------------------------------

IO_SPANS = {"experiment.file_io", "annotation.file_io", "bde.file_io",
            "experiment.masked_partial", "experiment.write_summary"}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans (all processes merged).

    Times are summed over calls.  `*_s` of a call that has children counts
    them too, except `tagger.backward_s` and `experiment.io_s`, which are
    self times.  Layers that some workload never reaches (self-training,
    cross-fit, pool start-up) are reported as `*_share`: their time over
    worker time (workers x iteration wall time), which reads 0 where idle.
    """
    selfs = self_times(spans)
    dur: dict[str, float] = {}
    self_dur: dict[str, float] = {}
    count: dict[str, int] = {}
    attr: dict[tuple[str, str], float] = {}
    under: dict[tuple[str, str], float] = {}   # (name, parent name) -> duration
    under_rows: dict[tuple[str, str], int] = {}
    for s, own in zip(spans, selfs):
        dur[s.name] = dur.get(s.name, 0.0) + s.duration
        self_dur[s.name] = self_dur.get(s.name, 0.0) + own
        count[s.name] = count.get(s.name, 0) + 1
        for key, value in (s.attrs or {}).items():
            attr[s.name, key] = attr.get((s.name, key), 0) + value
        parent = spans[s.parent].name if s.parent >= 0 else ""
        under[s.name, parent] = under.get((s.name, parent), 0.0) + s.duration
        if s.attrs and "rows" in s.attrs:
            under_rows[s.name, parent] = under_rows.get((s.name, parent), 0) + s.attrs["rows"]

    def d(name): return dur.get(name, 0.0)
    def n(name): return count.get(name, 0)
    def a(name, key): return attr.get((name, key), 0)

    fwd, grads = "tagger.forward_flat", "tagger.flat_loss_and_grads"
    iterations = [s for s in spans if s.name == "bench.iteration"]
    pools = [s.attrs["workers"] for s in spans if s.name == "experiment.pool"]
    worker_s = max(pools, default=1) * sum(s.duration for s in iterations)

    def of_workers(seconds): return _share(seconds, worker_s)
    return {
        "tagger.backward_s": self_dur.get(grads, 0.0),
        "tagger.backward_rows": a(grads, "rows"),
        "tagger.embed_unique_ratio": _share(a(grads, "unique"), a(grads, "lookups")),
        "tagger.forward_s": under.get((fwd, grads), 0.0),
        "tagger.forward_rows": under_rows.get((fwd, grads), 0),
        "tagger.sgd_s": d("tagger.sgd_step"),
        "tagger.sgd_steps": n("tagger.sgd_step"),
        "tagger.sgd_zero_share": _share(a("tagger.sgd_step", "zero"), n("tagger.sgd_step")),
        "tagger.validate_s": d("tagger.validation_f1"),
        "tagger.validate_calls": n("tagger.validation_f1"),
        "tagger.encode_s": d("tagger.encode_tokens"),
        "tagger.encode_tokens": a("tagger.encode_tokens", "tokens"),
        "tagger.fit_s": d("tagger.train"),
        "tagger.fit_epochs": a("tagger.train", "epochs"),
        "tagger.fit_selected_initial_share": _share(a("tagger.train", "initial"),
                                                    n("tagger.train")),
        "corpus.generate_s": d("corpus.generate_synthetic"),
        "corpus.decode_bio_s": d("corpus.decode_bio"),
        "corpus.decode_bio_calls": n("corpus.decode_bio"),
        "annotation.mask_s": (d("annotation.mask_entities")
                              + d("annotation.partial_from_kept")
                              - under.get(("annotation.partial_from_kept",
                                           "annotation.mask_entities"), 0.0)),
        "selftrain.self_train_share": of_workers(d("selftrain.self_train")),
        "selftrain.teacher_score_share": of_workers(
            under.get((fwd, "selftrain.self_train"), 0.0)),
        "selftrain.teacher_rows": under_rows.get((fwd, "selftrain.self_train"), 0),
        "selftrain.epochs": a("selftrain.self_train", "epochs"),
        "selftrain.useful_epoch_ratio": _share(a("selftrain.self_train", "selected"),
                                               a("selftrain.self_train", "epochs")),
        "bde.estimate_share": of_workers(d("bde.estimate_base")),
        "bde.fold_share": of_workers(
            under.get(("selftrain.run_method", "bde.estimate_base"), 0.0)),
        "bde.fold_score_share": of_workers(
            under.get(("tagger.sequence_distributions", "bde.estimate_base"), 0.0)),
        "bde.final_share": of_workers(d("bde.train_on_base")),
        "bde.estimate_repeat_share": _share(a("bde.estimate_base", "repeat"),
                                            n("bde.estimate_base")),
        "evaluation.span_f1_s": d("evaluation.span_f1"),
        "evaluation.evaluate_s": d("evaluation.evaluate_model"),
        "experiment.io_s": sum(self_dur.get(name, 0.0) for name in IO_SPANS),
        "experiment.pool_init_share": of_workers(d("experiment.pool_init")),
        "experiment.worker_busy_share": of_workers(d("experiment.run_cell")),
    }
