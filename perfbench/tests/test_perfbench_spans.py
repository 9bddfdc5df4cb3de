"""Self-time arithmetic and per-layer aggregation on hand-built span trees."""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

from perfbench.probes import layer_metrics  # noqa: E402
from perfbench.spans import Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),    # overlaps a: [3, 4] counted once
        Span("c", 9.0, 12.0, parent=0),   # sticks out: only [9, 10] is covered
        Span("a.1", 2.0, 3.0, parent=1),
        Span("inner", 5.0, 5.5, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 3.0, 1.0, 0.5])


def test_self_time_ignores_a_child_inside_an_earlier_child():
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 9.0, parent=0),
             Span("b", 2.0, 3.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_wrap_links_nested_calls_and_records_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "m.inner",
                        lambda span, args, kwargs, result: setattr(span, "attrs", {"x": args[0]}))
    outer = tracer.wrap(lambda x: inner(x) * 2, "m.outer")
    assert outer(3) == 8
    names = [(s.name, s.parent, s.attrs) for s in tracer.spans]
    assert names == [("m.outer", -1, None), ("m.inner", 0, {"x": 3})]
    assert [s.duration for s in tracer.spans] == [3.0, 1.0]


def test_wrap_closes_the_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")
    with pytest.raises(KeyError):
        tracer.wrap(boom, "m.boom")()
    (span,) = tracer.spans
    assert span.end >= span.start > 0
    with tracer.span("m.after"):
        pass
    assert tracer.spans[-1].parent == -1


def test_extend_reindexes_parents_of_drained_spans():
    worker = Tracer()
    with worker.span("w.cell"):
        with worker.span("w.step"):
            pass
    drained = worker.drain()
    assert worker.spans == []
    parent = Tracer()
    with parent.span("p.run"):
        pass
    parent.extend(drained)
    assert [(s.name, s.parent) for s in parent.spans] == [
        ("p.run", -1), ("w.cell", -1), ("w.step", 1)]


def test_layer_metrics_classify_forward_calls_by_parent():
    spans = [
        Span("bench.iteration", 0.0, 20.0),
        Span("selftrain.self_train", 1.0, 15.0, parent=0, attrs={"epochs": 4, "selected": 1}),
        Span("tagger.forward_flat", 2.0, 3.0, parent=1, attrs={"rows": 7}),     # teacher
        Span("tagger.flat_loss_and_grads", 3.0, 7.0, parent=1,
             attrs={"rows": 7, "lookups": 35, "unique": 7}),
        Span("tagger.forward_flat", 3.5, 5.0, parent=3, attrs={"rows": 7}),     # student
        Span("tagger.sgd_step", 7.0, 7.5, parent=1, attrs={"zero": True}),
        Span("tagger.sgd_step", 8.0, 8.25, parent=1, attrs={"zero": False}),
        Span("tagger.validation_f1", 9.0, 11.0, parent=1),
        Span("tagger.forward_flat", 9.5, 10.0, parent=7, attrs={"rows": 3}),    # validation
        Span("experiment.run_cell", 0.5, 19.5, parent=0),
    ]
    m = layer_metrics(spans)
    assert m["tagger.backward_s"] == pytest.approx(2.5)
    assert m["tagger.backward_rows"] == 7
    assert m["tagger.embed_unique_ratio"] == pytest.approx(0.2)
    assert m["tagger.forward_s"] == pytest.approx(1.5)
    assert m["tagger.forward_rows"] == 7
    assert m["selftrain.teacher_score_share"] == pytest.approx(1.0 / 20.0)
    assert m["selftrain.teacher_rows"] == 7
    assert m["tagger.sgd_s"] == pytest.approx(0.75)
    assert m["tagger.sgd_steps"] == 2
    assert m["tagger.sgd_zero_share"] == pytest.approx(0.5)
    assert m["tagger.validate_s"] == pytest.approx(2.0)
    assert m["selftrain.useful_epoch_ratio"] == pytest.approx(0.25)
    assert m["experiment.worker_busy_share"] == pytest.approx(19.0 / 20.0)
    assert m["bde.estimate_share"] == 0.0


def test_busy_share_counts_every_pool_worker():
    spans = [
        Span("bench.iteration", 0.0, 10.0),
        Span("experiment.pool", 0.5, 9.5, parent=0, attrs={"workers": 2}),
        Span("experiment.run_cell", 1.0, 9.0, pid=11),
        Span("experiment.run_cell", 1.0, 5.0, pid=12),
    ]
    assert layer_metrics(spans)["experiment.worker_busy_share"] == pytest.approx(12.0 / 20.0)
