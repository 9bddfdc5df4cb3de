"""Every workload on a tiny config emits every metric BENCHMARK.json names."""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

from partialner import experiment, tagger  # noqa: E402
from partialner.experiment import ExperimentConfig  # noqa: E402

from perfbench import probes, workloads  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

TINY = {"synth": {"n_sentences": 60, "seed": 3}, "dev_sentences": 20,
        "test_sentences": 20, "fractions": [0.05, 0.5], "mask_seed": 5,
        "self_train_epochs": 2,
        "tagger": {"max_epochs": 3, "patience": 1, "hash_buckets": 1024}}


def spec_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return ExperimentConfig.from_json(str(path)), str(path)


def test_benchmark_declares_each_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(tiny, tmp_path, workload, trace):
    base, path = tiny
    result = workloads.run_workload(workload, 1, 0.5, trace, base, path,
                                    str(tmp_path / "work"), setup_repeats=1)
    assert result["correct"], result["context"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == spec_names(kind)
    assert all(isinstance(v, (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v > 0 for v in result["metrics"].values())
    if trace and workload == "crossfit":
        assert result["metrics"]["bde.estimate_repeat_share"] == 0.5
    if trace and workload == "sweep":
        assert result["metrics"]["experiment.pool_init_share"] > 0
        assert result["metrics"]["tagger.fit_s"] > 0   # spans came back from workers


def test_probes_leave_no_wrapper_behind():
    before = (experiment.run_cell, experiment.evaluate_model, tagger.forward_flat,
              tagger.TaggerModel.sequence_distributions, experiment.ProcessPoolExecutor)
    with probes.installed(Tracer()):
        assert experiment.run_cell is not before[0]
        assert experiment.open is not open
    after = (experiment.run_cell, experiment.evaluate_model, tagger.forward_flat,
             tagger.TaggerModel.sequence_distributions, experiment.ProcessPoolExecutor)
    assert after == before
    assert "open" not in vars(experiment)


def test_check_flags_changed_and_out_of_range_f1():
    def it(f1):
        return workloads.Iteration(1.0, [workloads.Cell("bond", 0.05, 0, f1, 0.5, "", 1.0)])
    assert workloads.check([it(0.25), it(0.25)]) == []
    assert len(workloads.check([it(0.25), it(0.25000000000000006)])) == 1
    assert len(workloads.check([it(float("nan"))])) == 1
    assert len(workloads.check([it(1.5)])) == 1
