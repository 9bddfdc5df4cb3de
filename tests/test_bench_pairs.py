"""scripts/bench_pairs.py: run order and claim-rule arithmetic, on a stub runner."""
import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [{"name": "cells_per_s", "unit": "cells/s", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2}]


def stub_runner(values):
    """A runner returning, per tree, the next of its listed metric dicts."""
    calls = []

    def run(tree, prefix, workload, seed, seconds):
        calls.append((tree, workload, seed, seconds))
        return {"correct": True, "attempted": 2, "failed": 0, "run_s": 0.0,
                "metrics": values[tree][sum(1 for c in calls if c[0] == tree) - 1]}
    return run, calls


def test_sides_alternate_and_every_run_is_kept(bench_pairs):
    values = {t: [{"cells_per_s": float(i), "peak_rss_mb": 1.0} for i in range(4)]
              for t in ("P", "C")}
    run, calls = stub_runner(values)
    runs = bench_pairs.run_pairs({"parent": "P", "change": "C"}, ["x"], "selftrain",
                                 4, 7, 30.0, runner=run)
    assert [c[0] for c in calls] == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert {(c[1], c[2], c[3]) for c in calls} == {("selftrain", 7, 30.0)}
    assert [(r["pair"], r["side"]) for r in runs] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
        (2, "parent"), (2, "change"), (3, "change"), (3, "parent")]
    assert [r["metrics"]["cells_per_s"] for r in runs] == [0, 0, 1, 1, 2, 2, 3, 3]


def runs_of(parent, change, name):
    return [{"pair": i, "side": side, "correct": True, "attempted": 2, "failed": 0,
             "metrics": {name: v}}
            for side, values in (("parent", parent), ("change", change))
            for i, v in enumerate(values)]


def test_claim_rule_for_a_lower_is_better_metric(bench_pairs):
    parent = [96.0, 96.2, 96.4, 96.5, 96.4, 96.3, 96.5, 96.4, 96.6, 96.4]
    change = [81.0] * 9 + [97.0]  # wins 9 of 10
    s = bench_pairs.summarize(runs_of(parent, change, "peak_rss_mb"), END_TO_END[1:])
    s = s["peak_rss_mb"]
    assert s["parent_median"] == pytest.approx(96.4)
    assert (s["parent_q1"], s["parent_q3"]) == pytest.approx((96.325, 96.475))
    assert s["change_median"] == pytest.approx(81.0)
    assert s["change_wins"] == 9 and s["pairs"] == 10
    assert s["median_gain"] == pytest.approx(15.4)
    assert s["parent_iqr"] == pytest.approx(0.15)
    assert s["claim_holds"] is True
    assert s["median_worse_by"] == pytest.approx(-15.4 / 96.4)
    assert s["within_bound"] is True


PARENT = [1.0, 0.98, 1.02, 0.99, 1.01, 1.0, 0.97, 1.03, 1.0, 1.0]  # IQR 0.015


@pytest.mark.parametrize("change,wins,holds,within", [
    ([1.1] * 8 + [0.9] * 2, 8, False, True),         # too few wins
    ([p + 0.001 for p in PARENT], 10, False, True),  # gain inside the IQR
    ([1.3] * 10, 10, True, True),
    ([0.7] * 10, 0, False, False),                   # 30% worse than the parent
], ids=["8-wins", "gain-in-iqr", "holds", "out-of-bound"])
def test_claim_rule_for_a_higher_is_better_metric(bench_pairs, change, wins, holds,
                                                  within):
    s = bench_pairs.summarize(runs_of(PARENT, change, "cells_per_s"),
                              END_TO_END[:1])["cells_per_s"]
    assert s["parent_iqr"] == pytest.approx(0.015)
    assert s["change_wins"] == wins
    assert s["claim_holds"] is holds
    assert s["within_bound"] is within


@pytest.mark.parametrize("fault,holds", [
    ("incorrect", False),      # one change run's outputs failed their check
    ("more_failed", False),    # 1 of 20 change cells failed, none of the parent's
    ("equal_failed", True),    # the same share failed on both sides
], ids=["incorrect", "more-failed", "equal-failed"])
def test_a_claim_needs_correct_runs_and_no_more_failures(bench_pairs, fault, holds):
    runs = runs_of(PARENT, [1.3] * 10, "cells_per_s")
    change = [r for r in runs if r["side"] == "change"]
    if fault == "incorrect":
        change[3]["correct"] = False
    elif fault == "more_failed":
        change[3]["failed"] = 1
    elif fault == "equal_failed":
        change[3]["failed"] = 1
        next(r for r in runs if r["side"] == "parent")["failed"] = 1
    s = bench_pairs.summarize(runs, END_TO_END[:1])["cells_per_s"]
    assert (s["change_wins"], s["within_bound"]) == (10, True)
    assert s["claim_holds"] is holds


WIDE = [0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.8, 1.2, 0.9, 1.1]  # IQR 0.35, median 1.0


@pytest.mark.parametrize("parent,change,resolved", [
    (PARENT, [0.98] * 10, True),           # spread 0.015 inside the bound 0.25
    (WIDE, [0.98] * 10, False),            # spread 0.35 wider than the bound
    (WIDE, [1.5] * 10, True),              # wide, but every change run is better
    (WIDE, [1.39] + [1.5] * 9, False),     # one change run below the parent's best
], ids=["narrow", "wide", "wide-beats-all", "wide-overlap"])
def test_a_spread_wider_than_the_bound_is_unresolved(bench_pairs, parent, change,
                                                     resolved):
    s = bench_pairs.summarize(runs_of(parent, change, "cells_per_s"),
                              END_TO_END[:1])["cells_per_s"]
    assert s["resolved"] is resolved


def test_main_writes_the_result_file(bench_pairs, tmp_path, monkeypatch):
    for tree in ("p", "c"):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "BENCHMARK.json").write_text(json.dumps(
            {"command": ["python3", "perfbench/run.py"], "run_seconds": 5,
             "end_to_end": END_TO_END}))
    seen = []

    def run(tree, prefix, workload, seed, seconds):
        seen.append((os.path.basename(tree), prefix, seconds))
        rss = 90.0 if tree.endswith("p") else 80.0
        return {"correct": True, "attempted": 2, "failed": 0, "run_s": 0.0,
                "metrics": {"cells_per_s": 0.3, "peak_rss_mb": rss}}
    monkeypatch.setattr(bench_pairs, "run_tree", run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "p"), str(tmp_path / "c"), "--workload",
                             "selftrain", "--pairs", "2", "--out", str(out)]) == 0
    assert seen == [("p", ["python3", "perfbench/run.py"], 5),
                    ("c", ["python3", "perfbench/run.py"], 5),
                    ("c", ["python3", "perfbench/run.py"], 5),
                    ("p", ["python3", "perfbench/run.py"], 5)]
    result = json.loads(out.read_text())
    assert (result["workload"], result["pairs"], result["seed"], result["seconds"]) == (
        "selftrain", 2, 0, 5)
    assert len(result["runs"]) == 4
    rss = result["summary"]["peak_rss_mb"]
    assert (rss["parent_median"], rss["change_median"], rss["change_wins"]) == (90.0, 80.0, 2)
    assert rss["claim_holds"] is True
    assert result["summary"]["cells_per_s"]["change_wins"] == 0


def test_run_tree_reads_the_result_and_context_lines(bench_pairs, monkeypatch, tmp_path):
    context = {"cell_s": {"bond": 0.4}, "f1_mean": {"bond": 0.1}, "problems": []}
    result = {"correct": True, "attempted": 2, "failed": 0,
              "metrics": {"peak_rss_mb": {"value": 75.0, "unit": "MB"}}}
    seen = []

    def run(cmd, cwd, **kwargs):
        seen.append((cmd, cwd))
        stdout = "\n".join(["peak_rss_mb  75.0 MB", json.dumps(context), json.dumps(result)])
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout + "\n", stderr="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    got = bench_pairs.run_tree(str(tmp_path), ["env", "X=1", "python3", "perfbench/run.py"],
                               "selftrain", 3, 30.0)
    assert seen == [(["env", "X=1", "python3", "perfbench/run.py", "--workload", "selftrain",
                      "--seed", "3", "--seconds", "30.0", "--trace", "0"], str(tmp_path))]
    assert got["metrics"] == {"peak_rss_mb": 75.0}
    assert (got["correct"], got["attempted"], got["failed"]) == (True, 2, 0)
    assert (got["cell_s"], got["f1_mean"]) == (context["cell_s"], context["f1_mean"])
