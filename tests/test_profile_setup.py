"""scripts/profile_setup.py: a one-run smoke test and the pair order, on a stub runner."""
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE = os.path.join(ROOT, "configs", "experiment_smoke.json")


@pytest.fixture(scope="module")
def profile_setup():
    spec = importlib.util.spec_from_file_location(
        "profile_setup", os.path.join(ROOT, "scripts", "profile_setup.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_run_of_the_smoke_config(profile_setup, tmp_path, capsys):
    out = tmp_path / "setup.json"
    assert profile_setup.main([ROOT, "--workload", "sweep", "--repeats", "1",
                               "--config", SMOKE, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["fractions"] == [0.1, 0.5]  # sweep draws every fraction of the config
    (run,) = result["runs"]
    assert run["tree"] == ROOT and set(run["parts"]) == set(profile_setup.PARTS)
    assert all(t > 0 for t in run["parts"].values())
    assert result["summary"]["masks"]["median"] == [run["parts"]["masks"]]
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == list(profile_setup.PARTS)


def test_in_process_workloads_draw_one_fraction(profile_setup):
    assert profile_setup.workload_fractions(SMOKE, "selftrain") == [0.05]


def test_two_trees_alternate_and_count_wins(profile_setup):
    calls = []

    def runner(tree, config_path, fractions):
        calls.append(tree)
        fast = tree == "B" and len(calls) != 3  # B loses the second pair's masks
        return {p: (0.5 if fast and p == "masks" else 1.0) for p in profile_setup.PARTS}
    runs = profile_setup.run_all(["A", "B"], 3, SMOKE, [0.1], runner)
    assert calls == ["A", "B", "B", "A", "A", "B"]
    assert [r["side"] for r in runs] == [0, 1, 1, 0, 0, 1]
    summary = profile_setup.summarize(["A", "B"], runs)
    assert summary["masks"]["second_wins"] == 2
    assert summary["masks"]["median"] == [1.0, 0.5]
    assert summary["import"]["second_wins"] == 0 and summary["import"]["ratio"] == 1.0
