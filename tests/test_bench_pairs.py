"""``tools/bench_pairs.py`` against a stub runner: the pair order, the
summary's statistics and the document it writes, without starting a
benchmark."""
import importlib.util
import json
import shutil
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(run_s, correct=True, failed=0):
    metrics = {"setup_s": 0.3, "run_s": run_s, "peak_rss_mb": 60.0}
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": "?"} for k, v in metrics.items()}}


class Stub:
    """Records each run and answers with the next run_s of its side."""

    def __init__(self, sides, values):
        self.names = {path: side for side, path in sides.items()}
        self.values = {side: list(v) for side, v in values.items()}
        self.calls = []

    def __call__(self, checkout, workload, seed, seconds):
        side = self.names[checkout]
        self.calls.append((side, workload, seed, seconds))
        run_s = self.values[side].pop(0)
        return {"wall": 0.0, "exit": 0, "result": result(run_s),
                "step_medians": {"amp0": run_s / 2, "big": 0.1}}


METRICS = [("setup_s", "lower"), ("run_s", "lower"), ("peak_rss_mb", "lower")]


def test_pairs_alternate_which_side_runs_first(bench):
    sides = {"parent": Path("/p"), "change": Path("/c")}
    stub = Stub(sides, {"parent": [1.0] * 6, "change": [1.0] * 6})
    runs, _ = bench.batch(sides, ["circuit", "queries"], [7, 8, 9], 2.5, METRICS, stub)
    order = [side for side, *_ in stub.calls]
    assert order == ["parent", "change", "change", "parent", "parent", "change"] * 2
    assert [(w, s) for _, w, s, _ in stub.calls[:6]] == [("circuit", seed) for seed in (7, 7, 8, 8, 9, 9)]
    assert {seconds for *_, seconds in stub.calls} == {2.5}
    assert [r["first"] for r in runs[:6]] == ["parent"] * 2 + ["change"] * 2 + ["parent"] * 2


def test_summary_statistics(bench):
    parent = [0.030, 0.031, 0.029, 0.032, 0.030]
    change = [0.028, 0.029, 0.030, 0.027, 0.028]
    sides = {"parent": Path("/p"), "change": Path("/c")}
    stub = Stub(sides, {"parent": parent, "change": change})
    _, summary = bench.batch(sides, ["circuit"], [1, 2, 3, 4, 5], 1, METRICS, stub)
    got = summary["circuit"]
    assert got["seeds"] == [1, 2, 3, 4, 5]
    assert (got["failed_ops"], got["all_correct"]) == (0, True)
    run_s = got["run_s"]
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert run_s["parent"] == {"median": median, "q1": q1, "q3": q3, "n": 5}
    assert run_s["change"]["median"] == statistics.median(change)
    assert run_s["pairs"] == 5
    assert run_s["change_lower_in"] == 4  # the third pair reads 0.029 -> 0.030
    assert run_s["parent_iqr"] == pytest.approx(q3 - q1)
    assert run_s["median_gap"] == pytest.approx(0.030 - 0.028)
    assert run_s["ratio_of_medians"] == pytest.approx(0.028 / 0.030)
    assert got["setup_s"]["change_lower_in"] == 0  # equal values are not lower
    assert got["step_medians"]["parent"] == {"amp0": median / 2, "big": 0.1}


def test_higher_is_better_metric_gains_when_it_rises(bench):
    got = bench.compare([1.0, 2.0, 3.0], [2.0, 3.0, 1.0], "higher")
    assert got["change_lower_in"] == 2  # the change is better in two pairs
    assert got["median_gap"] == 0.0


def test_failed_run_is_not_correct(bench):
    sides = {"parent": Path("/p"), "change": Path("/c")}

    def runner(checkout, workload, seed, seconds):
        if checkout == sides["change"]:
            return {"wall": 0.0, "exit": 1, "result": None, "step_medians": {}}
        return {"wall": 0.0, "exit": 0, "result": result(0.03, failed=2), "step_medians": {}}

    _, summary = bench.batch(sides, ["circuit"], [1], 1, METRICS, runner)
    assert summary["circuit"] == {"seeds": [1], "failed_ops": 2, "all_correct": False}


def test_parse_run(bench):
    stdout = "noise\n" + json.dumps(result(0.5)) + "\n"
    stderr = ("circuit: 3 timed rounds, uncorrected round wall times [0.1], corrected step medians "
              "{'big': 0.004, 'amp0': 0.003}\n")
    assert bench.parse_run(stdout, stderr) == (result(0.5), {"big": 0.004, "amp0": 0.003})
    assert bench.parse_run("", "CHECK FAILED: x") == (None, {})
    assert bench.parse_run("not json\n", "") == (None, {})


def checkout(path):
    path.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    return path


def test_main_with_parent_dir_writes_the_document(bench, tmp_path):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    stub = Stub({"parent": parent, "change": change}, {"parent": [0.03, 0.03], "change": [0.02, 0.02]})
    out = tmp_path / "pairs.json"
    code = bench.main(["--pairs", "2", "--seconds", "1", "--workloads", "circuit", "--seeds", "40", "41",
                       "--parent-dir", str(parent), "--change-dir", str(change), "--out", str(out)], stub)
    assert code == 0
    document = json.loads(out.read_text())
    assert document["summary"]["circuit"]["seeds"] == [40, 41]
    assert document["summary"]["circuit"]["run_s"]["change_lower_in"] == 2
    assert len(document["runs"]) == 4


def test_seed_count_must_match_pairs(bench):
    with pytest.raises(SystemExit):
        bench.parse_args(["--pairs", "2", "--seeds", "1", "--parent-dir", "p"])
