"""The experiment scripts under ``scripts/``, loaded from their files."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


UNSORTED_ARMS = [0.3, 0.9, 0.45, 0.75, 0.6]  # rank 2 is arm 4 (0.75)


def test_target_share_reads_the_arm_of_that_rank():
    suite = load_script("run_hinted_suite")
    assert suite.target_share([4, 4, 2, 4], UNSORTED_ARMS, 2) == 0.75
    assert suite.target_share([2, 2], UNSORTED_ARMS, 1) == 1.0
    assert suite.target_share([2, 2], [0.9, 0.75, 0.6], 2) == 1.0


def test_hinted_suite_reports_the_target_arm_on_unsorted_arms(tmp_path, capsys):
    suite = load_script("run_hinted_suite")
    suite.main(["--arms", *map(str, UNSORTED_ARMS), "--horizon", "4000",
                "--replications", "6", "--workers", "1", "--out", str(tmp_path)])
    top = json.loads((tmp_path / "eap" / "summary.json").read_text())["last_quarter_top_pulled"]
    assert top == [4] * 6
    assert "rank-2 arm most pulled in the final quarter in 100% of replications" in (
        capsys.readouterr().out
    )


def test_bench_pairs_on_one_tree_writes_equal_digests(tmp_path, capsys):
    bench = load_script("bench_pairs")
    tree = SCRIPTS.parent
    assert bench.main([str(tree), str(tree), "--tag", "same", "--workloads", "logged",
                       "--pairs", "1", "--seconds", "0.01", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "BENCH_same.json").read_text())
    assert result["failures"] == [] and result["pairs"] == 1
    (run,) = result["workloads"]["logged"]["runs"]
    assert run["first"] == "parent" and run["parent"]["digests"] == run["change"]["digests"]
    assert run["parent"]["digests"] and run["parent"]["correct"] and run["change"]["correct"]
    bounds = {m["name"]: m["bound"] for m in
              json.loads((tree / "BENCHMARK.json").read_text())["end_to_end"]}
    metrics = result["workloads"]["logged"]["metrics"]
    assert {name: m["bound"] for name, m in metrics.items()} == bounds
    for m in metrics.values():
        assert m["parent"]["q1"] == m["parent"]["median"] == m["parent"]["q3"]
        assert m["wins"] + m["losses"] <= 1
        assert m["verdict"] in ("better", "past bound", "worse within bound", "undecided",
                                "within bound")
    table = capsys.readouterr().out
    assert table.count("| logged |") == len(bounds)


def test_bench_pairs_verdicts():
    bench = load_script("bench_pairs")
    parent = [1.0, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0, 1.0]
    faster = [x * 0.8 for x in parent]
    assert bench.compare(parent, faster, "lower", 0.25)["verdict"] == "better"
    fewer = bench.compare(parent, faster, "higher", 0.25)  # 20% fewer per second, bound 25%
    assert fewer["verdict"] == "worse within bound" and fewer["losses"] == 10
    assert bench.compare(parent, [x * 1.3 for x in parent], "lower", 0.25)["verdict"] == "past bound"
    assert bench.compare(parent, parent, "lower", 0.25)["verdict"] == "within bound"
    wide = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 1.0, 0.8, 1.2]
    assert bench.compare(wide, wide[::-1], "lower", 0.25)["verdict"] == "undecided"


def test_bench_pairs_times_tier1(tmp_path):
    bench = load_script("bench_pairs")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_one.py").write_text("def test_one():\n    pass\n")
    result = bench.tier1(tmp_path)
    assert result["returncode"] == 0 and result["seconds"] > 0
