"""Tests of the benchmark itself, at a tiny size.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.005
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int, seed: int = 0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                     "--trace", str(trace)], size=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert f"{metric['name']} {printed['value']} {metric['unit']}" in lines
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        draws = metrics["market.draw_reward_calls"]
        assert (draws > 0) == (workload == "logged")
        assert (metrics["hinted.step_calls"] > 0) == (workload == "acceptance")
        assert metrics["engine.rounds"] > 0
        assert metrics["trace.overhead_ratio"] > 0


def test_workload_seed_moves_replication_seeds():
    def seeds(seed):
        return {
            name: set(range(raw["base_seed"], raw["base_seed"] + raw["replications"]))
            for name, raw in workloads.workload_configs("acceptance", seed)
        }

    zero, one = seeds(0), seeds(1)
    assert min(zero["cia"]) == 1 and min(zero["allprobe"]) == 21 and min(zero["eap"]) == 33
    for name in zero:
        assert zero[name].isdisjoint(one[name]), name
    for name in workloads.NAMES:
        a = workloads.workload_configs(name, 3)
        b = workloads.workload_configs(name, 4)
        assert [r["base_seed"] for _, r in a] != [r["base_seed"] for _, r in b]
        assert [r["market"] for _, r in a] == [r["market"] for _, r in b]
        assert workloads.workload_configs(name, 3) == a


def test_checks_reject_bad_artifacts(tmp_path):
    pkg = run.import_package()
    raw = dict(workloads.workload_configs("acceptance", 0, TINY)[0][1])
    config = pkg.config.config_from_dict(raw)
    summary = pkg.runner.run_experiment(config, out_dir=str(tmp_path), workers=1)
    assert run.check_artifacts(config, summary, tmp_path) == {}

    bad = json.loads(json.dumps(summary))
    bad["final_matchings"][1] = [0, 0, None]
    assert list(run.check_artifacts(config, bad, tmp_path)) == [1]
    bad = json.loads(json.dumps(summary))
    bad["invariants"]["collision_rounds"] = 1
    assert len(run.check_artifacts(config, bad, tmp_path)) == config.replications
    (tmp_path / "series_rep0002.csv").unlink()
    assert list(run.check_artifacts(config, summary, tmp_path)) == [2]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "scale", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_digests_repeat_for_a_seed_and_move_with_it(capsys):
    digests = []
    for seed in (0, 0, 1):
        _, lines, _ = _run(capsys, "logged", 0, seed)
        digests.append([line for line in lines if line.startswith("digest ")])
    assert digests[0] and digests[0] == digests[1] != digests[2]
