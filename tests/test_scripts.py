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
