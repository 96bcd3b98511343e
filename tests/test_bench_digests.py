"""The benchmark's own artifacts, pinned at workload seed 0.

Runs every config of perfbench's ``acceptance``, ``scale`` and ``logged``
workloads at full size through ``run_experiment``, with each workload's
worker count, and compares ``perfbench/run.py``'s ``digest_dir`` of its
output directory with the digest that ``run.py --seed 0`` prints on its
``digest`` lines. The golden suite stops at T = 600; these runs reach the
long settled stretches of a 3000-round logged replication and the 20x30
markets of ``scale``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from interview_markets.config import config_from_dict
from interview_markets.runner import run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DIGESTS = {
    ("acceptance", "allprobe"):
        "37bb5e11c627aa9459e3f731a5ab031fff221bf2e8205fb9974de878619fee60",
    ("acceptance", "ancdrr"):
        "376896b5fe63928ab112c4058df874c2ac5deaad08ceadf7804db3ee026403d4",
    ("acceptance", "apem"):
        "171dd2c6b2cdb0e62acb300789cbb6cd18a0235e55e04f80a57403b898670288",
    ("acceptance", "cia"):
        "2d2129be62b341c734783153c98f6cbc01d5e74b56e8af6dd4c0fc72a7c897aa",
    ("acceptance", "drr"):
        "7f82c165abeca0ccb2fce8ef99d5de2a47bac1afe27b4c3e36e5fa68d625c758",
    ("acceptance", "eancdrr"):
        "1395e6b5d4d082b28e2f4f98baabdb7eb1949871dd48638d3a0e7a9c5d7ab14d",
    ("acceptance", "eap"):
        "a7200de125a7dd2c89cddec364c2d1c994a75db524c5ff9a4c92bc492812567e",
    ("scale", "ancdrr"):
        "f03d8ec9f6fb22b9932134884aa903c24997042b3c1ebde1d2cfe5368ba20a6c",
    ("scale", "cia"):
        "f0b7ff2949fbdbf665f06c44c5f6d9f081fa28650a6ef320850cafeb50c6b717",
    ("logged", "ancdrr"):
        "e876754d7c32811e7e1f925e81626eb8e4cc61a8daae3c81ec1ca8db92a965a7",
}


@pytest.fixture
def bench(monkeypatch):
    """perfbench's ``run`` and ``workloads`` modules; sys.path is restored after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run"), importlib.import_module("workloads")


def test_every_benchmark_config_is_pinned(bench):
    _, workloads = bench
    listed = {(name, key) for name in workloads.NAMES
              for key, _ in workloads.workload_configs(name, 0)}
    assert listed == set(DIGESTS)


@pytest.mark.parametrize("case", sorted(DIGESTS), ids="-".join)
def test_benchmark_artifacts_match_pinned_digest(case, bench, tmp_path):
    run, workloads = bench
    name, key = case
    raw = dict(workloads.workload_configs(name, 0))[key]
    run_experiment(config_from_dict(raw), out_dir=str(tmp_path), workers=workloads.WORKERS[name])
    assert run.digest_dir(tmp_path)[0] == DIGESTS[case]
