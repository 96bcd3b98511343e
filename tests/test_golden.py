"""Golden artifacts of the market algorithms and the hinted bandits.

Each case runs one small Bernoulli config through ``run_experiment`` and
pins the sha256 of its series and phase CSVs and its summary, taken in
file-name order. One more case, with ``log_rounds``, pins the per-round
``rounds_rep*.csv`` and ``firms_rep*.csv`` logs as well. Any change to the round protocol, the RNG draw order, the
estimators, the firm clocks, the regret accounting, the invariant counters or
the CSV rendering moves a digest. Gaussian rewards are left out because
their draws go through libm.

``ancdrr`` and ``eancdrr`` run on the scalar reference engine. ``drr`` runs
as a lockstep block (``lockstep.run_drr_block``), and once more with the
runner held to the scalar engine; both must give the pinned digest.
"""

import hashlib

import pytest

from interview_markets import runner
from interview_markets.config import config_from_dict
from interview_markets.runner import run_experiment

MARKET = {"generator": {"n": 3, "m": 4, "min_gap": 0.02, "market_seed": 9}}
ARMS = {"arms": [0.3, 0.2, 0.1, 0.05, 0.02]}

GOLDEN = {
    ("drr", "certain"):
        "e72fa35322e9886e85193a3cc53122710b319e06883ac4e602e615511582a187",
    ("drr", "uncertain"):
        "534b476b7cd54ac8c7aa6eec31bc30c8c675be42d1f1b8c6cf896805ad25e1d5",
    ("ancdrr", "certain"):
        "80f92e85208dbd694d7f2c39aaf1e5f197ad1f8b5d933481c71c80405281d27b",
    ("ancdrr", "uncertain"):
        "f6187643c45f19b85aa6987e0d9d8ff663e3d59bd80a622f9b9afc24bc314e48",
    ("eancdrr", "certain"):
        "0ea0b0506a564468a45a3acd8714da72c17c5fdc1ae53dc46beb7e6f6b3305dd",
    ("eancdrr", "uncertain"):
        "b815b8d90bd870167502511d5654699463588f40cacb2e7dad2f9d73031784da",
    ("allprobe", None):
        "e450adbe36f10281e52c9b8aacead9d28a91d2d412b0bca98f5b4cbcfce40006",
    ("apem", None):
        "d9b4753409dd9a7d2aa08711e881622a8a0a23a568f66e0707f3e159681a594c",
    ("eap", None):
        "5ba3ea8579d74cfdb0d2743591ab8d0fab926767970a81c7862a753ecbdc3481",
}


def golden_config(algorithm, firm_mode):
    raw = {"algorithm": algorithm, "horizon": 600, "replications": 3,
           "base_seed": 11, "stride": 25}
    if firm_mode is None:
        raw["market"] = ARMS
        if algorithm == "eap":
            raw["target_rank"] = 2
    else:
        raw.update(market=MARKET, firm_mode=firm_mode)
        if algorithm == "eancdrr":
            raw["lambda"] = 0.5
    return config_from_dict(raw)


def artifact_digest(out_dir, prefixes=("series_", "phases_")) -> str:
    h = hashlib.sha256()
    paths = sorted(
        p for p in out_dir.iterdir()
        if p.name.startswith(prefixes) or p.name == "summary.json"
    )
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN, key=str), ids=lambda c: f"{c[0]}-{c[1]}")
def test_artifacts_match_golden_digest(case, tmp_path):
    run_experiment(golden_config(*case), out_dir=str(tmp_path))
    assert artifact_digest(tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("firm_mode", ["certain", "uncertain"])
def test_scalar_drr_matches_golden_digest(firm_mode, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_runs_lockstep", lambda config, market: False)
    run_experiment(golden_config("drr", firm_mode), out_dir=str(tmp_path))
    assert artifact_digest(tmp_path) == GOLDEN[("drr", firm_mode)]


# ancdrr with uncertain firms, logging every round: its firms abstain, so the
# gamma column of firms_rep*.csv holds zeros
LOGGED_GOLDEN = "e80302a148aa7651da243e47ed9c0ecc8dd72f067ee89daaf151065f4499a047"


def test_round_logs_match_golden_digest(tmp_path):
    raw = {"algorithm": "ancdrr", "market": MARKET, "firm_mode": "uncertain",
           "horizon": 150, "replications": 3, "base_seed": 4, "stride": 1,
           "log_rounds": True}
    summary = run_experiment(config_from_dict(raw), out_dir=str(tmp_path))
    assert summary["invariants"]["gamma_zero_rounds"] > 0
    gammas = [
        line.split(",")[2]
        for path in tmp_path.glob("firms_rep*.csv")
        for line in path.read_text().splitlines()[1:]
    ]
    assert gammas.count("0") == summary["invariants"]["gamma_zero_rounds"]
    digest = artifact_digest(tmp_path, ("series_", "rounds_", "firms_"))
    assert digest == LOGGED_GOLDEN
