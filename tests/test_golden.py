"""Golden artifacts of the market algorithms and the hinted bandits.

Each case runs one small Bernoulli config through ``run_experiment`` and
pins the sha256 of its series and phase CSVs and its summary, taken in
file-name order. One more case, with ``log_rounds``, pins the per-round
``rounds_rep*.csv`` and ``firms_rep*.csv`` logs as well. Any change to the
round protocol, the RNG draw order, the estimators, the firm clocks, the
regret accounting, the invariant counters or the CSV rendering moves a
digest. Two logged cases run truncated-Gaussian markets, and one
``allprobe`` case truncated-Gaussian arms; their draws go through libm's
``log``, ``sqrt`` and ``cos`` in ``random.gauss``, so their digests hold on
platforms whose libm rounds these as glibc does.

``drr`` and ``eancdrr`` run as lockstep blocks (``lockstep.run_drr_block``,
``lockstep.run_eancdrr_block``), and once more with the runner held to the
scalar engine; both paths must give the pinned digest. ``ancdrr`` runs on
the scalar reference engine alone: the perfbench ``scale`` self-test needs
one scalar algorithm until the benchmark counts lockstep rounds (ROADMAP
item 1).
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
        "7cd48d4010a4f2d4367aab7502750ef13710543aae283b28045a673c2a5bab75",
    ("drr", "uncertain"):
        "3437821a9b5dec88b53bf18d84c41b066ae2bd111afc4fc93d760ede49ec4cce",
    ("ancdrr", "certain"):
        "ab65a5472c902e7bced9b19dc4c4383a51e975a3493fde27cc6f99e3ba8d9984",
    ("ancdrr", "uncertain"):
        "8678f4c096db650991b339f04c5f2489c534702fafdcded5fec5f6975105b3f3",
    ("eancdrr", "certain"):
        "7df0c40fc99c5fa202333d16deecf2b423c81e50ff79799f004287236796a633",
    ("eancdrr", "uncertain"):
        "9af0d049d41c5d6fb0cd86ff802b3db714f2af2f6b11ac4011018f7b78f29231",
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


@pytest.mark.parametrize("algorithm", ["drr", "eancdrr"])
@pytest.mark.parametrize("firm_mode", ["certain", "uncertain"])
def test_scalar_engine_matches_golden_digest(algorithm, firm_mode, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_runs_lockstep", lambda config, market: False)
    run_experiment(golden_config(algorithm, firm_mode), out_dir=str(tmp_path))
    assert artifact_digest(tmp_path) == GOLDEN[(algorithm, firm_mode)]


# ancdrr with uncertain firms, logging every round: its firms abstain, so the
# gamma column of firms_rep*.csv holds zeros
LOGGED_GOLDEN = "600eaf7c59e3d03f32f0c56ac0c6f24e877e3cce4febc27f751a85d592be4349"


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


def gaussian_market(sigma):
    return {"generator": {**MARKET["generator"], "reward_kind": "gaussian", "sigma": sigma}}


# truncated-Gaussian markets with per-round logs: certain firms every round,
# and uncertain firms (eancdrr's phase log too) every seventh round
GAUSSIAN_GOLDEN = {
    ("ancdrr", "certain"):
        "d7e17daa3328bae0eea59fc5a497597e24d4ffa5adc7d010bc63f3fb34c5fe8f",
    ("eancdrr", "uncertain"):
        "93eb7fb4aa3b4c65d9bb6827fe10cc2b268afad8f875cfdacb8161fd9758a19c",
}


@pytest.mark.parametrize("case", sorted(GAUSSIAN_GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}")
def test_gaussian_round_logs_match_golden_digest(case, tmp_path):
    algorithm, firm_mode = case
    raw = {"algorithm": algorithm, "firm_mode": firm_mode, "horizon": 150,
           "replications": 3, "base_seed": 4, "log_rounds": True}
    if algorithm == "ancdrr":
        raw.update(market=gaussian_market(0.1), stride=1)
    else:
        raw.update(market=gaussian_market(0.05), stride=7, **{"lambda": 0.5})
    run_experiment(config_from_dict(raw), out_dir=str(tmp_path))
    digest = artifact_digest(tmp_path, ("series_", "phases_", "rounds_", "firms_"))
    assert digest == GAUSSIAN_GOLDEN[case]


# allprobe on truncated-Gaussian arms: the regret's expected maximum of two
# draws integrates the truncated CDF, whose cap and sigma are draw_reward's
GAUSSIAN_BANDIT_GOLDEN = "85b1bf3161bf6e0e7ae92bacc98f857c1bcae0c76ff0998d80bae7ce5e627b40"


def test_gaussian_bandit_matches_golden_digest(tmp_path):
    raw = {"algorithm": "allprobe", "market": {"arms": [0.9, 0.75, 0.6]},
           "reward_kind": "gaussian", "sigma": 0.1, "horizon": 400, "replications": 3,
           "base_seed": 11, "stride": 25}
    run_experiment(config_from_dict(raw), out_dir=str(tmp_path))
    assert artifact_digest(tmp_path) == GAUSSIAN_BANDIT_GOLDEN
