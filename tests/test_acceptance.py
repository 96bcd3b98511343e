"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The heavy replicated experiments execute once per
session and are shared across criteria; two worker processes are used for
replications (each replication owns all of its mutable state).
"""

import random

import numpy as np
import pytest

from interview_markets.config import config_from_dict
from interview_markets.decentral import CoordinationFreePolicy, ExtendedCoordinationFreePolicy
from interview_markets.engine import run_horizon
from interview_markets.estimation import OracleEstimator
from interview_markets.firms import StrategicFirmPolicy
from interview_markets.hinted import bernoulli_max_expectation
from interview_markets.market import (
    Matching,
    alpha_reducibility,
    blocking_pairs,
    enumerate_stable_matchings,
    gale_shapley,
    generate_alpha_reducible,
    generate_market,
    ground_truth_prefs,
)
from interview_markets.named_markets import named_example
from interview_markets.runner import run_experiment

WORKERS = 2

# the 3x3 separation-0.2 Bernoulli market shared by criteria 4-6 and 8
MARKET_SEED = 424242


def _ok(line: str) -> None:
    print(f"PASS {line}", flush=True)


def market_config(**overrides):
    raw = {
        "market": {
            "generator": {
                "n": 3,
                "m": 3,
                "min_gap": 0.2,
                "alpha_reducible": True,
                "market_seed": MARKET_SEED,
            }
        },
        "algorithm": "cia",
        "firm_mode": "uncertain",
        "horizon": 50_000,
        "replications": 50,
        "base_seed": 1,
        "stride": 1000,
    }
    raw.update(overrides)
    return config_from_dict(raw)


@pytest.fixture(scope="module")
def outdirs(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def cia_summary(outdirs):
    return run_experiment(market_config(), out_dir=str(outdirs / "cia"), workers=WORKERS)


@pytest.fixture(scope="module")
def drr_summary(outdirs):
    config = market_config(algorithm="drr")
    return run_experiment(config, out_dir=str(outdirs / "drr"), workers=WORKERS)


@pytest.fixture(scope="module")
def ancdrr_summary(outdirs):
    config = market_config(algorithm="ancdrr")
    return run_experiment(config, out_dir=str(outdirs / "ancdrr"), workers=WORKERS)


@pytest.fixture(scope="module")
def eancdrr_summary(outdirs):
    config = market_config(
        market={"example": "drrs4"},
        algorithm="eancdrr",
        horizon=20_000,
        replications=100,
        **{"lambda": 0.5},
    )
    return run_experiment(config, out_dir=str(outdirs / "eancdrr"), workers=WORKERS)


@pytest.fixture(scope="module")
def certain_summaries(outdirs):
    summaries = {}
    for algo in ("cia", "drr", "ancdrr", "eancdrr"):
        overrides = {
            "algorithm": algo,
            "firm_mode": "certain",
            "horizon": 5_000,
            "replications": 5,
        }
        if algo == "eancdrr":
            overrides["lambda"] = 0.5
        config = market_config(**overrides)
        summaries[algo] = run_experiment(
            config, out_dir=str(outdirs / f"certain-{algo}"), workers=WORKERS
        )
    return summaries


def plateau_ratios(summary, kind):
    return [entry["ratio"] for entry in summary["plateau"][kind]]


def test_criterion_01_stability_oracle_equivalence():
    """1000 random markets: deferred acceptance matches the enumeration extremes."""
    shapes = [(n, m) for n in range(1, 7) for m in range(n, 7)]
    checked = 0
    for seed in range(1000):
        n, m = shapes[seed % len(shapes)]
        market = generate_market(n, m, 0.02, random.Random(seed))
        agent_prefs, firm_prefs = ground_truth_prefs(market)
        stable_set = enumerate_stable_matchings(market)
        best = gale_shapley(agent_prefs, firm_prefs, "agents")
        worst = gale_shapley(agent_prefs, firm_prefs, "firms")
        assert blocking_pairs(best, agent_prefs, firm_prefs) == []
        assert best.agent_match == tuple(stable_set.best_partner)
        assert worst.agent_match == tuple(stable_set.worst_partner)
        checked += 1
    assert checked == 1000
    _ok("criterion 1: deferred acceptance equals enumeration extremes on 1000 markets")


def test_criterion_02_alpha_reducible_uniqueness():
    """500 layered markets: exactly one stable matching, equal to the fixed pairs."""
    shapes = [(n, m) for n in range(1, 6) for m in range(n, 6)]
    for seed in range(500):
        n, m = shapes[seed % len(shapes)]
        market = generate_alpha_reducible(n, m, 0.03, random.Random(10_000 + seed))
        seq = alpha_reducibility(market)
        assert seq is not None
        stable_set = enumerate_stable_matchings(market)
        assert len(stable_set.matchings) == 1
        assert stable_set.matchings[0].pairs() == tuple(sorted(seq))
    _ok("criterion 2: 500 layered markets each have exactly the fixed-pair matching")


def test_criterion_03_golden_examples():
    """Documented outcomes of the six benchmark markets, exactly."""
    # ucb3x3: truthful lists give the diagonal; one misreport flips it
    agent_prefs, firm_prefs = ground_truth_prefs(named_example("ucb3x3"))
    assert gale_shapley(agent_prefs, firm_prefs, "agents").agent_match == (0, 1, 2)
    misreported = list(agent_prefs)
    misreported[2] = (0, 2, 1)
    assert gale_shapley(misreported, firm_prefs, "agents").agent_match == (1, 0, 2)

    # drrs4: the documented agent-optimal and agent-pessimal matchings are the
    # lattice extremes; exhaustive enumeration finds one further stable
    # matching in between (see the stable-set tests for the full set)
    stable_set = enumerate_stable_matchings(named_example("drrs4"))
    assert stable_set.best_partner == (0, 1, 2)
    assert stable_set.worst_partner == (2, 0, 1)
    members = {m.agent_match for m in stable_set.matchings}
    assert (0, 1, 2) in members and (2, 0, 1) in members

    # introstrategic and coordfgs have unique stable matchings
    intro = enumerate_stable_matchings(named_example("introstrategic"))
    assert [m.agent_match for m in intro.matchings] == [(0, 1)]
    coord = enumerate_stable_matchings(named_example("coordfgs"))
    assert [m.agent_match for m in coord.matchings] == [(0, 1, 2)]
    assert alpha_reducibility(named_example("coordfgs")) == ((0, 0), (1, 1), (2, 2))

    # k3: with oracle estimates and the adversarial rejection state, the
    # coordination-free learner enters the period-2 application cycle
    market = named_example("k3", reward_kind="point")
    agent_est = OracleEstimator(market.agent_means)
    firm_est = OracleEstimator(market.firm_means)
    policy = CoordinationFreePolicy(2, 2, agent_est)
    policy.states[1].closed.add(1)
    outcomes = []
    run_horizon(
        market, agent_est, firm_est, policy, StrategicFirmPolicy(2, "certain"),
        6, random.Random(0), outcomes.append,
        start_round=2, initial_matching=Matching((1, None), 2),
    )
    apps = [o.applications for o in outcomes]
    matches = [o.match for o in outcomes]
    assert apps[2] == apps[0] and matches[2] == matches[0]  # period 2, within 4 rounds
    assert apps[3] == apps[1] and matches[3] == matches[1]
    assert apps[0] != apps[1]
    _ok("criterion 3: benchmark outcomes reproduced (matchings, uniqueness, cycle)")


def test_criterion_04_cia_plateau(cia_summary):
    """Central allocation: expected optimal regret flat from 5e3 to 5e4."""
    assert cia_summary["plateau_window"] == [5_000, 50_000]
    ratios = plateau_ratios(cia_summary, "pseudo_optimal")
    assert all(r <= 1.10 for r in ratios), ratios
    assert cia_summary["invariants"]["collision_rounds"] == 0
    _ok(f"criterion 4: central plateau ratios {['%.3f' % r for r in ratios]} <= 1.10, no collisions")


def test_criterion_05_drr_structure(drr_summary):
    """Coordinated learning: perfect commits, early quiescence, flat regret."""
    assert drr_summary["invariants"]["imperfect_commits"] == 0
    late = drr_summary["phases"]["late_starts"]
    quiet = sum(1 for x in late if x == 0)
    assert quiet >= 0.95 * len(late), late
    ratios = plateau_ratios(drr_summary, "pseudo_optimal")
    assert all(r <= 1.15 for r in ratios), ratios
    _ok(
        "criterion 5: every phase commits a perfect matching; "
        f"{quiet}/{len(late)} replications quiet in the final half; plateau <= 1.15"
    )


def test_criterion_06_ancdrr_convergence(ancdrr_summary):
    """Coordination-free learning reaches the unique stable matching."""
    market = generate_alpha_reducible(3, 3, 0.2, random.Random(MARKET_SEED))
    unique = tuple(f for _, f in sorted(alpha_reducibility(market)))
    fraction = ancdrr_summary["convergence"]["fraction"]
    assert fraction >= 0.95, fraction
    rounds = ancdrr_summary["convergence"]["rounds"]
    for final, conv in zip(ancdrr_summary["final_matchings"], rounds):
        if conv is not None:
            assert tuple(final) == unique
    ratios = plateau_ratios(ancdrr_summary, "pseudo_optimal")
    assert all(r <= 1.15 for r in ratios), ratios
    _ok(
        f"criterion 6: {fraction:.0%} replications converge to the unique stable "
        "matching; plateau <= 1.15"
    )


def test_criterion_07a_eancdrr_multiple_stable(eancdrr_summary):
    """Randomized paired applications settle into some stable matching."""
    stable = {m.agent_match for m in enumerate_stable_matchings(named_example("drrs4")).matchings}
    assert eancdrr_summary["convergence"]["fraction"] == 1.0
    landed = set()
    for final in eancdrr_summary["final_matchings"]:
        assert tuple(final) in stable
        landed.add(tuple(final))
    ratios = plateau_ratios(eancdrr_summary, "pseudo_pessimal")
    assert all(r <= 1.15 for r in ratios), ratios
    _ok(
        f"criterion 7a: 100/100 replications converge into the stable set "
        f"({len(landed)} distinct limits); pessimal plateau <= 1.15"
    )


def test_criterion_07b_eancdrr_escapes_cycle():
    """The k=3 randomized learner leaves the k3 cycle and converges."""
    market = named_example("k3", reward_kind="point")
    agent_est = OracleEstimator(market.agent_means)
    firm_est = OracleEstimator(market.firm_means)
    stable = {m.agent_match for m in enumerate_stable_matchings(market).matchings}
    escaped = 0
    for seed in range(100):
        policy = ExtendedCoordinationFreePolicy(
            2, 2, agent_est, 0.5, random.Random(50_000 + seed)
        )
        policy.states[1].closed.add(1)
        policy.states[0].anchor = 1
        policy.states[1].anchor = 1
        result = run_horizon(
            market, agent_est, firm_est, policy, StrategicFirmPolicy(2, "certain"),
            10_000, random.Random(seed), None,
            start_round=2, initial_matching=Matching((1, None), 2), interview_budget=3,
        )
        if result.converged_round is not None:
            assert result.final_matching.agent_match in stable
            escaped += 1
    assert escaped >= 95, escaped
    _ok(f"criterion 7b: {escaped}/100 seeds escape the application cycle within 1e4 rounds")


def test_criterion_08_firm_policy(certain_summaries, drr_summary):
    """Certain firms never abstain; uncertain firms never abstain twice in a row."""
    for algo, summary in certain_summaries.items():
        assert summary["invariants"]["certain_gamma_violations"] == 0, algo
        assert summary["invariants"]["gamma_zero_rounds"] == 0, algo
    assert drr_summary["invariants"]["consecutive_abstentions"] == 0
    _ok("criterion 8: certain firms always hire; no back-to-back abstentions under drr")


def test_criterion_09_feedback_invariants(
    cia_summary, drr_summary, ancdrr_summary, eancdrr_summary, certain_summaries
):
    """Vacancy set inside the hiring-change set, never fewer than m-n vacant."""
    summaries = [cia_summary, drr_summary, ancdrr_summary, eancdrr_summary]
    summaries.extend(certain_summaries.values())
    for summary in summaries:
        assert summary["invariants"]["vprime_subset_violations"] == 0
        assert summary["invariants"]["vprime_size_violations"] == 0
    _ok("criterion 9: feedback invariants hold on every round of every run")


def test_criterion_10_hinted_bandits(outdirs):
    """Max identity, flat hinted regret, and rank targeting."""
    rng = np.random.default_rng(7)
    for p in np.arange(0.0, 1.01, 0.1):
        for q in np.arange(0.0, 1.01, 0.1):
            x = rng.random(1_000_000) < p
            y = rng.random(1_000_000) < q
            mc = float(np.maximum(x, y).mean())
            assert abs(bernoulli_max_expectation(float(p), float(q)) - mc) < 0.005

    arms = [0.9, 0.75, 0.6, 0.45, 0.3]  # adjacent separation 0.15
    ratios = {}
    for algo in ("allprobe", "apem"):
        config = config_from_dict(
            {
                "market": {"arms": arms},
                "algorithm": algo,
                "horizon": 100_000,
                "replications": 50,
                "base_seed": 21,
                "stride": 10_000,
            }
        )
        summary = run_experiment(config, out_dir=str(outdirs / algo), workers=WORKERS)
        assert summary["plateau_window"] == [10_000, 100_000]
        ratios[algo] = summary["plateau"]["ratio"]
        assert ratios[algo] <= 1.10, (algo, ratios[algo])

    config = config_from_dict(
        {
            "market": {"arms": arms},
            "algorithm": "eap",
            "target_rank": 2,
            "horizon": 20_000,
            "replications": 50,
            "base_seed": 33,
            "stride": 2_000,
        }
    )
    summary = run_experiment(config, out_dir=str(outdirs / "eap"), workers=WORKERS)
    hits = sum(1 for top in summary["last_quarter_top_pulled"] if top == 2)
    assert hits >= 45, hits  # >= 90% of seeds pull the true 2nd arm most often
    _ok(
        "criterion 10: max identity within 0.005; plateau "
        f"allprobe {ratios['allprobe']:.3f} / apem {ratios['apem']:.3f} <= 1.10; "
        f"rank-2 targeting {hits}/50"
    )


def test_criterion_11_determinism(tmp_path):
    """Re-running any experiment with the same base seed is byte-identical."""
    cases = [
        market_config(horizon=400, replications=2, stride=50),
        market_config(algorithm="drr", horizon=400, replications=2, stride=50),
        market_config(algorithm="ancdrr", horizon=400, replications=2, stride=50),
        market_config(
            algorithm="eancdrr", horizon=400, replications=2, stride=50, **{"lambda": 0.5}
        ),
        config_from_dict(
            {
                "market": {"arms": [0.8, 0.5, 0.2]},
                "algorithm": "allprobe",
                "horizon": 400,
                "replications": 2,
                "base_seed": 3,
                "stride": 50,
            }
        ),
        config_from_dict(
            {
                "market": {"arms": [0.8, 0.5, 0.2]},
                "algorithm": "eap",
                "target_rank": 2,
                "horizon": 400,
                "replications": 2,
                "base_seed": 3,
                "stride": 50,
            }
        ),
        config_from_dict(
            {
                "market": {"arms": [0.8, 0.5, 0.2]},
                "algorithm": "apem",
                "horizon": 400,
                "replications": 2,
                "base_seed": 3,
                "stride": 50,
            }
        ),
    ]
    for idx, config in enumerate(cases):
        dir_a = tmp_path / f"case{idx}-a"
        dir_b = tmp_path / f"case{idx}-b"
        run_experiment(config, out_dir=str(dir_a), workers=1)
        run_experiment(config, out_dir=str(dir_b), workers=WORKERS)
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(p.name for p in dir_b.iterdir())
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), (idx, name)
    _ok("criterion 11: byte-identical artifacts across reruns for all seven algorithms")
