import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interview_markets.config import config_from_dict
from interview_markets.engine import AgentPlan, RoundOutcome, run_horizon
from interview_markets.estimation import EstimatorState, OracleEstimator
from interview_markets.firms import StrategicFirmPolicy
from interview_markets.market import (
    Market,
    enumerate_stable_matchings,
    generate_alpha_reducible,
)
from interview_markets.metrics import RunRecorder, min_gaps, plateau_from_values
from interview_markets.named_markets import named_example
from interview_markets.runner import market_baselines, run_experiment


def record_rewards(base_opt, base_pess, rewards, firm=0):
    """The series of a one-agent RunRecorder fed one round per reward, matched
    to ``firm``, as an array (round, kind in SERIES_KINDS order, agent)."""
    market = Market(((0.9, 0.5),), ((0.5,), (0.4,)))
    recorder = RunRecorder(market, (base_opt,), (base_pess,), EstimatorState(1, 2), (0,), (),
                           retain_rounds=range(1, len(rewards) + 1))
    vacant = frozenset({0, 1}) - {firm}
    for t, x in enumerate(rewards, 1):
        apps = ((0,),) if firm is not None else ((),)
        recorder(RoundOutcome(t, ((0, 1),), apps, (1, 1), (firm,), (x,), vacant, vacant))
    return recorder.stored_rows()


class TestRegretSeries:
    def test_matched_to_baseline_point_mass_is_zero(self):
        series = record_rewards(0.9, 0.9, [0.9] * 10)
        assert series[-1, 0, 0] == pytest.approx(0.0)

    def test_never_matched(self):
        series = record_rewards(0.9, 0.5, [0.0] * 10, firm=None)
        assert series[-1, 0, 0] == pytest.approx(9.0)
        assert series[-1, 2, 0] == pytest.approx(9.0)  # pseudo optimal

    def test_pessimal_increment_can_go_negative(self):
        series = record_rewards(0.9, 0.5, [0.8])
        assert series[-1, 1, 0] == pytest.approx(-0.3)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=50))
    def test_decomposition_identity(self, rewards):
        base_opt, base_pess = 0.8, 0.55
        series = record_rewards(base_opt, base_pess, rewards)
        opt, pess = series[:, 0, 0], series[:, 1, 0]
        t = np.arange(1, len(rewards) + 1)
        assert np.allclose(opt - pess, t * (base_opt - base_pess))


class TestMinGaps:
    def test_simple_agent_gap(self):
        market = Market(((0.9, 0.5),), ((0.5,), (0.4,)))
        agent_gaps, firm_gaps = min_gaps(market, (0,))
        assert agent_gaps == pytest.approx((0.4,))
        # firm 1 stays vacant, so its gap is measured from the vacancy utility 0
        assert firm_gaps == (0.0, 0.4)

    def test_gaps_are_positive_and_skip_the_partner(self):
        market = named_example("drrs4")
        best = enumerate_stable_matchings(market).best_partner
        agent_gaps, firm_gaps = min_gaps(market, best)
        for a, row in enumerate(market.agent_means):
            assert agent_gaps[a] == min(abs(row[best[a]] - u) for f, u in enumerate(row)
                                        if f != best[a]) > 0
        assert len(firm_gaps) == market.m and min(firm_gaps) > 0

    def test_no_other_peer_is_zero(self):
        market = Market(((0.7,),), ((0.6,),))
        assert min_gaps(market, (0,)) == ((0.0,), (0.0,))


class ScriptedPolicy:
    """Each agent applies to its scripted firm of the round, or abstains on None."""

    def __init__(self, script):
        self.script = script

    def plan(self, t):
        return [AgentPlan((f, f), (f,)) if f is not None else AgentPlan((0, 0))
                for f in self.script[t - 1]]

    def observe(self, t, feedback):
        pass


def converged_round(script):
    """The engine's convergence round for a scripted run of a 2x2 market."""
    market = Market(((0.9, 0.5), (0.4, 0.8)), ((0.5, 0.6), (0.7, 0.3)))
    agent_est, firm_est = OracleEstimator(market.agent_means), OracleEstimator(market.firm_means)
    result = run_horizon(
        market, agent_est, firm_est, ScriptedPolicy(script),
        StrategicFirmPolicy(2, "certain"), len(script), random.Random(0),
    )
    assert result.final_matching.agent_match == script[-1]
    return result.converged_round


class TestConvergenceRound:
    def test_constant_from_start(self):
        assert converged_round([(0, 1)] * 5) == 1

    def test_unmatched_at_end_is_absent(self):
        assert converged_round([(0, 1), (0, None)]) is None

    def test_change_at_penultimate_round(self):
        log = [(0, 1), (0, 1), (1, 0), (1, 0)]
        assert converged_round(log) == 3
        assert converged_round([(0, 1), (1, 0), (0, 1)]) == 3


class TestPlateauRatio:
    def test_constant_series(self):
        assert plateau_from_values(42.0, 42.0)["ratio"] == pytest.approx(1.0)

    def test_linear_series(self):
        res = plateau_from_values(10.0, 100.0)
        assert res == {"ratio": pytest.approx(10.0), "zero_denominator": False}

    def test_zero_series_flagged(self):
        assert plateau_from_values(0.0, 0.0) == {"ratio": 1.0, "zero_denominator": True}

    def test_negative_flat_series_counts_as_flat(self):
        series = np.linspace(-1.0, -2.0, 50)
        res = plateau_from_values(float(series[4]), float(series[49]))
        assert res == {"ratio": 1.0, "zero_denominator": True}

    def test_growth_from_zero_is_infinite(self):
        assert plateau_from_values(0.0, 25.0)["ratio"] == float("inf")


class TestInvalidLists:
    @pytest.mark.parametrize("algorithm", ["cia", "drr", "ancdrr", "eancdrr"])
    def test_invalidity_dies_out(self, algorithm, tmp_path):
        generator = {"n": 3, "m": 3, "min_gap": 0.2, "alpha_reducible": True,
                     "market_seed": 424242}
        raw = {"market": {"generator": generator}, "algorithm": algorithm,
               "firm_mode": "uncertain", "horizon": 1000, "replications": 10,
               "base_seed": 1, "stride": 1000}
        if algorithm == "eancdrr":
            raw["lambda"] = 0.5
        summary = run_experiment(config_from_dict(raw), out_dir=str(tmp_path))
        mean = summary["invalid_lists"]["mean"]
        assert np.shape(mean) == np.shape(summary["regret"]["optimal"]["mean"]) == (4, 3)
        assert max(mean[0]) > 0  # round 1: some agent lists an unseen firm too high
        assert mean[-1] == [0.0, 0.0, 0.0]  # round T: every list is valid


COUNTERS = (
    "collision_rounds",
    "vprime_subset_violations",
    "vprime_size_violations",
    "gamma_zero_rounds",
    "certain_gamma_violations",
    "consecutive_abstentions",
)


def reference_counters(outcomes, n, m, expect_no_collisions, certain_firms):
    """The six invariant counters, spelled out firm by firm and round by round."""
    counts = dict.fromkeys(COUNTERS, 0)
    prev_gamma, prev_pool = [1] * m, [0] * m
    for out in outcomes:
        pool = [sum(apps.count(f) for apps in out.applications) for f in range(m)]
        counts["collision_rounds"] += expect_no_collisions and any(s > 1 for s in pool)
        counts["vprime_subset_violations"] += not out.vprime <= out.v
        counts["vprime_size_violations"] += len(out.vprime) < m - n
        for f in range(m):
            if out.gamma[f] == 0:
                counts["gamma_zero_rounds"] += 1
                counts["certain_gamma_violations"] += certain_firms
                if prev_gamma[f] == 0 and prev_pool[f] > 0 and pool[f] > 0:
                    counts["consecutive_abstentions"] += 1
            prev_gamma[f], prev_pool[f] = out.gamma[f], pool[f]
    return counts


@st.composite
def round_outcomes(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 4))
    firms = st.integers(0, m - 1)
    subsets = st.frozensets(firms)
    outcomes = []
    for t in range(1, draw(st.integers(1, 10)) + 1):
        applications = tuple(
            tuple(draw(st.lists(firms, max_size=2, unique=True))) for _ in range(n)
        )
        agent_match = tuple(draw(st.permutations(list(range(m)) + [None] * n))[:n])
        outcomes.append(RoundOutcome(
            t,
            applications,
            applications,
            tuple(draw(st.lists(st.sampled_from([0, 0, 1]), min_size=m, max_size=m))),
            agent_match,
            tuple(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))),
            draw(subsets),
            draw(subsets),
        ))
    return n, m, outcomes


class TestRunRecorderCounters:
    @settings(max_examples=100, deadline=None)
    @given(case=round_outcomes(), expect_no_collisions=st.booleans(), certain=st.booleans())
    def test_counters_match_reference(self, case, expect_no_collisions, certain):
        n, m, outcomes = case
        market = generate_alpha_reducible(n, m, 0.05, random.Random(1))
        recorder = RunRecorder(
            market, [0.5] * n, [0.25] * n, EstimatorState(n, m), range(n), (),
            retain_rounds=range(1, len(outcomes) + 1),
            expect_no_collisions=expect_no_collisions, certain_firms=certain,
        )
        for out in outcomes:
            recorder(out)
        expected = reference_counters(outcomes, n, m, expect_no_collisions, certain)
        assert {name: recorder.events[name] for name in COUNTERS} == expected
        assert len(recorder.stored_rows()) == len(outcomes)


class TestBaselines:
    def test_unique_market_series_identical(self):
        market = named_example("coordfgs")
        _, base_opt, base_pess = market_baselines(market)
        assert base_opt == base_pess
