import random

from interview_markets.central import CentralAllocator, round_robin_firm
from interview_markets.engine import run_horizon
from interview_markets.estimation import EstimatorState, OracleEstimator
from interview_markets.firms import StrategicFirmPolicy
from interview_markets.market import enumerate_stable_matchings
from interview_markets.metrics import RunRecorder
from interview_markets.named_markets import named_example
from interview_markets.runner import market_baselines


class TestRoundRobinFirm:
    def test_first_agent_round_one(self):
        assert round_robin_firm(0, 1, 3) == 2  # agent 1 starts at firm 3

    def test_second_agent_round_one(self):
        assert round_robin_firm(1, 1, 3) == 0  # agent 2 starts at firm 1

    def test_each_window_covers_every_firm_once(self):
        for agent in range(4):
            for start in (1, 7, 23):
                window = [round_robin_firm(agent, t, 5) for t in range(start, start + 5)]
                assert sorted(window) == list(range(5))


def oracle_plan(agent_means, firm_means, t):
    """CentralAllocator's round-t plans when both sides know their means."""
    agent_est, firm_est = OracleEstimator(agent_means), OracleEstimator(firm_means)
    return CentralAllocator(len(agent_means), len(firm_means), agent_est, firm_est).plan(t)


class TestCiaPlan:
    def test_truth_lists_give_agent_optimal(self):
        market = named_example("ucb3x3")
        plans = oracle_plan(market.agent_means, market.firm_means, t=1)
        assert [p.applications for p in plans] == [(0,), (1,), (2,)]
        assert [p.interviews[1] for p in plans] == [2, 0, 1]

    def test_misreported_list_flips_outcome(self):
        market = named_example("ucb3x3")
        agent_means = list(market.agent_means)
        agent_means[2] = (0.9, 0.1, 0.5)  # agent 3 now ranks firms 1, 3, 2
        plans = oracle_plan(agent_means, market.firm_means, t=1)
        assert [p.applications for p in plans] == [(1,), (0,), (2,)]

    def test_single_agent_applies_to_estimated_top(self):
        plans = oracle_plan([(0.5, 0.9, 0.1)], [(0.5,), (0.5,), (0.5,)], t=3)
        assert plans[0].applications == (1,)

    def test_interview_sets_pair_apply_with_rr(self):
        market = named_example("ucb3x3")
        plans = oracle_plan(market.agent_means, market.firm_means, t=2)
        assert [p.interviews for p in plans] == [
            (p.applications[0], round_robin_firm(a, 2, 3)) for a, p in enumerate(plans)
        ]


class TestAllocatorRuns:
    def test_no_collisions_ever(self):
        market = named_example("coordfgs")
        for seed in range(5):
            agent_est = EstimatorState(3, 3)
            firm_est = EstimatorState(3, 3)
            policy = CentralAllocator(3, 3, agent_est, firm_est)
            best, base_opt, base_pess = market_baselines(market)
            recorder = RunRecorder(
                market, base_opt, base_pess, agent_est, best, (),
                expect_no_collisions=True, retain_rounds=[2000],
            )
            run_horizon(
                market, agent_est, firm_est, policy,
                StrategicFirmPolicy(3, "uncertain"), 2000, random.Random(seed), recorder,
            )
            assert recorder.events["collision_rounds"] == 0

    def test_oracle_firms_reach_stable_matching_fast(self):
        market = named_example("coordfgs", reward_kind="point")
        agent_est = EstimatorState(3, 3)
        firm_est = OracleEstimator(market.firm_means)
        policy = CentralAllocator(3, 3, agent_est, firm_est)
        result = run_horizon(
            market, agent_est, firm_est, policy,
            StrategicFirmPolicy(3, "certain"), 30, random.Random(1), None,
        )
        assert result.final_matching.agent_match == (0, 1, 2)
        assert result.converged_round is not None

    def test_valid_rounds_match_best_stable_or_better(self):
        # on rounds where every agent's list is valid for its best stable
        # partner and every firm's list is valid for its partner in the
        # agent-optimal matching, the allocator matches each agent at least
        # as well as its best stable partner (under the true means)
        from interview_markets.estimation import validity
        from interview_markets.market import ground_truth_prefs

        market = named_example("ucb3x3")  # multiple stable matchings
        agent_truth, firm_truth = ground_truth_prefs(market)
        stable_set = enumerate_stable_matchings(market)
        best = stable_set.best_partner
        partner_of_firm = {f: a for a, f in enumerate(best)}
        agent_est = EstimatorState(3, 3)
        firm_est = EstimatorState(3, 3)

        class SpyAllocator(CentralAllocator):
            def plan(self, t):
                self.valid_now = all(
                    validity(agent_est.pref_list(a), agent_truth[a], best[a])
                    for a in range(3)
                ) and all(
                    validity(firm_est.pref_list(f), firm_truth[f], partner_of_firm[f])
                    for f in range(3)
                )
                return super().plan(t)

        policy = SpyAllocator(3, 3, agent_est, firm_est)
        valid_rounds = 0

        def check(outcome):
            nonlocal valid_rounds
            if not policy.valid_now:
                return
            valid_rounds += 1
            for a in range(3):
                f = outcome.matching.agent_match[a]
                assert f is not None
                assert market.agent_means[a][f] >= market.agent_means[a][best[a]]

        run_horizon(
            market, agent_est, firm_est, policy,
            StrategicFirmPolicy(3, "uncertain"), 3000, random.Random(8), check,
        )
        assert valid_rounds > 100

    def test_double_sampling_when_apply_meets_rr(self):
        # with point rewards the estimated top stays fixed, so the round-robin
        # firm periodically coincides with the applied firm; the engine then
        # draws the same firm twice
        market = named_example("introstrategic", reward_kind="point")
        agent_est = EstimatorState(2, 2)
        firm_est = OracleEstimator(market.firm_means)
        policy = CentralAllocator(2, 2, agent_est, firm_est)
        outcomes = []
        run_horizon(
            market, agent_est, firm_est, policy,
            StrategicFirmPolicy(2, "certain"), 8, random.Random(0), outcomes.append,
        )
        doubled = [
            o.t for o in outcomes for a in range(2)
            if o.interviews[a][0] == o.interviews[a][1]
        ]
        assert doubled  # happens once per agent per two-round window here
        total = sum(agent_est.counts[0])
        assert total == 2 * len(outcomes)
