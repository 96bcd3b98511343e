import random

import pytest

from interview_markets.central import CentralAllocator
from interview_markets.engine import (
    AgentPlan,
    compute_feedback,
    run_horizon,
)
from interview_markets.errors import ParameterError, ProtocolError
from interview_markets.estimation import EstimatorState, OracleEstimator
from interview_markets.firms import StrategicFirmPolicy
from interview_markets.market import Market, Matching, RewardModel
from interview_markets.named_markets import named_example


class FixedPlanPolicy:
    """Emits a scripted plan every round; records observed feedback."""

    def __init__(self, plans):
        self.plans = plans
        self.feedbacks = []

    def plan(self, t):
        return [AgentPlan(*p) for p in self.plans]

    def observe(self, t, feedback):
        self.feedbacks.append(feedback)


class AlwaysRejectFirms:
    def decide(self, firm, pool, order):
        return 0

    def observe(self, firm, pool, hired):
        pass


def two_by_three():
    return Market(
        ((0.9, 0.5, 0.1), (0.2, 0.8, 0.4)),
        ((0.6, 0.3), (0.2, 0.7), (0.5, 0.1)),
        RewardModel("point"),
    )


def fresh(market, firm_oracle=False):
    agent_est = EstimatorState(market.n, market.m)
    firm_est = (
        OracleEstimator(market.firm_means)
        if firm_oracle
        else EstimatorState(market.m, market.n)
    )
    return agent_est, firm_est


class TestInterviewStage:
    def test_both_sides_record_one_sample_per_listed_firm(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market)
        policy = FixedPlanPolicy([((0, 1), (0,)), ((1, 2), (1,))])
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0))
        assert agent_est.counts == [[1, 1, 0], [0, 1, 1]]
        assert firm_est.counts == [[1, 0], [1, 1], [0, 1]]

    def test_oracle_firms_unchanged(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market, firm_oracle=True)
        policy = FixedPlanPolicy([((0, 1), (0,)), ((1, 2), (1,))])
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0))
        assert firm_est.pref_list(0) == (0, 1)

    def test_shared_firm_gets_two_samples(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market)
        policy = FixedPlanPolicy([((0, 1), (0,)), ((0, 2), (0,))])
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0))
        assert firm_est.counts[0] == [1, 1]

    def test_duplicate_listing_draws_twice(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market)
        policy = FixedPlanPolicy([((0, 0), (0,)), ((1, 2), (1,))])
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0))
        assert agent_est.counts[0][0] == 2


class TestApplicationStage:
    def test_single_applicant_hired(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market, firm_oracle=True)
        policy = FixedPlanPolicy([((0, 1), (0,)), ((1, 2), (1,))])
        outcomes = []
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0), outcomes.append)
        assert outcomes[0].matching.agent_match == (0, 1)

    def test_firm_prefers_by_estimated_list(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market, firm_oracle=True)
        # both apply to firm 0, whose true list prefers agent 0
        policy = FixedPlanPolicy([((0, 1), (0,)), ((0, 2), (0,))])
        outcomes = []
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0), outcomes.append)
        assert outcomes[0].matching.agent_match == (0, None)

    def test_firm_hires_on_round_start_estimates(self):
        # firm 0 starts the round preferring agent 0 (0.6 over 0.5); this
        # round's point-mass draws (0.1 and 0.9) flip its estimated order,
        # but the hire must use the order as of the round start
        market = Market(
            ((0.9, 0.5), (0.8, 0.3)),
            ((0.1, 0.9), (0.4, 0.6)),
            RewardModel("point"),
        )
        agent_est, firm_est = fresh(market)
        firm_est.record(0, 0, 0.6).record(0, 1, 0.5)
        policy = FixedPlanPolicy([((0, 1), (0,)), ((0, 1), (0,))])
        outcomes = []
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(2, "uncertain"), 1, random.Random(0), outcomes.append)
        assert firm_est.pref_list(0) == (1, 0)  # the draws did flip it
        assert outcomes[0].gamma[0] == 1
        assert outcomes[0].matching.agent_match == (0, None)

    def test_only_firms_with_applicants_are_ranked(self):
        class CountingEstimator(EstimatorState):
            def __init__(self, rows, cols):
                super().__init__(rows, cols)
                self.ranked = []

            def pref_list(self, owner):
                self.ranked.append(owner)
                return super().pref_list(owner)

        market = two_by_three()
        agent_est = EstimatorState(market.n, market.m)
        firm_est = CountingEstimator(market.m, market.n)
        # firm 2 is interviewed but never applied to; firm 0 gets both agents
        policy = FixedPlanPolicy([((0, 2), (0,)), ((0, 2), (0,))])
        firms = StrategicFirmPolicy(3, "uncertain")
        outcomes = []
        run_horizon(market, agent_est, firm_est, policy, firms, 3, random.Random(0), outcomes.append)
        assert firm_est.ranked == [0, 0, 0]
        assert [o.gamma for o in outcomes] == [(1, 1, 1)] * 3
        assert outcomes[-1].matching.agent_match == (0, None)

    def test_rejecting_firm_leaves_everyone_out(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market, firm_oracle=True)
        policy = FixedPlanPolicy([((0, 1), (0,)), ((0, 2), (0,))])
        outcomes = []
        run_horizon(market, agent_est, firm_est, policy, AlwaysRejectFirms(), 1, random.Random(0), outcomes.append)
        out = outcomes[0]
        assert out.matching.agent_match == (None, None)
        assert out.gamma[0] == 0
        assert out.vprime == frozenset({0, 1, 2})


class TestRewards:
    def test_unmatched_agent_gets_zero(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market, firm_oracle=True)
        policy = FixedPlanPolicy([((0, 1), (0,)), ((0, 2), (0,))])
        outcomes = []
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0), outcomes.append)
        assert outcomes[0].rewards[1] == 0.0

    def test_point_mass_reward(self):
        market = two_by_three()  # point-mass model
        agent_est, firm_est = fresh(market, firm_oracle=True)
        policy = FixedPlanPolicy([((0, 1), (0,)), ((1, 2), (1,))])
        outcomes = []
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0), outcomes.append)
        assert outcomes[0].rewards == (0.9, 0.8)

    def test_bernoulli_certain_one(self):
        market = Market(((1.0, 0.2),), ((0.5,), (0.4,)))
        agent_est, firm_est = fresh(market, firm_oracle=True)
        policy = FixedPlanPolicy([((0, 1), (0,))])
        outcomes = []
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(2, "certain"), 5, random.Random(0), outcomes.append)
        assert all(o.rewards[0] == 1.0 for o in outcomes)


class TestFeedback:
    def test_vacant_only(self):
        vprime, v = compute_feedback([0, 1, None], [0, 1, None])
        assert vprime == frozenset({2}) and v == frozenset({2})

    def test_hire_change_in_v_not_vprime(self):
        vprime, v = compute_feedback([1, None], [0, None])
        assert 0 not in vprime and 0 in v
        assert vprime == frozenset({1})

    def test_abstention_is_vacant(self):
        vprime, v = compute_feedback([None, 1], [0, 1])
        assert 0 in vprime and 0 in v

    def test_round_one_uses_empty_predecessor(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market, firm_oracle=True)
        policy = FixedPlanPolicy([((0, 1), (0,)), ((1, 2), (1,))])
        outcomes = []
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0), outcomes.append)
        # both freshly filled firms changed hands relative to the empty matching
        assert outcomes[0].v == frozenset({0, 1, 2})
        assert outcomes[0].vprime == frozenset({2})

    def test_initial_matching_seeds_comparison(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market, firm_oracle=True)
        policy = FixedPlanPolicy([((0, 1), (0,)), ((1, 2), (1,))])
        outcomes = []
        run_horizon(
            market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"),
            1, random.Random(0), outcomes.append,
            initial_matching=Matching((0, 1), 3),
        )
        assert outcomes[0].v == frozenset({2})  # nothing changed hands


class TestProtocol:
    def test_zero_horizon_rejected(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market)
        with pytest.raises(ParameterError):
            run_horizon(market, agent_est, firm_est, FixedPlanPolicy([]), StrategicFirmPolicy(3, "certain"), 0, random.Random(0))

    def test_budget_violation_names_round(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market)
        policy = FixedPlanPolicy([((0, 1, 2), (0,)), ((1, 2), (1,))])
        with pytest.raises(ProtocolError, match="round 1"):
            run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0))

    def test_application_outside_interviews_rejected(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market)
        policy = FixedPlanPolicy([((0, 1), (2,)), ((1, 2), (1,))])
        with pytest.raises(ProtocolError):
            run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0))

    def test_budget_three_allows_triples(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market)
        policy = FixedPlanPolicy([((0, 1, 2), (0,)), ((1, 2), (1,))])
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0), interview_budget=3)

    def test_cia_on_introstrategic_executes(self):
        market = named_example("introstrategic")
        agent_est, firm_est = fresh(market, firm_oracle=True)
        policy = CentralAllocator(2, 2, agent_est, firm_est)
        result = run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(2, "certain"), 1, random.Random(0))
        assert result.rounds == 1

    def test_same_seed_identical_streams(self):
        market = named_example("coordfgs")

        def run(seed):
            agent_est, firm_est = fresh(market)
            policy = CentralAllocator(3, 3, agent_est, firm_est)
            outcomes = []
            run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "uncertain"), 200, random.Random(seed), outcomes.append)
            return [
                (o.t, o.interviews, o.applications, o.gamma, o.matching.agent_match, o.rewards, o.vprime, o.v)
                for o in outcomes
            ]

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestRewardFactorization:
    def test_reward_implies_matched_and_hiring_flag(self):
        # across a full strategic run: positive reward requires a match, a
        # match requires the applied firm's hiring flag, unmatched means zero
        market = named_example("coordfgs")
        agent_est = EstimatorState(3, 3)
        firm_est = EstimatorState(3, 3)
        from interview_markets.decentral import CoordinationFreePolicy

        policy = CoordinationFreePolicy(3, 3, agent_est)
        checked = 0

        def check(outcome):
            nonlocal checked
            for a in range(3):
                matched = outcome.matching.agent_match[a]
                reward = outcome.rewards[a]
                if matched is None:
                    assert reward == 0.0
                else:
                    assert outcome.applications[a][0] == matched or matched in outcome.applications[a]
                    assert outcome.gamma[matched] == 1
                    checked += 1

        run_horizon(
            market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "uncertain"),
            800, random.Random(2), check,
        )
        assert checked > 0


class TestAnonymity:
    def test_feedback_carries_no_firm_side_identities(self):
        market = two_by_three()
        agent_est, firm_est = fresh(market, firm_oracle=True)
        policy = FixedPlanPolicy([((0, 1), (0,)), ((0, 2), (0,))])
        run_horizon(market, agent_est, firm_est, policy, StrategicFirmPolicy(3, "certain"), 1, random.Random(0))
        feedback = policy.feedbacks[0]
        fields = set(feedback.__class__.__slots__)
        assert fields == {"vprime", "v", "own_applications", "own_match"}
        # the broadcast sets are bare firm indices, no hire identities attached
        assert all(isinstance(f, int) for f in feedback.vprime | feedback.v)
