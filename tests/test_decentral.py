import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from interview_markets.decentral import (
    CoordinatedPolicy,
    CoordinationFreePolicy,
    ExtendedCoordinationFreePolicy,
    drr_candidate_set,
)
from interview_markets.engine import AgentFeedback, run_horizon
from interview_markets.errors import ParameterError, ProtocolError
from interview_markets.estimation import EstimatorState, OracleEstimator
from interview_markets.firms import StrategicFirmPolicy
from interview_markets.market import (
    Matching,
    blocking_pairs,
    enumerate_stable_matchings,
    ground_truth_prefs,
)
from interview_markets.metrics import RunRecorder
from interview_markets.named_markets import named_example
from interview_markets.runner import market_baselines


class FixedRandom:
    """random()-compatible stub returning scripted values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0) if self.values else 0.999999


def feedback(vprime, v, applications, matches):
    return AgentFeedback(frozenset(vprime), frozenset(v), tuple(applications), tuple(matches))


class TestDrrCandidateSet:
    def test_excludes_in_phase_rejections(self):
        assert drr_candidate_set([12, 3], 10, 13, 0) == (1,)

    def test_fresh_phase_includes_all(self):
        assert drr_candidate_set([0, 0, 0], 5, 5, 0) == (0, 1, 2)

    def test_single_in_phase_rejection(self):
        assert drr_candidate_set([6, 0, 0], 5, 7, 0) == (1, 2)


def coordination_free_policies(n, m, est):
    return (
        CoordinationFreePolicy(n, m, est),
        ExtendedCoordinationFreePolicy(n, m, est, 0.5, random.Random(0)),
    )


class TestAncdrrScan:
    """Both coordination-free policies target the agent's best firm among
    those that never rejected it or were reopened since, and raise a
    ProtocolError for an agent with none."""

    @pytest.mark.parametrize("closed, v, target", [
        ({0}, {0}, 0),  # a reopened firm is open
        ({0}, set(), 1),  # a closed firm is skipped
        (set(), set(), 0),  # round one: every firm is open
    ])
    def test_open_firms(self, closed, v, target):
        for policy in coordination_free_policies(1, 2, OracleEstimator([[0.9, 0.5]])):
            policy.states[0].closed = set(closed)
            policy.observe(4, feedback((), v, [()], [None]))  # firms in v change hands
            assert policy.plan(5)[0].interviews[0] == target

    @settings(max_examples=100, deadline=None)
    @given(hs.data())
    def test_scan_equals_argmax_over_open_firms(self, data):
        n = data.draw(hs.integers(1, 3), label="n")
        m = data.draw(hs.integers(n, 6), label="m")
        est = EstimatorState(n, m)
        records = data.draw(
            hs.lists(
                hs.tuples(
                    hs.integers(0, n - 1),
                    hs.integers(0, m - 1),
                    hs.sampled_from([0.0, 0.5, 1.0]),
                ),
                max_size=30,
            ),
            label="records",
        )
        for owner, peer, value in records:
            est.record(owner, peer, value)
        for policy in coordination_free_policies(n, m, est):
            expected = []
            for i, state in enumerate(policy.states):
                state.closed = data.draw(hs.sets(hs.integers(0, m - 1)))
                cand = tuple(f for f in range(m) if f not in state.closed)
                expected.append(est.argmax(i, cand) if cand else None)
            if None in expected:  # hand-set states can close every firm
                message = f"round 5: agent {expected.index(None)} has no open firm"
                with pytest.raises(ProtocolError, match=message):
                    policy.plan(5)
            else:
                assert [plan.interviews[0] for plan in policy.plan(5)] == expected


class TestCoordinatedPhases:
    def run_drr(self, market, T, seed, firm_mode="uncertain", reward_kind=None):
        if reward_kind is not None:
            market = type(market)(
                market.agent_means, market.firm_means, type(market.reward_model)(reward_kind)
            )
        n, m = market.n, market.m
        agent_est = EstimatorState(n, m)
        firm_est = (
            OracleEstimator(market.firm_means)
            if firm_mode == "certain"
            else EstimatorState(m, n)
        )
        policy = CoordinatedPolicy(n, m, agent_est)
        firm_policy = StrategicFirmPolicy(n, m, firm_mode)
        best, base_opt, base_pess = market_baselines(market)
        recorder = RunRecorder(
            market, base_opt, base_pess, agent_est, best, (), certain_firms=firm_mode == "certain",
            retain_rounds=[T],
        )
        result = run_horizon(
            market, agent_est, firm_est, policy, firm_policy, T, random.Random(seed), recorder
        )
        return policy, recorder, result, agent_est

    def test_point_rewards_single_phase(self):
        market = named_example("introstrategic", reward_kind="point")
        policy, recorder, result, _ = self.run_drr(market, 100, 0)
        assert len(policy.phase_log) == 1
        assert policy.phase_log[0]["committed"] == [0, 1]
        assert result.converged_round is not None
        assert result.final_matching.agent_match == (0, 1)

    def test_every_commit_is_perfect_and_top_n(self, monkeypatch):
        # every agent commits to one of the top n firms of its order at t_gs;
        # each phase takes one snapshot per agent, in agent order
        snapshots = []
        take = EstimatorState.snapshot_row

        def spy(est, owner):
            snapshots.append(take(est, owner))
            return snapshots[-1]

        monkeypatch.setattr(EstimatorState, "snapshot_row", spy)
        market = named_example("coordfgs")
        n = market.n
        for seed in range(8):
            snapshots.clear()
            policy, recorder, result, _ = self.run_drr(market, 4000, seed)
            for k, entry in enumerate(policy.phase_log):
                profile = entry["committed"]
                if profile is None:
                    continue
                assert None not in profile
                assert len(set(profile)) == len(profile)
                orders = snapshots[k * n:(k + 1) * n]
                assert len(orders) == n
                for f, order in zip(profile, orders):
                    assert f in order[:n]

    def test_no_consecutive_abstentions(self):
        market = named_example("coordfgs")
        for seed in range(6):
            _, recorder, _, _ = self.run_drr(market, 4000, seed)
            assert recorder.events["consecutive_abstentions"] == 0

    def test_converged_run_commits_stable_matching(self):
        market = named_example("coordfgs")
        agent_prefs, firm_prefs = ground_truth_prefs(market)
        for seed in range(6):
            policy, _, result, agent_est = self.run_drr(market, 6000, seed)
            last_phase = policy.phase_log[-1]
            if result.converged_round is None or last_phase["committed"] is None:
                continue
            if any(agent_est.pref_list(a) != agent_prefs[a] for a in range(market.n)):
                continue  # lists not fully learned; nothing to check
            committed = Matching(tuple(last_phase["committed"]), market.m)
            assert blocking_pairs(committed, agent_prefs, firm_prefs) == []


class TestCoordinatedTriggers:
    def make_committed_policy(self):
        """A 2x2 policy freshly committed to (f0, f1) with oracle-true estimates."""
        market = named_example("introstrategic", reward_kind="point")
        agent_est = OracleEstimator(market.agent_means)
        policy = CoordinatedPolicy(2, 2, agent_est)
        t = 1
        while t <= 1 + policy.phase_length:  # updating rounds plus the commit round
            plans = policy.plan(t)
            apps = [p.applications for p in plans]
            matches = []
            holds = {}
            for i, app in enumerate(apps):
                if app and app[0] not in holds:
                    holds[app[0]] = i
            for i, app in enumerate(apps):
                matches.append(app[0] if app and holds.get(app[0]) == i else None)
            vprime = {f for f in range(2) if f not in holds}
            policy.observe(t, feedback(vprime, vprime, apps, matches))
            t += 1
        assert policy.rho == 1
        return policy, t

    def test_vacancy_signal_starts_new_phase(self):
        policy, t = self.make_committed_policy()
        plans = policy.plan(t)
        apps = [p.applications for p in plans]
        # a strategic abstention empties firm 0: vacancy count exceeds m - n = 0
        policy.observe(t, feedback({0}, {0}, apps, [None, 1]))
        assert len(policy.phase_log) == 2
        assert policy.phase_log[-1]["t_gs"] == t + 1
        assert policy.phase_log[-1]["triggers"] == "vac"
        assert policy.rho == 0

    def test_strategic_rejection_flag_triggers_abstain(self):
        policy, t = self.make_committed_policy()
        plans = policy.plan(t)
        apps = [p.applications for p in plans]
        # agent 0's own applied firm shows up vacant: non-vac feedback first
        # (m - n = 0 means any vacancy also raises the global signal, so use
        # the flag path by seeding it directly)
        policy.states[0].rej_flag = True
        plans = policy.plan(t + 1)
        assert plans[0].applications == ()  # abstains to signal
        assert plans[1].applications != ()

    def test_inconsistency_triggers_abstain(self):
        policy, t = self.make_committed_policy()
        # flip agent 0's list so its frozen-candidate argmax changes
        policy.agent_est._lists[0] = (1, 0)
        plans = policy.plan(t)
        assert plans[0].applications == ()
        policy.observe(t, feedback({0}, {0}, [p.applications for p in plans], [None, 1]))
        assert policy.phase_log[-1]["triggers"] in ("inc", "inc+vac")


class TestAncdrrCycle:
    def seeded_cycle_policy(self, agent_est):
        policy = CoordinationFreePolicy(2, 2, agent_est)
        policy.states[1].closed.add(1)  # agent 1 rejected by firm 1 pre-horizon
        return policy

    def test_period_two_cycle_with_oracle_estimates(self):
        market = named_example("k3", reward_kind="point")
        agent_est = OracleEstimator(market.agent_means)
        firm_est = OracleEstimator(market.firm_means)
        policy = self.seeded_cycle_policy(agent_est)
        outcomes = []
        run_horizon(
            market, agent_est, firm_est, policy, StrategicFirmPolicy(2, 2, "certain"),
            8, random.Random(0), outcomes.append,
            start_round=2, initial_matching=Matching((1, None), 2),
        )
        apps = [o.applications for o in outcomes]
        matches = [o.matching.agent_match for o in outcomes]
        # both agents chase the same firm, alternating, forever
        assert apps[0] == ((0,), (0,)) and apps[1] == ((1,), (1,))
        for k in range(len(outcomes) - 2):
            assert apps[k + 2] == apps[k]
            assert matches[k + 2] == matches[k]

    def test_candidate_bookkeeping_matches_v_history(self):
        # whenever an agent applies to f, every firm it ranks above f was
        # rejected at-or-after that firm's last recorded hiring change
        market = named_example("ucb3x3")
        agent_est = EstimatorState(3, 3)
        firm_est = EstimatorState(3, 3)

        class SpyPolicy(CoordinationFreePolicy):
            def plan(self, t):
                self.decision_lists = [self.agent_est.pref_list(a) for a in range(self.n)]
                return super().plan(t)

        policy = SpyPolicy(3, 3, agent_est)
        v_history: list[frozenset] = []
        rejected_at = {}
        violations = []

        def check(outcome):
            t = outcome.t
            for a in range(3):
                apps = outcome.applications[a]
                if not apps:
                    continue
                applied = apps[0]
                order = policy.decision_lists[a]
                for f in order[: order.index(applied)]:
                    r = rejected_at.get((a, f), 0)
                    reopened = any(f in v_history[s] for s in range(r, t - 1))
                    if r == 0 or reopened:
                        violations.append((t, a, f))
            v_history.append(outcome.v)
            for a in range(3):
                apps = outcome.applications[a]
                matched = outcome.matching.agent_match[a]
                for f in apps:
                    if matched != f and f not in outcome.vprime:
                        rejected_at[(a, f)] = t

        run_horizon(
            market, agent_est, firm_est, policy, StrategicFirmPolicy(3, 3, "uncertain"),
            1500, random.Random(3), check,
        )
        assert violations == []

    def test_no_open_firm_is_a_protocol_error(self):
        for policy in coordination_free_policies(1, 2, OracleEstimator([[0.9, 0.5]])):
            policy.states[0].closed = {0, 1}
            with pytest.raises(ProtocolError, match="round 5: agent 0 has no open firm"):
                policy.plan(5)


class TestExtended:
    def test_lambda_validation(self):
        est = OracleEstimator([[0.9, 0.5]])
        with pytest.raises(ParameterError):
            ExtendedCoordinationFreePolicy(1, 2, est, 0.0, random.Random(0))
        with pytest.raises(ParameterError):
            ExtendedCoordinationFreePolicy(1, 2, est, 1.0, random.Random(0))

    def test_round_one_single_application(self):
        est = OracleEstimator([[0.9, 0.5, 0.1]])
        policy = ExtendedCoordinationFreePolicy(1, 3, est, 0.5, random.Random(0))
        plans = policy.plan(1)
        assert plans[0].applications == (0,)
        assert len(plans[0].interviews) == 2

    def test_probe_branch_applies_pair_probe_first(self):
        est = OracleEstimator([[0.9, 0.5]])
        policy = ExtendedCoordinationFreePolicy(1, 2, est, 0.5, FixedRandom([0.0]))
        policy.states[0].anchor = 1
        plans = policy.plan(4)
        assert plans[0].applications == (0, 1)
        assert plans[0].interviews == (0, 1, (4 + 0 + 1) % 2)

    def test_stay_branch_applies_anchor_only(self):
        est = OracleEstimator([[0.9, 0.5]])
        policy = ExtendedCoordinationFreePolicy(1, 2, est, 0.5, FixedRandom([0.9]))
        policy.states[0].anchor = 1
        plans = policy.plan(4)
        assert plans[0].applications == (1,)

    def test_anchor_tracks_matches_only(self):
        est = OracleEstimator([[0.9, 0.5]])
        policy = ExtendedCoordinationFreePolicy(1, 2, est, 0.5, FixedRandom([0.0, 0.0]))
        policy.states[0].anchor = 1
        policy.plan(4)
        policy.observe(4, feedback({0}, {0}, [(0, 1)], [1]))
        assert policy.states[0].anchor == 1
        policy.plan(5)
        policy.observe(5, feedback({1}, {0, 1}, [(0, 1)], [0]))
        assert policy.states[0].anchor == 0
        policy.plan(6)
        policy.observe(6, feedback({0, 1}, {0, 1}, [(0,)], [None]))
        assert policy.states[0].anchor == 0  # unmatched keeps the old anchor

    def test_paired_application_keeps_anchor_out_of_feedback(self):
        # probing upward while holding the anchor: a failed probe must not
        # make the anchor look vacant to the other agent
        market = named_example("multappl", reward_kind="point")
        agent_est = OracleEstimator(market.agent_means)
        firm_est = OracleEstimator(market.firm_means)
        policy = ExtendedCoordinationFreePolicy(2, 2, agent_est, 0.5, FixedRandom([0.0, 0.9]))
        policy.states[0].anchor = 1  # agent 0 matched at firm 1, probes firm 0
        policy.states[1].anchor = 0  # agent 1 stays on firm 0
        policy.states[1].closed.add(1)
        outcomes = []
        run_horizon(
            market, agent_est, firm_est, policy, StrategicFirmPolicy(2, 2, "certain"),
            1, random.Random(0), outcomes.append,
            start_round=2, initial_matching=Matching((1, 0), 2), interview_budget=3,
        )
        out = outcomes[0]
        assert out.applications[0] == (0, 1)
        assert out.matching.agent_match == (1, 0)  # probe failed, anchor held
        assert 1 not in out.v and 1 not in out.vprime
        assert out.vprime == frozenset()

    def test_escapes_k3_cycle(self):
        market = named_example("k3", reward_kind="point")
        agent_est = OracleEstimator(market.agent_means)
        firm_est = OracleEstimator(market.firm_means)
        stable = {m.agent_match for m in enumerate_stable_matchings(market).matchings}
        escaped = 0
        for seed in range(30):
            policy = ExtendedCoordinationFreePolicy(2, 2, agent_est, 0.5, random.Random(900 + seed))
            policy.states[1].closed.add(1)
            policy.states[0].anchor = 1
            policy.states[1].anchor = 1
            result = run_horizon(
                market, agent_est, firm_est, policy, StrategicFirmPolicy(2, 2, "certain"),
                3000, random.Random(seed), None,
                start_round=2, initial_matching=Matching((1, None), 2), interview_budget=3,
            )
            if result.converged_round is not None:
                escaped += 1
                assert result.final_matching.agent_match in stable
        assert escaped == 30
