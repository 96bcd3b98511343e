import pytest

from interview_markets.firms import StrategicFirmPolicy


def firm(n_agents, mode="uncertain", r=None, c=0):
    """A one-firm policy with firm 0's clocks set."""
    policy = StrategicFirmPolicy(n_agents, 1, mode)
    if r is not None:
        policy.r[0] = list(r)
    policy.c[0] = c
    return policy


class TestDecide:
    def test_certain_firm_always_hires(self):
        policy = firm(2, "certain", r=[5, 0], c=1)
        assert policy.decide(6, 0, [1], (0, 1)) == 1

    def test_reconsidered_agent_triggers_abstention(self):
        # the firm now ranks agent 0 above its only applicant (agent 1) and
        # rejected agent 0 after its last vacancy
        policy = firm(2, r=[4, 0], c=2)
        assert policy.decide(6, 0, [1], (0, 1)) == 0

    def test_fresh_state_never_abstains(self):
        policy = firm(3)
        assert policy.decide(1, 0, [2], (0, 1, 2)) == 1

    def test_rejection_before_vacancy_does_not_trigger(self):
        policy = firm(2, r=[3, 0], c=4)  # vacancy after the rejection wipes the claim
        assert policy.decide(6, 0, [1], (0, 1)) == 1

    def test_agents_below_top_applicant_ignored(self):
        policy = firm(3, r=[0, 0, 7], c=1)  # rejected agent ranks below the applicant
        assert policy.decide(9, 0, [1], (0, 1, 2)) == 1

    def test_rejection_with_no_vacancy_ever_triggers(self):
        policy = firm(2, r=[2, 0], c=0)
        assert policy.decide(3, 0, [1], (0, 1)) == 0


class TestObserve:
    def test_hire_stamps_passed_over_applicants(self):
        policy = firm(3)
        policy.observe(4, 0, [0, 1], 1)
        assert policy.r[0] == [4, 0, 0]
        assert policy.c[0] == 0

    def test_one_applicant_hire_stamps_nothing(self):
        policy = firm(2, r=[3, 0], c=2)
        policy.observe(7, 0, [1], 1)
        assert (policy.r[0], policy.c[0]) == ([3, 0], 2)

    def test_abstention_stamps_vacancy(self):
        policy = firm(2)
        policy.observe(9, 0, [0], None)
        assert policy.c[0] == 9
        assert policy.r[0] == [0, 0]

    def test_empty_pool_is_a_vacant_round(self):
        policy = firm(2)
        policy.observe(3, 0, [], None)
        assert policy.c[0] == 3

    def test_trigger_quenched_until_new_rejection(self):
        policy = firm(2, r=[5, 0], c=2)
        assert policy.decide(6, 0, [1], (0, 1)) == 0
        policy.observe(6, 0, [1], None)
        # after the abstention the vacancy clock dominates every rejection
        assert policy.decide(7, 0, [1], (0, 1)) == 1
        policy.observe(8, 0, [0, 1], 1)
        assert policy.decide(9, 0, [1], (0, 1)) == 0


class TestPolicy:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            StrategicFirmPolicy(2, 2, "sometimes")

    def test_clocks_are_per_firm(self):
        policy = StrategicFirmPolicy(2, 3, "uncertain")
        policy.observe(4, 1, [0, 1], 0)
        assert policy.r[1] == [0, 4]
        assert policy.r[0] == [0, 0]
        assert policy.c == [0, 0, 0]
