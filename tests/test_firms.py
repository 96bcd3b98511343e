import pytest

from interview_markets.firms import (
    FirmState,
    StrategicFirmPolicy,
    strategic_rejection_decision,
    update_firm_rej_vars,
)


class TestStrategicRejectionDecision:
    def test_certain_firm_always_hires(self):
        state = FirmState(2, mode="certain")
        state.r = [5, 0]
        state.c = 1
        assert strategic_rejection_decision(state, [1], (0, 1), t=6) == 1

    def test_reconsidered_agent_triggers_abstention(self):
        # the firm now ranks agent 0 above its only applicant (agent 1) and
        # rejected agent 0 after its last vacancy
        state = FirmState(2, mode="uncertain")
        state.r = [4, 0]
        state.c = 2
        assert strategic_rejection_decision(state, [1], (0, 1), t=6) == 0

    def test_fresh_state_never_abstains(self):
        state = FirmState(3, mode="uncertain")
        assert strategic_rejection_decision(state, [2], (0, 1, 2), t=1) == 1

    def test_rejection_before_vacancy_does_not_trigger(self):
        state = FirmState(2, mode="uncertain")
        state.r = [3, 0]
        state.c = 4  # vacancy after the rejection wipes the claim
        assert strategic_rejection_decision(state, [1], (0, 1), t=6) == 1

    def test_agents_below_top_applicant_ignored(self):
        state = FirmState(3, mode="uncertain")
        state.r = [0, 0, 7]  # rejected agent ranks below the applicant
        state.c = 1
        assert strategic_rejection_decision(state, [1], (0, 1, 2), t=9) == 1

    def test_rejection_with_no_vacancy_ever_triggers(self):
        state = FirmState(2, mode="uncertain")
        state.r = [2, 0]
        state.c = 0
        assert strategic_rejection_decision(state, [1], (0, 1), t=3) == 0


class TestUpdateFirmRejVars:
    def test_hire_stamps_passed_over_applicants(self):
        state = FirmState(3)
        update_firm_rej_vars(state, t=4, applicants=[0, 1], hired=1)
        assert state.r == [4, 0, 0]
        assert state.c == 0

    def test_one_applicant_hire_stamps_nothing(self):
        state = FirmState(2)
        state.r, state.c = [3, 0], 2
        update_firm_rej_vars(state, t=7, applicants=[1], hired=1)
        assert (state.r, state.c) == ([3, 0], 2)

    def test_abstention_stamps_vacancy(self):
        state = FirmState(2)
        update_firm_rej_vars(state, t=9, applicants=[0], hired=None)
        assert state.c == 9
        assert state.r == [0, 0]

    def test_empty_pool_is_a_vacant_round(self):
        state = FirmState(2)
        update_firm_rej_vars(state, t=3, applicants=[], hired=None)
        assert state.c == 3

    def test_trigger_quenched_until_new_rejection(self):
        state = FirmState(2, mode="uncertain")
        state.r = [5, 0]
        state.c = 2
        assert strategic_rejection_decision(state, [1], (0, 1), t=6) == 0
        update_firm_rej_vars(state, t=6, applicants=[1], hired=None)
        # after the abstention the vacancy clock dominates every rejection
        assert strategic_rejection_decision(state, [1], (0, 1), t=7) == 1
        update_firm_rej_vars(state, t=8, applicants=[0, 1], hired=1)
        assert strategic_rejection_decision(state, [1], (0, 1), t=9) == 0


class TestPolicyWrapper:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            StrategicFirmPolicy(2, 2, "sometimes")

    def test_states_are_per_firm(self):
        policy = StrategicFirmPolicy(2, 3, "uncertain")
        policy.observe(4, 1, [0, 1], 0)
        assert policy.states[1].r == [0, 4]
        assert policy.states[0].r == [0, 0]
