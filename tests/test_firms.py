import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interview_markets.estimation import first_in
from interview_markets.firms import StrategicFirmPolicy


def firm(mode="uncertain", passed=()):
    """A one-firm policy with firm 0's passed set set."""
    policy = StrategicFirmPolicy(1, mode)
    policy.passed[0] = set(passed)
    return policy


class TestDecide:
    def test_certain_firm_always_hires(self):
        policy = firm("certain")
        policy.observe(0, [0, 1], 1)  # passes agent 0 over, but keeps no set
        assert policy.decide(0, 1, (0, 1)) == 1

    def test_reconsidered_agent_triggers_abstention(self):
        # the firm now ranks agent 0 above its only applicant (agent 1) and
        # passed agent 0 over since its last vacancy
        policy = firm(passed={0})
        assert policy.decide(0, 1, (0, 1)) == 0

    def test_fresh_state_never_abstains(self):
        policy = firm()
        assert policy.decide(0, 2, (0, 1, 2)) == 1

    def test_vacancy_voids_the_claim(self):
        policy = firm()
        policy.observe(0, [0, 1], 1)  # passes agent 0 over
        policy.observe(0, [1], None)  # then is vacant
        assert policy.decide(0, 1, (0, 1)) == 1

    def test_agents_below_top_applicant_ignored(self):
        policy = firm(passed={2})  # the passed-over agent ranks below the applicant
        assert policy.decide(0, 1, (0, 1, 2)) == 1

    def test_rejection_with_no_vacancy_ever_triggers(self):
        policy = firm()
        policy.observe(0, [0, 1], 1)
        assert policy.decide(0, 1, (0, 1)) == 0


class TestObserve:
    def test_hire_adds_passed_over_applicants(self):
        policy = firm()
        policy.observe(0, [0, 1], 1)
        assert policy.passed[0] == {0}

    def test_one_applicant_hire_records_nothing(self):
        policy = firm(passed={0})
        policy.observe(0, [1], 1)
        assert policy.passed[0] == {0}

    def test_abstention_clears_the_set(self):
        policy = firm(passed={0, 1})
        policy.observe(0, [0], None)
        assert policy.passed[0] == set()

    def test_empty_pool_is_a_vacant_round(self):
        policy = firm(passed={0})
        policy.observe(0, [], None)
        assert policy.passed[0] == set()

    def test_trigger_quenched_until_new_rejection(self):
        policy = firm(passed={0})
        assert policy.decide(0, 1, (0, 1)) == 0
        policy.observe(0, [1], None)
        # after the abstention the firm passed no one over since its vacancy
        assert policy.decide(0, 1, (0, 1)) == 1
        policy.observe(0, [0, 1], 1)
        assert policy.decide(0, 1, (0, 1)) == 0


class TestPolicy:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            StrategicFirmPolicy(2, "sometimes")

    def test_state_is_per_firm(self):
        policy = StrategicFirmPolicy(3, "uncertain")
        policy.observe(1, [0, 1], 0)
        assert policy.passed == [set(), {1}, set()]


def clock_claims(history, n):
    """The agents the firm-clock rule says a firm passed over: with r[a] the
    last round it rejected a while hiring someone else and c its last vacant
    round (0 for never), those with r[a] >= 1 and r[a] >= c."""
    r, c = [0] * n, 0
    for t, (pool, hired) in enumerate(history, 1):
        if hired is None:
            c = t
        else:
            for a in pool:
                if a != hired:
                    r[a] = t
    return {a for a in range(n) if r[a] >= 1 and r[a] >= c}


# The passed sets restate the clock rule, recomputed from the (pool, hire)
# history alone, and so does every decide on a nonempty pool: abstain iff the
# first agent of the order that applied or is claimed did not apply.
@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), rounds=st.integers(1, 6))
def test_passed_sets_follow_the_clock_rule(data, n, rounds):
    policy = StrategicFirmPolicy(1, "uncertain")
    history = []
    for t in range(1, rounds + 1):
        claims = clock_claims(history, n)
        pool = data.draw(st.lists(st.integers(0, n - 1), unique=True), label=f"pool {t}")
        order = data.draw(st.permutations(range(n)), label=f"order {t}")
        if pool:
            head = next(a for a in order if a in pool or a in claims)
            assert policy.decide(0, first_in(order, pool), order) == int(head in pool)
        hired = data.draw(st.sampled_from([None, *pool]), label=f"hire {t}")
        policy.observe(0, pool, hired)
        history.append((pool, hired))
        assert policy.passed[0] == clock_claims(history, n)


# A certain firm keeps no passed-over state, whatever it observes, and so
# never abstains.
@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), rounds=st.integers(1, 6))
def test_certain_firms_keep_no_passed_set(data, n, rounds):
    policy = StrategicFirmPolicy(1, "certain")
    for t in range(1, rounds + 1):
        pool = data.draw(st.lists(st.integers(0, n - 1), unique=True), label=f"pool {t}")
        policy.observe(0, pool, data.draw(st.sampled_from([None, *pool]), label=f"hire {t}"))
        assert policy.passed[0] == set()
        order = data.draw(st.permutations(range(n)), label=f"order {t}")
        assert policy.decide(0, order[0], order) == 1


def walk_decide(passed, pool, order):
    """The rule as a walk down the firm's order: abstain iff a passed-over
    agent comes before the first applicant."""
    for a in order:
        if a in pool:
            return 1
        if a in passed:
            return 0
    return 1


# decide reads the passed set above the best applicant, as the walk does; a
# pool and a passed set may share agents.
@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_decide_equals_the_walk(data, n):
    order = tuple(data.draw(st.permutations(range(n)), label="order"))
    pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="pool")
    passed = data.draw(st.sets(st.integers(0, n - 1)), label="passed")
    policy = firm(passed=passed)
    assert policy.decide(0, first_in(order, pool), order) == walk_decide(passed, pool, order)
