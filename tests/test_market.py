import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interview_markets import market as market_module
from interview_markets.errors import InputError, MarketError, ParameterError, SizeError
from interview_markets.market import (
    Market,
    Matching,
    RewardModel,
    alpha_reducibility,
    blocking_pairs,
    enumerate_stable_matchings,
    gale_shapley,
    generate_alpha_reducible,
    generate_market,
    ground_truth_prefs,
    load_market,
    market_from_dict,
    market_to_dict,
    sample_reward,
    save_market,
)
from interview_markets.named_markets import EXAMPLE_NAMES, named_example


def brute_force_blocking(matching, agent_prefs, firm_prefs):
    """Independent oracle: scan every (agent, firm) pair by rank lookups."""
    n, m = len(agent_prefs), len(firm_prefs)
    firm_match = matching.firm_match
    found = []
    for a in range(n):
        for f in range(m):
            fa = matching.agent_match[a]
            if fa == f:
                continue
            a_rank_f = agent_prefs[a].index(f)
            a_rank_cur = agent_prefs[a].index(fa) if fa is not None else m
            af = firm_match[f]
            f_rank_a = firm_prefs[f].index(a)
            f_rank_cur = firm_prefs[f].index(af) if af is not None else n
            if a_rank_f < a_rank_cur and f_rank_a < f_rank_cur:
                found.append((a, f))
    return found


def small_market(seed, n, m, gap=0.05):
    return generate_market(n, m, gap, random.Random(seed))


class TestGroundTruthPrefs:
    def test_sorts_by_decreasing_mean(self):
        market = Market(((0.2, 0.9, 0.5),), ((0.5,), (0.4,), (0.3,)))
        agent_prefs, _ = ground_truth_prefs(market)
        assert agent_prefs[0] == (1, 2, 0)

    def test_two_firms(self):
        market = Market(((0.9, 0.5),), ((0.5,), (0.4,)))
        agent_prefs, _ = ground_truth_prefs(market)
        assert agent_prefs[0] == (0, 1)

    def test_coordfgs_firm_rows_identical(self):
        _, firm_prefs = ground_truth_prefs(named_example("coordfgs"))
        assert firm_prefs == [(0, 1, 2)] * 3

    def test_duplicate_means_rejected(self):
        with pytest.raises(MarketError):
            Market(((0.5, 0.5),), ((0.1,), (0.2,)))


class TestGaleShapley:
    def test_ucb3x3_agent_optimal(self):
        agent_prefs, firm_prefs = ground_truth_prefs(named_example("ucb3x3"))
        matching = gale_shapley(agent_prefs, firm_prefs, "agents")
        assert matching.agent_match == (0, 1, 2)

    def test_ucb3x3_misreport(self):
        agent_prefs, firm_prefs = ground_truth_prefs(named_example("ucb3x3"))
        agent_prefs[2] = (0, 2, 1)  # third agent swaps its top two choices
        matching = gale_shapley(agent_prefs, firm_prefs, "agents")
        assert matching.agent_match == (1, 0, 2)

    def test_single_agent_gets_top_firm(self):
        matching = gale_shapley([(2, 0, 1)], [(0,), (0,), (0,)], "agents")
        assert matching.agent_match == (2,)

    def test_malformed_permutation_rejected(self):
        with pytest.raises(InputError):
            gale_shapley([(0, 0)], [(0,), (0,)], "agents")
        with pytest.raises(InputError):
            gale_shapley([(0, 1)], [(0,), (1,)], "agents")

    def test_unknown_proposer_rejected(self):
        with pytest.raises(InputError):
            gale_shapley([(0,)], [(0,)], "both")


class TestBlockingPairs:
    def test_gale_shapley_output_is_stable(self):
        for seed in range(30):
            market = small_market(seed, 3, 4)
            agent_prefs, firm_prefs = ground_truth_prefs(market)
            matching = gale_shapley(agent_prefs, firm_prefs, "agents")
            assert blocking_pairs(matching, agent_prefs, firm_prefs) == []

    def test_drrs4_rotated_matching_blocks(self):
        agent_prefs, firm_prefs = ground_truth_prefs(named_example("drrs4"))
        matching = Matching((1, 2, 0), 3)
        expected = brute_force_blocking(matching, agent_prefs, firm_prefs)
        got = blocking_pairs(matching, agent_prefs, firm_prefs)
        assert sorted(got) == sorted(expected)
        assert got  # the rotation is unstable

    def test_empty_matching_one_pair(self):
        got = blocking_pairs(Matching((None,), 1), [(0,)], [(0,)])
        assert got == [(0, 0)]

    def test_matches_brute_force_on_random_markets(self):
        for seed in range(40):
            market = small_market(seed, 3, 3)
            agent_prefs, firm_prefs = ground_truth_prefs(market)
            perm = random.Random(seed).sample(range(3), 3)
            matching = Matching(tuple(perm), 3)
            assert sorted(blocking_pairs(matching, agent_prefs, firm_prefs)) == sorted(
                brute_force_blocking(matching, agent_prefs, firm_prefs)
            )


class TestEnumerateStableMatchings:
    def test_drrs4_full_stable_set(self):
        # brute force finds three stable matchings; the two lattice extremes
        # are the diagonal and the rotation (a1,f3),(a2,f1),(a3,f2)
        stable_set = enumerate_stable_matchings(named_example("drrs4"))
        matches = sorted(m.agent_match for m in stable_set.matchings)
        assert matches == [(0, 1, 2), (0, 2, 1), (2, 0, 1)]
        assert stable_set.best_partner == (0, 1, 2)
        assert stable_set.worst_partner == (2, 0, 1)

    def test_k3_has_two(self):
        stable_set = enumerate_stable_matchings(named_example("k3"))
        assert len(stable_set.matchings) == 2

    def test_introstrategic_unique(self):
        stable_set = enumerate_stable_matchings(named_example("introstrategic"))
        assert [m.agent_match for m in stable_set.matchings] == [(0, 1)]

    def test_size_guard(self):
        market = generate_market(9, 9, 0.01, random.Random(0))
        with pytest.raises(SizeError):
            enumerate_stable_matchings(market)

    def test_contains_both_gale_shapley_outputs(self):
        for seed in range(25):
            market = small_market(seed, 3, 4)
            agent_prefs, firm_prefs = ground_truth_prefs(market)
            stable_set = enumerate_stable_matchings(market)
            members = {m.agent_match for m in stable_set.matchings}
            assert gale_shapley(agent_prefs, firm_prefs, "agents").agent_match in members
            assert gale_shapley(agent_prefs, firm_prefs, "firms").agent_match in members


class TestAlphaReducibility:
    def test_coordfgs_sequence(self):
        seq = alpha_reducibility(named_example("coordfgs"))
        assert seq is not None
        assert seq.pairs == ((0, 0), (1, 1), (2, 2))

    def test_ucb3x3_absent(self):
        assert alpha_reducibility(named_example("ucb3x3")) is None

    def test_single_agent(self):
        top = Market(((0.9, 0.2),), ((0.5,), (0.4,)))
        seq = alpha_reducibility(top)
        assert seq is not None and seq.pairs == ((0, 0),)

    def test_present_implies_unique_stable(self):
        for seed in range(60):
            market = small_market(seed, 3, 3)
            seq = alpha_reducibility(market)
            if seq is None:
                continue
            stable_set = enumerate_stable_matchings(market)
            assert len(stable_set.matchings) == 1
            assert stable_set.matchings[0].agent_match == seq.as_matching(3).agent_match


class TestGenerators:
    def test_determinism(self):
        a = generate_market(3, 3, 0.2, random.Random(11), "bernoulli")
        b = generate_market(3, 3, 0.2, random.Random(11), "bernoulli")
        assert a == b

    def test_infeasible_gap(self):
        with pytest.raises(ParameterError):
            generate_market(3, 3, 0.5, random.Random(0))

    def test_one_by_one(self):
        market = generate_market(1, 1, 0.9, random.Random(0))
        assert market.n == market.m == 1

    def test_row_separation(self):
        market = generate_market(4, 5, 0.15, random.Random(3))
        for row in market.agent_means + market.firm_means:
            values = sorted(row)
            for lo, hi in zip(values, values[1:]):
                assert hi - lo >= 0.15 - 1e-12

    def test_alpha_reducible_construction(self):
        for seed in range(40):
            market = generate_alpha_reducible(3, 4, 0.1, random.Random(seed))
            seq = alpha_reducibility(market)
            assert seq is not None
            assert seq.pairs == ((0, 0), (1, 1), (2, 2))

    def test_alpha_reducible_unique_stable(self):
        for seed in range(20):
            market = generate_alpha_reducible(3, 3, 0.2, random.Random(100 + seed))
            assert len(enumerate_stable_matchings(market).matchings) == 1

    def test_planted_two_by_two(self):
        market = generate_alpha_reducible(2, 2, 0.2, random.Random(5))
        seq = alpha_reducibility(market)
        assert seq.pairs == ((0, 0), (1, 1))


    def test_alpha_reducible_failure_is_an_error(self, monkeypatch):
        # an explicit error, not an assert that python -O would strip
        monkeypatch.setattr(market_module, "alpha_reducibility", lambda market: None)
        with pytest.raises(MarketError, match="not alpha-reducible"):
            generate_alpha_reducible(2, 2, 0.2, random.Random(5))


class TestSampleReward:
    def test_bernoulli_endpoints(self):
        market = Market(((1.0, 0.0),), ((0.5,), (0.4,)))
        rng = random.Random(0)
        assert sample_reward(market, "agent", (0, 0), rng) == 1.0
        assert sample_reward(market, "agent", (0, 1), rng) == 0.0

    def test_point_mass(self):
        market = Market(((0.7, 0.2),), ((0.5,), (0.4,)), RewardModel("point"))
        assert sample_reward(market, "agent", (0, 0), random.Random(0)) == 0.7

    def test_bernoulli_long_run_mean(self):
        market = Market(((0.6, 0.1),), ((0.5,), (0.4,)))
        rng = random.Random(123)
        draws = sum(sample_reward(market, "agent", (0, 0), rng) for _ in range(100_000))
        assert abs(draws / 100_000 - 0.6) < 0.01  # ~6 sigma of the CLT bound

    def test_gaussian_long_run_mean_and_support(self):
        market = Market(((0.8, 0.1),), ((0.5,), (0.4,)), RewardModel("gaussian", 0.1))
        rng = random.Random(7)
        values = [sample_reward(market, "agent", (0, 0), rng) for _ in range(50_000)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert abs(sum(values) / len(values) - 0.8) < 0.005

    def test_bad_pair(self):
        market = Market(((0.7, 0.2),), ((0.5,), (0.4,)))
        with pytest.raises(InputError):
            sample_reward(market, "agent", (0, 5), random.Random(0))
        with pytest.raises(InputError):
            sample_reward(market, "sideways", (0, 0), random.Random(0))


@st.composite
def random_markets(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 5))
    seed = draw(st.integers(0, 10**9))
    return generate_market(n, m, 0.02, random.Random(seed))


class TestLatticeProperties:
    @settings(max_examples=120, deadline=None)
    @given(random_markets())
    def test_gale_shapley_extremes_match_enumeration(self, market):
        agent_prefs, firm_prefs = ground_truth_prefs(market)
        stable_set = enumerate_stable_matchings(market)
        best = gale_shapley(agent_prefs, firm_prefs, "agents")
        worst = gale_shapley(agent_prefs, firm_prefs, "firms")
        assert blocking_pairs(best, agent_prefs, firm_prefs) == []
        assert best.agent_match == tuple(
            stable_set.best_partner[a] for a in range(market.n)
        )
        assert worst.agent_match == tuple(
            stable_set.worst_partner[a] for a in range(market.n)
        )

    @settings(max_examples=80, deadline=None)
    @given(random_markets())
    def test_best_stable_partner_within_top_n(self, market):
        agent_prefs, _ = ground_truth_prefs(market)
        stable_set = enumerate_stable_matchings(market)
        for a in range(market.n):
            assert stable_set.best_partner[a] in agent_prefs[a][: market.n]

    @settings(max_examples=80, deadline=None)
    @given(random_markets())
    def test_worst_partner_outside_top_n_implies_multiple(self, market):
        agent_prefs, _ = ground_truth_prefs(market)
        stable_set = enumerate_stable_matchings(market)
        for a in range(market.n):
            if stable_set.worst_partner[a] not in agent_prefs[a][: market.n]:
                assert len(stable_set.matchings) > 1


class TestMarketFile:
    def test_round_trip(self, tmp_path):
        market = generate_market(2, 3, 0.1, random.Random(9), "gaussian", 0.2)
        path = tmp_path / "market.json"
        save_market(market, path)
        assert load_market(path) == market

    def test_row_major_flat_format(self):
        market = named_example("k3")
        d = market_to_dict(market)
        assert d["n"] == 2 and d["m"] == 2
        assert d["agent_means"] == [0.9, 0.1, 0.1, 0.9]
        assert market_from_dict(d) == market

    def test_bad_length_rejected(self):
        with pytest.raises(MarketError):
            market_from_dict({"n": 2, "m": 2, "agent_means": [0.1], "firm_means": [0.1]})

    @pytest.mark.parametrize("d, key", [
        ({"n": 1, "m": 1, "firm_means": [0.5]}, "agent_means"),
        ({"n": 1, "agent_means": [0.5], "firm_means": [0.5]}, "m"),
        ({"n": "one", "m": 1, "agent_means": [0.5], "firm_means": [0.5]}, "n"),
        ({"n": 1, "m": 1, "agent_means": [None], "firm_means": [0.5]}, "agent_means"),
        ({"n": 1, "m": 1, "agent_means": [0.5], "firm_means": [[None]]}, "firm_means"),
        ({"n": 1, "m": 1, "agent_means": [0.5], "firm_means": 0.5}, "firm_means"),
        ({"n": 1, "m": 1, "agent_means": [0.5], "firm_means": [0.5], "sigma": "wide"},
         "sigma"),
        ({"n": 2, "m": 2, "agent_means": [0.1], "firm_means": [0.1]}, "agent_means"),
    ])
    def test_malformed_entry_names_the_key(self, d, key):
        with pytest.raises(MarketError, match=f"market key '{key}'"):
            market_from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("n", True), ("n", "1"), ("n", 1.0), ("m", False), ("m", "1"),
        ("agent_means", [True]), ("agent_means", ["0.5"]), ("firm_means", [[False]]),
        ("sigma", True), ("sigma", "0.1"),
    ])
    def test_booleans_and_numeric_strings_name_the_key(self, key, value):
        d = {"n": 1, "m": 1, "agent_means": [0.5], "firm_means": [0.5], key: value}
        with pytest.raises(MarketError, match=f"market key '{key}'"):
            market_from_dict(d)

    def test_integer_means_and_sigma_load_as_floats(self):
        d = {"n": 1, "m": 2, "agent_means": [1, 0], "firm_means": [[0.5], [0]], "sigma": 1,
             "reward_kind": "gaussian"}
        market = market_from_dict(d)
        assert market.agent_means == ((1.0, 0.0),) and market.firm_means == ((0.5,), (0.0,))
        assert type(market.reward_model.sigma) is float

    @pytest.mark.parametrize("text", ["{not json", "[]", "\udcff"])
    def test_load_rejects_what_is_not_a_market_object(self, tmp_path, text):
        path = tmp_path / "market.json"
        path.write_text(text, errors="surrogateescape")
        with pytest.raises(MarketError):
            load_market(path)


def test_multappl_is_the_k3_market():
    assert "multappl" in EXAMPLE_NAMES
    assert named_example("multappl") == named_example("k3")
