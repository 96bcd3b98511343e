import math
import random

import numpy as np
import pytest

from interview_markets import hinted
from interview_markets.errors import ParameterError
from interview_markets.hinted import (
    ArmState,
    HintedBandit,
    bernoulli_max_expectation,
    expected_max,
    run_hinted,
    StepRecord,
)
from interview_markets.market import RewardModel


class FixedRandom:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def hinted_regret(trajectory, means, model, target_rank=1):
    """Reference regret series: the per-step sum, against the target rank's
    true mean, of max(0, u_(rank) - E[max of the two probed arms])."""
    target = sorted(means, reverse=True)[target_rank - 1]
    out, acc = [], 0.0
    for step in trajectory:
        lo, hi = step.probes
        acc += max(0.0, target - hinted.expected_max(means[lo], means[hi], model))
        out.append(acc)
    return out


def arm_with(samples):
    arm = ArmState()
    for x in samples:
        arm.record(x)
    return arm


class TestUcbPrime:
    """The UCB' index of ``_ranked``: mean plus epsilon times population variance."""

    def test_variance_bonus(self):
        # population variance of {0, 1} is 0.25: index 0.525 against 0.52
        arms = [arm_with([0.0, 1.0]), arm_with([0.52, 0.52])]
        assert hinted._ranked(arms, 0.1) == [0, 1]
        assert hinted._ranked(arms, None) == [1, 0]

    def test_epsilon_zero_is_mean(self):
        rng = random.Random(7)
        arms = [arm_with([rng.random() for _ in range(5)]) for _ in range(6)]
        assert hinted._ranked(arms, 0.0) == hinted._ranked(arms, None)

    def test_unobserved_arm_ranks_first(self):
        assert hinted._ranked([arm_with([1.0]), ArmState(), ArmState()], 0.1) == [1, 2, 0]

    def test_welford_matches_population_variance(self):
        rng = random.Random(4)
        samples = [rng.random() for _ in range(200)]
        arm = arm_with(samples)
        assert arm.mean == pytest.approx(np.mean(samples))
        assert arm.m2 / arm.count == pytest.approx(np.var(samples))


class TestSteps:
    def test_pulls_larger_probe(self):
        bandit = HintedBandit((0.9, 0.5), RewardModel("point"))
        # probes are the two best-indexed arms (both unobserved): 0 then 1;
        # point draws are 0.9 and 0.5, so arm 0 is pulled
        step = bandit.allprobe_step(1, random.Random(0))
        assert step.probes == (0, 1)
        assert step.pulled == 0

    def test_probe_draw_decides(self):
        bandit = HintedBandit((0.5, 0.5001), RewardModel("bernoulli"))
        # rr draw, then probe draws 0.2 -> loses, 0.8 -> wins
        rng = FixedRandom([0.9, 0.6, 0.4])  # rr=0, probe0 fails, probe1 succeeds
        step = bandit.allprobe_step(1, rng)
        assert step.pulled == step.probes[1]

    def test_tie_pulls_lower_index(self):
        bandit = HintedBandit((0.5, 0.5), RewardModel("point"))
        step = bandit.allprobe_step(3, random.Random(0))
        assert step.pulled == min(step.probes)

    def test_two_arms_rr_overlaps_but_three_draws(self):
        bandit = HintedBandit((0.7, 0.3), RewardModel("bernoulli"))
        bandit.allprobe_step(1, random.Random(0))
        assert sum(arm.count for arm in bandit.arms) == 3

    def test_eap_rank_one_equals_allprobe(self):
        means = (0.8, 0.6, 0.4)
        a, rng_a = HintedBandit(means, RewardModel()), random.Random(9)
        b, rng_b = HintedBandit(means, RewardModel()), random.Random(9)
        for t in range(1, 501):
            assert a.allprobe_step(t, rng_a) == b.eap_step(t, 1, rng_b)

    def test_eap_rank_out_of_range(self):
        bandit = HintedBandit((0.8, 0.6, 0.4), RewardModel())
        with pytest.raises(ParameterError):
            bandit.eap_step(1, 3, random.Random(0))
        with pytest.raises(ParameterError):
            bandit.eap_step(1, 0, random.Random(0))

    def test_eap_probes_adjacent_ranks(self):
        bandit = HintedBandit((0.2, 0.9, 0.6), RewardModel("point"))
        for arm, value in zip(bandit.arms, (0.2, 0.9, 0.6)):
            arm.record(value)
        step = bandit.eap_step(1, 2, random.Random(0))
        # index order is (1, 2, 0); ranks 2 and 3 are arms 2 and 0
        assert step.probes == (2, 0)

    def test_eap_last_rank_probes_two_lowest(self):
        bandit = HintedBandit((0.2, 0.9, 0.6), RewardModel("point"))
        for arm, value in zip(bandit.arms, (0.2, 0.9, 0.6)):
            arm.record(value)
        step = bandit.eap_step(4, 2, random.Random(0))
        assert step.probes == (2, 0)

    def test_apem_equals_allprobe_with_zero_epsilon(self):
        means = (0.8, 0.55, 0.35)
        a, rng_a = HintedBandit(means, RewardModel(), epsilon=0.0), random.Random(3)
        b, rng_b = HintedBandit(means, RewardModel()), random.Random(3)
        for t in range(1, 801):
            assert a.allprobe_step(t, rng_a) == b.apem_step(t, rng_b)

    def test_first_block_observes_every_arm(self):
        means = (0.8, 0.55, 0.35, 0.2)
        bandit = HintedBandit(means, RewardModel())
        rng = random.Random(1)
        for t in range(1, len(means) + 1):
            bandit.apem_step(t, rng)
        assert all(arm.count >= 1 for arm in bandit.arms)


class TestBernoulliMax:
    def test_half_half(self):
        assert bernoulli_max_expectation(0.5, 0.5) == pytest.approx(0.75)

    def test_certain_arm_dominates(self):
        for q in (0.0, 0.3, 1.0):
            assert bernoulli_max_expectation(1.0, q) == pytest.approx(1.0)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(0)
        draws = 1_000_000
        x = rng.random(draws) < 0.3
        y = rng.random(draws) < 0.6
        mc = np.maximum(x, y).mean()
        assert abs(bernoulli_max_expectation(0.3, 0.6) - mc) < 0.005

    def test_grid_within_clt_bound(self):
        # 121 simultaneous checks: 4.75 sigma keeps the family-wise false
        # alarm probability under 1e-4
        rng = np.random.default_rng(11)
        draws = 200_000
        for p in np.arange(0.0, 1.01, 0.1):
            for q in np.arange(0.0, 1.01, 0.1):
                x = rng.random(draws) < p
                y = rng.random(draws) < q
                mc = np.maximum(x, y).mean()
                exact = bernoulli_max_expectation(p, q)
                sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / draws)
                assert abs(exact - mc) <= max(4.75 * sigma, 1e-9)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            bernoulli_max_expectation(1.2, 0.5)


class TestExpectedMax:
    def test_point_masses(self):
        assert expected_max(0.3, 0.8, RewardModel("point")) == pytest.approx(0.8)

    def test_gaussian_numeric_against_monte_carlo(self):
        model = RewardModel("gaussian", 0.1)
        from interview_markets.market import draw_reward

        rng = random.Random(5)
        draws = [
            max(draw_reward(0.5, model, rng), draw_reward(0.7, model, rng))
            for _ in range(40_000)
        ]
        assert abs(expected_max(0.5, 0.7, model) - np.mean(draws)) < 0.005


class TestHintedRegret:
    """The test-side reference ``hinted_regret`` against the regret formula."""

    def test_best_arm_probed_every_round_is_zero(self):
        means = (0.9, 0.5, 0.2)
        traj = [StepRecord(t, t % 3, (0, 1), 0) for t in range(1, 50)]
        series = hinted_regret(traj, means, RewardModel())
        assert series[-1] == 0.0

    def test_good_pair_is_zero(self):
        # 0.6 + 0.4 * 0.8 = 0.92 >= 0.9: no regret even without the best arm
        means = (0.9, 0.8, 0.6)
        traj = [StepRecord(1, 0, (2, 1), 1)]
        assert hinted_regret(traj, means, RewardModel())[0] == 0.0

    def test_bad_pair_formula(self):
        means = (0.9, 0.1, 0.1)
        traj = [StepRecord(1, 0, (1, 2), 1)]
        series = hinted_regret(traj, means, RewardModel())
        assert series[0] == pytest.approx(0.9 - (0.1 + 0.9 * 0.1))

    def test_rank_target(self):
        means = (0.9, 0.5, 0.2)
        traj = [StepRecord(1, 0, (1, 2), 1)]
        series = hinted_regret(traj, means, RewardModel(), target_rank=2)
        expected = max(0.0, 0.5 - bernoulli_max_expectation(0.5, 0.2))
        assert series[0] == pytest.approx(expected)


class TestRunHinted:
    def test_apem_identifies_best_arm(self):
        means = (0.9, 0.1, 0.1)
        hits = 0
        for seed in range(100):
            bandit, rng = HintedBandit(means, RewardModel()), random.Random(seed)
            for t in range(1, 10_001):
                bandit.apem_step(t, rng)
            if hinted._ranked(bandit.arms, None)[0] == 0:
                hits += 1
        assert hits >= 95

    def test_eap_targets_ith_arm(self):
        means = (0.9, 0.7, 0.5, 0.3)
        hits = 0
        for seed in range(40):
            result = run_hinted(
                "eap", means, RewardModel(), 8_000, random.Random(seed), target_rank=2
            )
            if int(np.argmax(result.last_quarter_pulls)) == 1:
                hits += 1
        assert hits >= 36

    @pytest.mark.parametrize("algorithm, rank", [("allprobe", 1), ("apem", 1), ("eap", 2)])
    def test_regret_is_hinted_regret_of_the_trajectory(self, algorithm, rank, monkeypatch):
        # run_hinted computes each probed pair's increment once; the series
        # must equal the per-step sum over the same trajectory. A product
        # stands in for E[max] so that every pair has its own increment.
        calls = []

        def product(x, y, model):
            calls.append((x, y))
            return x * y

        monkeypatch.setattr(hinted, "expected_max", product)
        means, model, T = (0.3, 0.2, 0.1, 0.05, 0.02), RewardModel("bernoulli"), 400
        result = run_hinted(algorithm, means, model, T, random.Random(4), target_rank=rank)
        assert len(calls) == len(set(calls)) > 1
        bandit, rng = HintedBandit(means, model, 0.1), random.Random(4)
        steps = [
            bandit.eap_step(t, rank, rng) if algorithm == "eap"
            else getattr(bandit, f"{algorithm}_step")(t, rng)
            for t in range(1, T + 1)
        ]
        expected = hinted_regret(steps, means, model, rank)
        assert result.cumulative_regret.tolist() == expected

    def test_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            run_hinted("ucb", (0.5, 0.4), RewardModel(), 10, random.Random(0))

    def test_zero_horizon(self):
        with pytest.raises(ParameterError):
            run_hinted("allprobe", (0.5, 0.4), RewardModel(), 0, random.Random(0))
