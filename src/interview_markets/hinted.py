"""Single-learner bandits with hints: probe two arms, pull the better draw.

The index is a mean-plus-scaled-population-variance score; ranking by it (or
by the raw mean) selects two adjacent ranks to probe each round, alongside a
round-robin observation that is never pulled. Regret is measured against the
target rank's true mean, crediting a round whenever the expected maximum of
the two probed draws reaches it.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ParameterError
from .market import RewardModel, _gaussian_truncation, draw_reward, rank_order


@dataclass
class ArmState:
    """Welford accumulator for one arm: mean plus population variance."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def record(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)


def _ranked(arms: Sequence[ArmState], epsilon: Optional[float]) -> list[int]:
    """Arm indices best-first; unobserved arms rank first, ties by index.

    Ranks by the UCB' index, mean plus ``epsilon`` times the population
    variance, or by the empirical mean alone when ``epsilon`` is None. The
    keys are ``estimation._sort_key``'s, written inline: this runs every
    bandit step.
    """
    keys = []
    for j, arm in enumerate(arms):
        if arm.count == 0:
            keys.append((0, 0.0, j))
        elif epsilon is None:
            keys.append((1, -arm.mean, j))
        else:
            keys.append((1, -(arm.mean + epsilon * (arm.m2 / arm.count)), j))
    keys.sort()
    return [key[2] for key in keys]


class StepRecord(NamedTuple):  # built every step: a tuple is cheaper than a frozen dataclass
    probes: tuple[int, int]
    pulled: int


@dataclass
class HintedBandit:
    """One learner over m arms with a fixed reward model."""

    means: tuple[float, ...]
    model: RewardModel = field(default_factory=RewardModel)
    epsilon: float = 0.1

    def __post_init__(self):
        if len(self.means) < 2:
            raise ParameterError("need at least two arms")
        self.arms = [ArmState() for _ in self.means]

    def _step(self, t: int, rank: int, rng: random.Random, by_mean: bool) -> StepRecord:
        m = len(self.means)
        order = _ranked(self.arms, None if by_mean else self.epsilon)
        lo, hi = order[rank - 1], order[rank]
        rr = t % m
        means = self.means
        if self.model.kind == "bernoulli":
            rand = rng.random
            draw_rr = 1.0 if rand() < means[rr] else 0.0
            draw_lo = 1.0 if rand() < means[lo] else 0.0
            draw_hi = 1.0 if rand() < means[hi] else 0.0
        else:
            draw_rr = draw_reward(means[rr], self.model, rng)
            draw_lo = draw_reward(means[lo], self.model, rng)
            draw_hi = draw_reward(means[hi], self.model, rng)
        if draw_hi > draw_lo:
            pulled = hi
        elif draw_lo > draw_hi:
            pulled = lo
        else:
            pulled = min(lo, hi)
        self.arms[rr].record(draw_rr)
        self.arms[lo].record(draw_lo)
        self.arms[hi].record(draw_hi)
        return StepRecord((lo, hi), pulled)

    def allprobe_step(self, t: int, rng: random.Random) -> StepRecord:
        return self._step(t, 1, rng, by_mean=False)

    def eap_step(self, t: int, rank: int, rng: random.Random) -> StepRecord:
        if not 1 <= rank <= len(self.means) - 1:
            raise ParameterError(
                f"target rank must be in 1..{len(self.means) - 1}, got {rank}"
            )
        return self._step(t, rank, rng, by_mean=False)

    def apem_step(self, t: int, rng: random.Random) -> StepRecord:
        return self._step(t, 1, rng, by_mean=True)


def bernoulli_max_expectation(p: float, q: float) -> float:
    """E[max(X, Y)] for independent Bernoulli draws with means p and q."""
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ParameterError("Bernoulli means must lie in [0, 1]")
    return p + (1.0 - p) * q


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _gaussian_cdf(z: float, mean: float, model: RewardModel) -> float:
    cap, sigma = _gaussian_truncation(mean, model.sigma)
    if cap <= 0.0:
        return 0.0 if z < mean else 1.0
    if z <= mean - cap:
        return 0.0
    if z >= mean + cap:
        return 1.0
    lo, hi = _phi(-cap / sigma), _phi(cap / sigma)
    return (_phi((z - mean) / sigma) - lo) / (hi - lo)


@functools.lru_cache(maxsize=1 << 12)  # a Gaussian grid costs about 2 ms; once per pair per process
def expected_max(mean_x: float, mean_y: float, model: RewardModel) -> float:
    """E[max] of two independent draws from the pair's reward family."""
    if model.kind == "bernoulli":
        return bernoulli_max_expectation(mean_x, mean_y)
    if model.kind == "point":
        return max(mean_x, mean_y)
    # E[max] = integral of 1 - F_X F_Y over [0, 1] (nonnegative support)
    grid = 2001
    total = 0.0
    for k in range(grid + 1):
        z = k / grid
        w = 1.0 if 0 < k < grid else 0.5
        total += w * (1.0 - _gaussian_cdf(z, mean_x, model) * _gaussian_cdf(z, mean_y, model))
    return total / grid


@dataclass
class HintedRunResult:
    cumulative_regret: np.ndarray  # length T
    last_quarter_pulls: np.ndarray  # per arm, final quarter (at least round T) only


def run_hinted(
    algorithm: str,
    means: Sequence[float],
    model: RewardModel,
    T: int,
    rng: random.Random,
    epsilon: float = 0.1,
    target_rank: int = 1,
) -> HintedRunResult:
    """Run one replication of allprobe/eap/apem and return its regret series."""
    if T < 1:
        raise ParameterError(f"horizon must be >= 1, got {T}")
    bandit = HintedBandit(tuple(means), model, epsilon)
    m = len(means)
    rank = target_rank if algorithm == "eap" else 1
    regret_target = means[rank_order(means)[rank - 1]]
    cum = np.empty(T)
    last_quarter = np.zeros(m, dtype=np.int64)
    quarter_start = T - max(1, T // 4)  # at least the last round
    increments: dict[tuple[int, int], float] = {}  # per probed pair
    acc = 0.0
    for t in range(1, T + 1):
        if algorithm == "allprobe":
            step = bandit.allprobe_step(t, rng)
        elif algorithm == "eap":
            step = bandit.eap_step(t, rank, rng)
        elif algorithm == "apem":
            step = bandit.apem_step(t, rng)
        else:
            raise ParameterError(f"unknown hinted algorithm {algorithm!r}")
        inc = increments.get(step.probes)
        if inc is None:
            lo, hi = step.probes
            inc = max(0.0, regret_target - expected_max(means[lo], means[hi], model))
            increments[step.probes] = inc
        acc += inc
        cum[t - 1] = acc
        if t > quarter_start:
            last_quarter[step.pulled] += 1
    return HintedRunResult(cum, last_quarter)
