"""Ground-truth market model: reward distributions, preferences, stability oracles.

Conventions: agents and firms are 0-indexed internally (1-indexed in all
file/CLI formats). A preference list is a permutation of the opposite side,
most-preferred first. ``n <= m`` always (agents are the short side).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .errors import InputError, MarketError, ParameterError, SizeError

PrefList = tuple[int, ...]

REWARD_KINDS = ("bernoulli", "gaussian", "point")

# Enumeration guard: number of agent-perfect matchings m!/(m-n)! we are
# willing to scan.
MAX_AGENTS_FOR_ENUMERATION = 8
MAX_MATCHINGS_FOR_ENUMERATION = 5_000_000
# Generator guard: agent-firm pairs n * m a generated market may hold; both
# generators lay out 10**6 pairs in a few seconds.
MAX_GENERATED_PAIRS = 1_000_000


@dataclass(frozen=True)
class RewardModel:
    """Bounded per-pair reward distribution family.

    ``bernoulli``: Bernoulli(mean). ``point``: deterministic mean.
    ``gaussian``: mean plus symmetric Gaussian noise truncated to keep the
    draw inside [0, 1]; the effective sigma is capped at min(mean, 1-mean)/3
    per pair so the truncation stays symmetric and the draw's expectation
    equals the mean exactly.
    """

    kind: str = "bernoulli"
    sigma: float = 0.1

    def __post_init__(self):
        if self.kind not in REWARD_KINDS:
            raise MarketError(f"unknown reward kind {self.kind!r}")
        if self.kind == "gaussian" and not 0 < self.sigma < math.inf:  # NaN fails too
            raise MarketError(f"gaussian reward model needs 0 < sigma < inf, got {self.sigma}")


@dataclass(frozen=True)
class Market:
    """n agents, m firms, and the two mean matrices driving all rewards."""

    agent_means: tuple[tuple[float, ...], ...]  # n rows of length m
    firm_means: tuple[tuple[float, ...], ...]  # m rows of length n
    reward_model: RewardModel = field(default_factory=RewardModel)

    def __post_init__(self):
        n = len(self.agent_means)
        m = len(self.firm_means)
        if n < 1:
            raise MarketError("need at least one agent")
        if m < n:
            raise MarketError(f"need m >= n, got n={n}, m={m}")
        for label, rows, width in (
            ("agent", self.agent_means, m),
            ("firm", self.firm_means, n),
        ):
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise MarketError(
                        f"{label} row {i} has length {len(row)}, expected {width}"
                    )
                for u in row:
                    if not 0.0 <= u <= 1.0:
                        raise MarketError(f"{label} row {i}: mean {u} outside [0, 1]")
                if len(set(row)) != len(row):
                    raise MarketError(
                        f"{label} row {i} has duplicate means (strict preferences required)"
                    )

    @property
    def n(self) -> int:
        return len(self.agent_means)

    @property
    def m(self) -> int:
        return len(self.firm_means)


@dataclass(frozen=True)
class Matching:
    """One-to-one assignment; ``agent_match[a]`` is a firm index or None."""

    agent_match: tuple[Optional[int], ...]
    m: int

    def __post_init__(self):
        taken = [f for f in self.agent_match if f is not None]
        if len(taken) != len(set(taken)):
            raise InputError("matching is not injective")
        for f in taken:
            if not 0 <= f < self.m:
                raise InputError(f"firm index {f} out of range")

    @property
    def firm_match(self) -> tuple[Optional[int], ...]:
        inverse: list[Optional[int]] = [None] * self.m
        for a, f in enumerate(self.agent_match):
            if f is not None:
                inverse[f] = a
        return tuple(inverse)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, f) for a, f in enumerate(self.agent_match) if f is not None)

    def is_agent_perfect(self) -> bool:
        return all(f is not None for f in self.agent_match)


@dataclass(frozen=True)
class StableSet:
    """All stable matchings of a market plus per-agent lattice extremes."""

    matchings: tuple[Matching, ...]
    best_partner: tuple[int, ...]  # per agent, by the agent's own means
    worst_partner: tuple[int, ...]


def rank_order(values: Sequence[float]) -> PrefList:
    """Indices by decreasing value, ties by ascending index (a stable sort):
    the true preference order, and the estimated one once all is observed."""
    return tuple(sorted(range(len(values)), key=lambda j: -values[j]))


def ground_truth_prefs(market: Market) -> tuple[list[PrefList], list[PrefList]]:
    """Preference lists induced by the mean matrices (decreasing mean)."""
    agent_prefs = [rank_order(row) for row in market.agent_means]
    firm_prefs = [rank_order(row) for row in market.firm_means]
    return agent_prefs, firm_prefs


def _check_permutation(lists: Sequence[PrefList], width: int, label: str) -> None:
    for i, order in enumerate(lists):
        if sorted(order) != list(range(width)):
            raise InputError(f"{label} list {i} is not a permutation of 0..{width - 1}")


def _deferred_acceptance(
    prop_prefs: Sequence[PrefList], recv_rank: Sequence[Sequence[int]]
) -> list[Optional[int]]:
    """Proposer-side deferred acceptance; returns holds indexed by receiver."""
    n_recv = len(recv_rank)
    next_choice = [0] * len(prop_prefs)
    held: list[Optional[int]] = [None] * n_recv
    free = list(range(len(prop_prefs)))
    while free:
        p = free.pop()
        prefs_p = prop_prefs[p]
        i = next_choice[p]
        while i < n_recv:
            r = prefs_p[i]
            i += 1
            current = held[r]
            if current is None:
                held[r] = p
                break
            ranks = recv_rank[r]
            if ranks[p] < ranks[current]:
                held[r] = p
                free.append(current)
                break
        next_choice[p] = i
        # a proposer that exhausts its list stays unmatched
    return held


def _rank_arrays(prefs: Sequence[PrefList]) -> list[list[int]]:
    out = []
    for order in prefs:
        ranks = [0] * len(order)
        for pos, p in enumerate(order):
            ranks[p] = pos
        out.append(ranks)
    return out


def agent_proposing_match(
    agent_prefs: Sequence[PrefList], firm_prefs: Sequence[PrefList]
) -> list[Optional[int]]:
    """Agent-optimal stable assignment as a plain agent->firm list.

    Trusts its inputs; the validating entry point is :func:`gale_shapley`.
    """
    held = _deferred_acceptance(agent_prefs, _rank_arrays(firm_prefs))
    agent_match: list[Optional[int]] = [None] * len(agent_prefs)
    for f, a in enumerate(held):
        if a is not None:
            agent_match[a] = f
    return agent_match


def gale_shapley(
    agent_prefs: Sequence[PrefList],
    firm_prefs: Sequence[PrefList],
    proposer: str = "agents",
) -> Matching:
    """Deferred acceptance over the given lists.

    Agents proposing yields the agent-optimal stable matching; firms
    proposing yields the agent-pessimal one. The short side (agents) is
    always fully matched; with m > n and firms proposing, m - n firms end
    unmatched after exhausting their lists.
    """
    n, m = len(agent_prefs), len(firm_prefs)
    _check_permutation(agent_prefs, m, "agent")
    _check_permutation(firm_prefs, n, "firm")
    if proposer == "agents":
        agent_match = agent_proposing_match(agent_prefs, firm_prefs)
    elif proposer == "firms":
        held = _deferred_acceptance(firm_prefs, _rank_arrays(agent_prefs))
        agent_match = list(held)  # held[a] = firm
    else:
        raise InputError(f"proposer must be 'agents' or 'firms', got {proposer!r}")
    return Matching(tuple(agent_match), m)


def blocking_pairs(
    matching: Matching,
    agent_prefs: Sequence[PrefList],
    firm_prefs: Sequence[PrefList],
) -> list[tuple[int, int]]:
    """All (agent, firm) pairs that strictly prefer each other to their assignments.

    Being unmatched ranks below every partner on both sides.
    """
    n, m = len(agent_prefs), len(firm_prefs)
    agent_rank = [{f: r for r, f in enumerate(order)} for order in agent_prefs]
    firm_rank = [{a: r for r, a in enumerate(order)} for order in firm_prefs]
    firm_match = matching.firm_match
    out = []
    for a in range(n):
        fa = matching.agent_match[a]
        a_current = agent_rank[a][fa] if fa is not None else m
        for f in range(m):
            if f == fa or agent_rank[a][f] >= a_current:
                continue
            af = firm_match[f]
            f_current = firm_rank[f][af] if af is not None else n
            if firm_rank[f][a] < f_current:
                out.append((a, f))
    return out


def enumerate_stable_matchings(market: Market) -> StableSet:
    """Brute-force stability oracle over all agent-perfect matchings.

    Only agent-perfect assignments are scanned: any unmatched agent would
    form a blocking pair with some vacant firm (vacancy ranks worst).
    """
    n, m = market.n, market.m
    if n > MAX_AGENTS_FOR_ENUMERATION:
        raise SizeError(f"enumeration limited to n <= {MAX_AGENTS_FOR_ENUMERATION}, got {n}")
    total = math.perm(m, n)
    if total > MAX_MATCHINGS_FOR_ENUMERATION:
        raise SizeError(f"enumeration would scan {total} matchings")
    agent_prefs, firm_prefs = ground_truth_prefs(market)
    a_rank = _rank_arrays(agent_prefs)
    f_rank = _rank_arrays(firm_prefs)
    stable = []
    for assignment in itertools.permutations(range(m), n):
        holder: list[Optional[int]] = [None] * m
        for a, f in enumerate(assignment):
            holder[f] = a
        ok = True
        for a in range(n):
            ranks_a = a_rank[a]
            current = ranks_a[assignment[a]]
            for f in range(m):
                if ranks_a[f] < current:  # agent would move to f
                    other = holder[f]
                    if other is None or f_rank[f][a] < f_rank[f][other]:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            stable.append(Matching(assignment, m))
    if not stable:
        raise MarketError("no stable matching found; market data must be inconsistent")
    best, worst = [], []
    for a in range(n):
        partners = [mt.agent_match[a] for mt in stable]
        best.append(max(partners, key=lambda f: market.agent_means[a][f]))
        worst.append(min(partners, key=lambda f: market.agent_means[a][f]))
    return StableSet(tuple(stable), tuple(best), tuple(worst))


def _find_fixed_pair(
    agents: list[int],
    firms: list[int],
    agent_prefs: Sequence[PrefList],
    firm_prefs: Sequence[PrefList],
) -> Optional[tuple[int, int]]:
    """Lowest-agent-index mutual-top pair of the sub-market, if any."""
    firm_set = set(firms)
    agent_set = set(agents)
    for a in agents:
        top_firm = next(f for f in agent_prefs[a] if f in firm_set)
        top_agent = next(x for x in firm_prefs[top_firm] if x in agent_set)
        if top_agent == a:
            return a, top_firm
    return None


def alpha_reducibility(market: Market) -> Optional[tuple[tuple[int, int], ...]]:
    """The mutual-top ``(agent, firm)`` pairs, extracted layer by layer, or
    None if some layer has none.

    When the extraction completes, the pairs form the market's unique stable
    matching. Extraction is deterministic (lowest agent index first) so
    layered generators reproduce their planted sequence.
    """
    agent_prefs, firm_prefs = ground_truth_prefs(market)
    agents = list(range(market.n))
    firms = list(range(market.m))
    pairs = []
    while agents:
        hit = _find_fixed_pair(agents, firms, agent_prefs, firm_prefs)
        if hit is None:
            return None
        a, f = hit
        pairs.append((a, f))
        agents.remove(a)
        firms.remove(f)
    return tuple(pairs)


def _jittered_rows(count: int, length: int, min_gap: float, rng: random.Random):
    """``count`` rows of ``length`` values in (0, 1), each row's pairwise
    separation >= min_gap, in random order, one tuple at a time."""
    width = 1.0 / length
    half_play = (width - min_gap) / 2.0
    centers = [(i + 0.5) * width for i in range(length)]
    uniform, shuffle = rng.uniform, rng.shuffle
    for _ in range(count):
        levels = [c + uniform(-half_play, half_play) for c in centers]
        shuffle(levels)
        yield tuple(levels)


def generator_param_error(n: int, m: int, min_gap: float) -> Optional[tuple[str, str]]:
    """The first infeasible generator parameter and why, or None."""
    if n < 1:
        return "n", f"need 1 <= n, got n={n}"
    if m < n:
        return "m", f"need n <= m, got n={n}, m={m}"
    if min_gap <= 0:
        return "min_gap", f"must be positive, got {min_gap}"
    # more levels than a float can count: the generator cannot lay them out,
    # and the product would overflow
    if max(n, m) > sys.float_info.max or min_gap * max(n, m) >= 1.0:
        return "min_gap", f"{min_gap} infeasible for {max(n, m)} levels in [0, 1]"
    if n * m > MAX_GENERATED_PAIRS:
        return "m", f"need n * m <= {MAX_GENERATED_PAIRS}, got n={n}, m={m}"
    return None


def _check_generator_params(n: int, m: int, min_gap: float) -> None:
    error = generator_param_error(n, m, min_gap)
    if error is not None:
        raise ParameterError(f"{error[0]}: {error[1]}")


def generate_market(
    n: int,
    m: int,
    min_gap: float,
    rng: random.Random,
    reward_kind: str = "bernoulli",
    sigma: float = 0.1,
) -> Market:
    """Random market with per-row mean separation >= min_gap."""
    _check_generator_params(n, m, min_gap)
    agent_means = tuple(_jittered_rows(n, m, min_gap, rng))
    firm_means = tuple(_jittered_rows(m, n, min_gap, rng))
    return Market(agent_means, firm_means, RewardModel(reward_kind, sigma))


def generate_alpha_reducible(
    n: int,
    m: int,
    min_gap: float,
    rng: random.Random,
    reward_kind: str = "bernoulli",
    sigma: float = 0.1,
) -> Market:
    """Random layered market whose fixed-pair sequence is (a_i, f_i) by construction.

    Row i of each side is patched so that, among the peers still present in
    layer i's sub-market, peer i carries the largest mean.
    """
    _check_generator_params(n, m, min_gap)
    agent_rows = list(map(list, _jittered_rows(n, m, min_gap, rng)))
    firm_rows = list(map(list, _jittered_rows(m, n, min_gap, rng)))
    for i in range(n):
        # agent a_i must top f_i among firms f_i..f_{m-1}
        row = agent_rows[i]
        k = max(range(i, m), key=lambda j: row[j])
        row[i], row[k] = row[k], row[i]
    for j in range(n):
        # firm f_j must top a_j among agents a_j..a_{n-1}
        row = firm_rows[j]
        k = max(range(j, n), key=lambda x: row[x])
        row[j], row[k] = row[k], row[j]
    market = Market(
        tuple(map(tuple, agent_rows)),
        tuple(map(tuple, firm_rows)),
        RewardModel(reward_kind, sigma),
    )
    if alpha_reducibility(market) is None:
        raise MarketError(f"generated {n}x{m} market is not alpha-reducible")
    return market


@functools.lru_cache(maxsize=1 << 16)
def _gaussian_truncation(mean: float, sigma: float) -> tuple[float, float]:
    """The largest deviation a Gaussian draw around ``mean`` keeps, and the
    sigma it draws with: at most a third of that deviation."""
    cap = min(mean, 1.0 - mean)
    return cap, min(sigma, cap / 3.0)


def draw_reward(mean: float, model: RewardModel, rng: random.Random) -> float:
    """One sample from the pair distribution; always inside [0, 1], E = mean."""
    if model.kind == "bernoulli":
        return 1.0 if rng.random() < mean else 0.0
    if model.kind == "point":
        return mean
    # gaussian: symmetric truncation keeps the expectation at `mean`
    cap, sigma = _gaussian_truncation(mean, model.sigma)
    if cap <= 0.0:
        return mean
    while True:
        z = rng.gauss(0.0, sigma)
        if abs(z) <= cap:
            return mean + z


def market_to_dict(market: Market) -> dict:
    """JSON-ready form; matrices row-major flat, indices implicit."""
    d = {
        "n": market.n,
        "m": market.m,
        "agent_means": [u for row in market.agent_means for u in row],
        "firm_means": [u for row in market.firm_means for u in row],
        "reward_kind": market.reward_model.kind,
    }
    if market.reward_model.kind == "gaussian":
        d["sigma"] = market.reward_model.sigma
    return d


def _mean_rows(flat, rows: int, width: int) -> tuple[tuple[float, ...], ...]:
    """Mean rows from ``rows * width`` numbers in row-major order, or nested rows."""
    flat = list(flat)
    if not (flat and isinstance(flat[0], (list, tuple))):
        if len(flat) != rows * width:
            raise ValueError("row-major mean arrays must have n*m entries")
        flat = [flat[i * width : (i + 1) * width] for i in range(rows)]
    elif len(flat) != rows or any(len(row) != width for row in flat):
        raise ValueError(f"nested mean arrays must have {rows} rows of {width} entries")
    return tuple(tuple(_number(u) for u in row) for row in flat)


def _size(value) -> int:
    if type(value) is not int:  # a bool is an int too
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def market_from_dict(d: dict) -> Market:
    """A missing key or a malformed entry is a ``MarketError`` naming the key."""

    def read(key, convert):
        try:
            return convert(d[key])
        except KeyError:
            raise MarketError(f"market key {key!r} is missing") from None
        except (TypeError, ValueError, OverflowError) as exc:  # overflow: beyond float range
            raise MarketError(f"market key {key!r}: {exc}") from None

    if not isinstance(d, dict):
        raise MarketError(f"a market must be a JSON object, got {type(d).__name__}")
    n, m = read("n", _size), read("m", _size)
    agent_means = read("agent_means", lambda flat: _mean_rows(flat, n, m))
    firm_means = read("firm_means", lambda flat: _mean_rows(flat, m, n))
    sigma = read("sigma", _number) if "sigma" in d else 0.1
    return Market(agent_means, firm_means, RewardModel(d.get("reward_kind", "bernoulli"), sigma))


def load_market(path: str | Path) -> Market:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise MarketError(f"{path} is not valid JSON: {exc}") from None
    return market_from_dict(raw)


def save_market(market: Market, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(market_to_dict(market), fh, indent=2)
        fh.write("\n")
