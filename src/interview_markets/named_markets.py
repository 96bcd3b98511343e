"""Catalog of small benchmark markets with known stable structure.

Each entry is purely ordinal; means embed the orders on an evenly spaced
grid in [0.1, 0.9] (top choice highest). ``multappl`` is another name for
the ``k3`` market, under which the paired-application experiments run.
"""

from __future__ import annotations

from .errors import ConfigError
from .market import Market, RewardModel

# name -> (agent preference lists, firm preference lists); 0-indexed,
# most-preferred first
_TABLES: dict[str, tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]] = {
    # unique stable matching (a_i, f_i); deadlocks without firm deferral
    "introstrategic": (
        ((0, 1), (0, 1)),
        ((0, 1), (1, 0)),
    ),
    # unique stable matching, identical firm lists; vacancy feedback alone
    # hides the relevant hiring changes
    "coordfgs": (
        ((0, 1, 2), (1, 0, 2), (0, 2, 1)),
        ((0, 1, 2), (0, 1, 2), (0, 1, 2)),
    ),
    # agent-optimal matching is diagonal; one misreported list flips it
    "ucb3x3": (
        ((0, 1, 2), (1, 0, 2), (2, 0, 1)),
        ((1, 2, 0), (0, 1, 2), (2, 0, 1)),
    ),
    # multiple stable matchings; diagonal is agent-optimal,
    # (a1,f3),(a2,f1),(a3,f2) agent-pessimal
    "drrs4": (
        ((0, 1, 2), (1, 2, 0), (2, 1, 0)),
        ((1, 2, 0), (2, 0, 1), (0, 1, 2)),
    ),
    # 2x2 two-stable-matching market supporting a period-2 application cycle
    "k3": (
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
    ),
}
_TABLES["multappl"] = _TABLES["k3"]

EXAMPLE_NAMES = tuple(sorted(_TABLES))


def _means_from_order(order: tuple[int, ...]) -> tuple[float, ...]:
    length = len(order)
    if length == 1:
        return (0.9,)
    step = 0.8 / (length - 1)
    means = [0.0] * length
    for rank, peer in enumerate(order):
        means[peer] = round(0.9 - rank * step, 12)
    return tuple(means)


def named_example(
    name: str, reward_kind: str = "bernoulli", sigma: float = 0.1
) -> Market:
    """Market whose ground-truth lists equal the named example's tables."""
    if name not in _TABLES:
        raise ConfigError(
            f"unknown example {name!r}; known names: {', '.join(EXAMPLE_NAMES)}"
        )
    agent_orders, firm_orders = _TABLES[name]
    agent_means = tuple(_means_from_order(o) for o in agent_orders)
    firm_means = tuple(_means_from_order(o) for o in firm_orders)
    return Market(agent_means, firm_means, RewardModel(reward_kind, sigma))
