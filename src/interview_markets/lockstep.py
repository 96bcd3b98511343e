"""Lockstep replications of the central allocator (``cia``) on numpy arrays.

A block of R replications advances round by round together. Estimates live
in ``(R, n, m)`` agent-side and ``(R, m, n)`` firm-side sum and count arrays,
each side's estimated lists come from one stable argsort of the block's
keys, and regret accumulates over the whole block. Two things stay scalar
per replication, so that every replication's :class:`RepOutput` equals the
one ``runner.run_market_replication`` returns for it:

- deferred acceptance, which is ``market._deferred_acceptance`` itself;
- the random draws, which come from the replication's own ``random.Random``
  stream in the scalar engine's order: for each agent in index order and
  each of its two interviews (assigned firm, then round-robin firm), the
  agent-side draw and then, for uncertain firms, the firm-side draw; after
  those, one reward draw per agent in index order.

``engine.run_horizon`` is the reference; the runner sends only Bernoulli
``cia`` configs without per-round logs here.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .errors import ProtocolError
from .market import Market, _deferred_acceptance
from .runner import RepOutput, checkpoint_rounds, market_baselines


class _Estimates:
    """Sums and counts of one side for a block, as flat ``(R, owners, peers)``
    arrays, with each pair's ranking key: minus its mean, or -inf while
    unobserved. A stable argsort of the keys gives ``estimation._sort_key``'s
    order: unobserved peers first, then decreasing mean, ties by index."""

    def __init__(self, shape: tuple[int, int, int]):
        self.shape = shape
        size = shape[0] * shape[1] * shape[2]
        self.sums = np.zeros(size)
        self.counts = np.zeros(size, dtype=np.int64)
        self.keys = np.full(size, -np.inf)

    def record(self, idx: np.ndarray, values: np.ndarray) -> None:
        """Add one observation per flat index; a repeated index counts twice."""
        size = len(self.keys)
        self.sums += np.bincount(idx, values, size)
        self.counts += np.bincount(idx, minlength=size)
        self.keys[idx] = -self.sums[idx] / self.counts[idx]

    def lists(self) -> np.ndarray:
        return np.argsort(self.keys.reshape(self.shape), axis=-1, kind="stable")


def run_cia_block(config, market: Market, reps: Sequence[int]) -> list[RepOutput]:
    """Replications ``reps`` of a Bernoulli ``cia`` config, run in lockstep."""
    n, m, T = market.n, market.m, config.horizon
    R = len(reps)
    uncertain = config.firm_mode == "uncertain"
    interview_draws = n * 2 * (2 if uncertain else 1)  # agent side, then firm side
    draws = interview_draws + n  # then one reward draw per agent
    agent_means = np.array(market.agent_means)
    firm_means = np.array(market.firm_means)
    bases = np.array(market_baselines(market))[:, None, :]  # (2, 1, n): opt, pess
    retain = frozenset(checkpoint_rounds(T, config.stride))

    rands = []
    for rep in reps:
        master = random.Random(config.base_seed + rep)
        rands.append(random.Random(master.getrandbits(64)).random)

    agents = np.arange(n)
    block = np.arange(R)
    a_flat = ((block[:, None] * n + agents) * m)[:, :, None]  # + firm
    f_flat = (block * (m * n))[:, None, None] + agents[:, None]  # + firm * n
    agent_est = _Estimates((R, n, m))
    firm_est = _Estimates((R, m, n))
    if not uncertain:  # OracleEstimator's lists never move
        order = np.argsort(-firm_means, axis=-1, kind="stable")
        f_ranks = [np.argsort(order, axis=-1).tolist()] * R

    fs = np.empty((R, n, 2), dtype=np.intp)  # interviewed firms: assigned, round-robin
    cum = np.zeros((4, R, n))  # realized opt, pess; pseudo opt, pess
    stored = []
    streak = [0] * R  # first round of each replication's current matching
    last: list = [None] * R

    for t in range(1, T + 1):
        a_lists = agent_est.lists().tolist()
        if uncertain:
            f_ranks = np.argsort(firm_est.lists(), axis=-1).tolist()  # rank rows
        # Deferred acceptance is injective, so every firm's pool holds at
        # most one applicant: firms never stamp a rejection clock and never
        # abstain, and each agent is hired by its assigned firm. The firm
        # clocks are skipped and the six invariant counters stay zero (V'
        # holds exactly the m - n unassigned firms, and V = V' | changed).
        rows = []
        for i, rep in enumerate(reps):
            row = [-1] * n
            for f, a in enumerate(_deferred_acceptance(a_lists[i], f_ranks[i])):
                if a is not None:
                    row[a] = f
            if -1 in row:
                raise ProtocolError(f"replication {rep}: agent {row.index(-1)} unmatched", t)
            if row != last[i]:
                streak[i], last[i] = t, row
            rows.append(row)
        u = np.array([[rand() for _ in range(draws)] for rand in rands])
        match = np.array(rows)
        fs[..., 0] = match
        fs[..., 1] = (t + agents + 1) % m

        interviews = u[:, :interview_draws].reshape(R, n, 2, -1)
        seen = interviews[..., 0] < agent_means[agents[:, None], fs]
        agent_est.record((a_flat + fs).ravel(), seen.ravel())
        if uncertain:
            seen = interviews[..., 1] < firm_means[fs, agents[:, None]]
            firm_est.record((f_flat + fs * n).ravel(), seen.ravel())

        mean = agent_means[agents, match]
        reward = (u[:, interview_draws:] < mean).astype(float)
        cum[:2] += bases - reward
        cum[2:] += bases - mean
        if t in retain:
            stored.append(cum.copy())

    marks = sorted(retain)
    rows_by_rep = np.array(stored).transpose(2, 0, 1, 3).tolist()  # (R, marks, 4, n)
    return [
        RepOutput(
            rep=rep,
            seed=config.base_seed + rep,
            rows={t: tuple(map(tuple, kinds)) for t, kinds in zip(marks, rows_by_rep[i])},
            converged_round=streak[i],  # every matching is agent-perfect
            final_matching=tuple(last[i]),
            gamma_zero_rounds=0,
            collision_rounds=0,
            vprime_subset_violations=0,
            vprime_size_violations=0,
            certain_gamma_violations=0,
            consecutive_abstentions=0,
        )
        for i, rep in enumerate(reps)
    ]
