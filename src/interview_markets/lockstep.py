"""Lockstep replications of the central allocator (``cia``), the
coordinated learner (``drr``) and the randomized coordination-free learner
(``eancdrr``) on numpy arrays.

A block of R replications advances round by round together. Estimates live
in ``(R, n, m)`` agent-side and ``(R, m, n)`` firm-side sum and count arrays,
with each pair's ranking key, and regret accumulates over the whole block.
Every replication's :class:`RepOutput` equals the one
``runner.run_market_replication`` returns for it, because:

- the random draws come from the replication's own ``random.Random``
  streams in the scalar engine's order: from the reward stream, for each
  agent in index order and each of its interviews (the firms the block
  hands to :meth:`_Block.settle`, then the round-robin firm), the
  agent-side draw and then, for uncertain firms, the firm-side draw; after
  those, one reward draw per matched agent in index order; from the policy
  stream, ``eancdrr``'s lambda draws in agent order;
- ``cia``'s deferred acceptance is ``market._deferred_acceptance`` itself,
  rerun only for the replications whose lists on either side moved;
- the ranking rule is ``estimation._sort_key`` (``market.rank_order`` for
  certain firms) as numpy keys: a stable argsort gives a ``pref_list``, and
  a masked ``argmin`` gives ``estimation.first_in`` over a candidate set,
  its first-occurrence rule breaking ties by index;
- convergence is ``engine.run_horizon``'s agent-perfect streak, and the
  retained rounds are ``runner.checkpoint_rounds``;
- list validity (``RunRecorder.invalid``) is read off the same argsort
  lists at ``runner.summary_checkpoints``, after the round's interviews.

``engine.run_horizon`` is the reference; the runner sends only Bernoulli
``cia``, ``drr`` and ``eancdrr`` configs without per-round logs here.
``ancdrr`` stays scalar for now: the perfbench ``scale`` self-test needs one
scalar algorithm until the benchmark counts lockstep rounds (ROADMAP item 1).
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Iterator, Sequence

import numpy as np

from .central import round_robin_firm
from .decentral import drr_phase_length
from .errors import ProtocolError
from .market import Market, _deferred_acceptance, rank_order
from .metrics import INVARIANTS
from .runner import (RepOutput, checkpoint_rounds, market_baselines, replication_streams,
                     summary_checkpoints)

class _Estimates:
    """Sums and counts of one side for a block, with each pair's ranking key
    as an ``(R, owners, peers)`` array: minus its mean, or -inf while
    unobserved. A stable argsort of the keys, or an argmin over some of
    them, gives ``estimation._sort_key``'s order: unobserved peers first,
    then decreasing mean, ties by index."""

    def __init__(self, shape: tuple[int, int, int]):
        self.keys = np.full(shape, -np.inf)
        self._flat = self.keys.reshape(-1)  # a view: record writes the keys through it
        self._sums = np.zeros(self._flat.size)
        self._counts = np.zeros(self._flat.size, dtype=np.int64)

    def record(self, idx: np.ndarray, values: np.ndarray) -> None:
        """Add one observation per flat ``(R, owners, peers)`` index; a
        repeated index counts twice."""
        size = self._flat.size
        self._sums += np.bincount(idx, values, size)
        self._counts += np.bincount(idx, minlength=size)
        self._flat[idx] = -self._sums[idx] / self._counts[idx]

    def lists(self) -> np.ndarray:
        return np.argsort(self.keys, axis=-1, kind="stable")


class _Block:
    """What every lockstep block keeps: each replication's reward and policy
    streams, both sides' estimates, the flat row offsets of its arrays, the
    regret sums and validity flags, the convergence streaks and the
    invariant event counts."""

    def __init__(self, config, market: Market, reps: Sequence[int]):
        self.reps = list(reps)
        R, n, m = len(self.reps), market.n, market.m
        self.R, self.n, self.m = R, n, m
        self.uncertain = config.firm_mode == "uncertain"
        self.sides = 2 if self.uncertain else 1  # draws per interview: agent side, then firm side
        self.agent_means = np.array(market.agent_means)
        self.firm_means = np.array(market.firm_means)
        # each replication's reward and policy streams, as endless iterators
        # of draws (random() never returns 2)
        streams = [replication_streams(config.base_seed + rep) for rep in self.reps]
        self._streams = [iter(rewards.random, 2.0) for rewards, _ in streams]
        self.policy = [iter(policy.random, 2.0) for _, policy in streams]

        self.agents = np.arange(n)
        self.firm_rows = np.arange(R)[:, None] * m  # + firm: flat (R, m) index
        self.agent_rows = np.arange(R)[:, None] * n  # + agent: flat (R, n) index
        self._a_flat = ((self.agent_rows + self.agents) * m)[..., None]  # + firm
        self._f_flat = (self.firm_rows * n + self.agents)[..., None]  # + firm * n
        self._a_means = np.tile(self.agent_means.ravel(), R)  # at the same flat indices
        self._f_means = np.tile(self.firm_means.ravel(), R)
        self._matched_means = np.hstack([self.agent_means, np.zeros((n, 1))])  # firm -1: 0
        self.agent_est = _Estimates((R, n, m))
        self.firm_est = _Estimates((R, m, n))
        self._rr = [round_robin_firm(self.agents, t, m) for t in range(m)]  # by t mod m

        best, opt, pess = market_baselines(market)
        self._bases = np.array([opt, pess])[:, None, :]  # (2, 1, n)
        self._retain = frozenset(checkpoint_rounds(config.horizon, config.stride))
        self._cum = np.zeros((4, R, n))  # realized opt, pess; pseudo opt, pess
        self._stored = np.empty((len(self._retain), 4, R, n))  # _cum at each retained round
        self._kept = 0
        # RunRecorder.invalid: some firm truly worse than the best partner is listed above it
        self._best = np.array(best)[:, None]  # (n, 1)
        self._worse = self.agent_means < self.agent_means[self.agents, best][:, None]
        self._checks = frozenset(summary_checkpoints(config.horizon))
        self._invalid: list[np.ndarray] = []
        # first round of each replication's agent-perfect streak, 0 if none
        self._streak = np.zeros(R, dtype=np.int64)
        self._last = np.full((R, n), -2)  # no round yet
        # each replication's count of every invariant event, as RunRecorder's
        self.events = {name: np.zeros(R, dtype=np.int64) for name in INVARIANTS}

    def settle(self, t: int, firms: Sequence[np.ndarray], match: np.ndarray) -> None:
        """Round ``t`` after hiring: interviews, rewards of ``match`` (-1 for
        unmatched agents), regret and convergence. Each agent interviews its
        firm in each ``(R, n)`` array of ``firms`` (a firm index, never -1),
        in order, then its round-robin firm; a repeated firm is sampled
        twice. Hiring reads only round-start estimates, so the interviews are
        drawn and recorded after it, as in the engine."""
        R, n, sides = self.R, self.n, self.sides
        fs = np.empty((R, n, len(firms) + 1), dtype=np.intp)
        for slot, f in enumerate(firms):
            fs[..., slot] = f
        fs[..., -1] = self._rr[t % self.m]
        # Streams are independent, so drawing every replication's interviews
        # and then every replication's rewards keeps each stream's order.
        draws = chain.from_iterable(map(islice, self._streams, repeat(fs[0].size * sides)))
        interviews = np.fromiter(draws, float, fs.size * sides).reshape(-1, sides)
        idx = (self._a_flat + fs).ravel()  # in draw order: replication, agent, slot
        self.agent_est.record(idx, interviews[:, 0] < self._a_means[idx])
        if self.uncertain:
            idx = (self._f_flat + fs * n).ravel()
            self.firm_est.record(idx, interviews[:, 1] < self._f_means[idx])

        matched = match >= 0
        draws = chain.from_iterable(map(islice, self._streams, matched.sum(1).tolist()))
        drawn = np.ones((R, n))  # unmatched agents draw nothing; mean 0 gives them reward 0
        drawn[matched] = np.fromiter(draws, float)
        mean = self._matched_means[self.agents, match]
        cum = self._cum
        cum[:2] += self._bases - (drawn < mean).astype(float)
        cum[2:] += self._bases - mean
        if t in self._retain:
            self._stored[self._kept] = cum
            self._kept += 1
        if t in self._checks:
            lists = self.agent_est.lists()  # (R, n, m)
            above = (lists == self._best).cumsum(-1) == 0  # listed before the best partner
            self._invalid.append((above & self._worse[self.agents[:, None], lists]).any(-1))

        changed = match != self._last
        if changed.any():
            perfect = np.where(matched.all(1), t, 0)
            self._streak = np.where(changed.any(1), perfect, self._streak)
            self._last = match

    def outputs(self, phase_logs=None) -> Iterator[RepOutput]:
        """Each replication's :class:`RepOutput`, built one at a time as it
        is asked for: its rows a ``(retained, 4, n)`` view of the block's
        array, every other field in plain Python values."""
        counts = {name: values.tolist() for name, values in self.events.items()}
        invalid = np.array(self._invalid, dtype=int).transpose(1, 0, 2).tolist()  # (R, checks, n)
        streak, last = self._streak.tolist(), self._last.tolist()
        for i, rep in enumerate(self.reps):
            yield RepOutput(
                rep=rep,
                rows=self._stored[:, :, i],
                converged_round=streak[i] or None,
                final_matching=tuple(f if f >= 0 else None for f in last[i]),
                events={name: values[i] for name, values in counts.items()},
                invalid={t: tuple(flags) for t, flags in zip(sorted(self._checks), invalid[i])},
                phase_log=phase_logs[i] if phase_logs else [],
            )


class _FirmPolicy:
    """``firms.StrategicFirmPolicy`` for a block: every firm's clocks as
    ``(R, m, n)`` rejection rounds ``r`` and ``(R, m)`` vacancy rounds ``c``,
    stamped by :meth:`observe`."""

    def __init__(self, blk: _Block):
        R, n, m = blk.R, blk.n, blk.m
        self.uncertain, self.events = blk.uncertain, blk.events
        self.keys = (
            blk.firm_est.keys  # record updates it in place
            if blk.uncertain
            else np.broadcast_to(-blk.firm_means, (R, m, n))  # OracleEstimator's order
        )
        self.r = np.zeros((R, m, n), dtype=np.int64)
        self.c = np.zeros((R, m), dtype=np.int64)
        self._pool_rows = (blk.firm_rows + np.arange(m)) * n  # + agent: flat (R, m, n) index
        self._agents = blk.agents
        self._abstained = np.zeros((R, m), dtype=bool)

    def decide(self, pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each firm's best applicant under its keys, and whether it offers.

        ``pool`` is ``(R, m, n)``. A firm takes the first agent of its order
        that applied or, if it is uncertain, that it rejected (r >= 1) at or
        after its last vacancy (c); it abstains when that agent did not
        apply, and a firm without applicants does not offer."""
        offering = pool.any(-1)
        r, c = self.r, self.c
        heads = pool | ((r >= 1) & (r >= c[..., None])) if self.uncertain else pool
        best = np.where(heads, self.keys, np.inf).argmin(-1)  # (R, m)
        abstain = offering & ~pool.ravel()[self._pool_rows + best]
        if abstain.any():
            # RunRecorder counts a firm's abstention as consecutive when it
            # also abstained, from a nonempty pool, the round before; an
            # abstaining firm always has applicants, so that is the test
            self.events["gamma_zero_rounds"] += abstain.sum(1)
            self.events["consecutive_abstentions"] += (abstain & self._abstained).sum(1)
            offering &= ~abstain
        self._abstained = abstain
        return best, offering

    def observe(self, t: int, pool: np.ndarray, hold: np.ndarray) -> np.ndarray | None:
        """``StrategicFirmPolicy.observe`` for every firm, given its hire
        ``hold`` from its ``(R, m, n)`` ``pool`` (-1: none): stamps ``c`` where
        vacant and ``r`` for each applicant passed over, and returns those
        rejections as a mask, or None when each application was a hire."""
        vacant = hold < 0
        self.c[vacant] = t
        if np.count_nonzero(pool) == vacant.size - np.count_nonzero(vacant):
            return None
        rejected = pool & ~vacant[..., None] & (hold[..., None] != self._agents)
        self.r[rejected] = t
        return rejected


def _first_open(is_open, keys, blk, t, what):
    """Each agent's first ``is_open`` firm under ``keys``; raises if one has none."""
    nonempty = is_open.any(-1)
    if not nonempty.all():
        i, a = np.argwhere(~nonempty)[0]
        raise ProtocolError(f"replication {blk.reps[i]}: agent {a} has {what}", t)
    return np.where(is_open, keys, np.inf).argmin(-1)


def run_cia_block(config, market: Market, reps: Sequence[int]) -> Iterator[RepOutput]:
    """Replications ``reps`` of a Bernoulli ``cia`` config, run in lockstep."""
    blk = _Block(config, market, reps)
    R, n, m = blk.R, blk.n, blk.m
    if blk.uncertain:
        ranks = np.full((R, m, n), -1)  # no round yet
    else:  # OracleEstimator's lists never move
        order = [rank_order(row) for row in market.firm_means]
        ranks = np.broadcast_to(np.argsort(order, axis=-1), (R, m, n))
    lists = np.full((R, n, m), -1)
    rows = [None] * R  # each replication's match as a list, firm -1 for none

    for t in range(1, config.horizon + 1):
        # deferred acceptance is a function of both sides' lists, so a
        # replication whose lists equal last round's keeps last round's match
        prev_lists, lists = lists, blk.agent_est.lists()
        moved = (lists != prev_lists).reshape(R, -1).any(1)
        if blk.uncertain:
            prev_ranks, ranks = ranks, np.argsort(blk.firm_est.lists(), axis=-1)  # rank rows
            moved |= (ranks != prev_ranks).reshape(R, -1).any(1)
        # Deferred acceptance is injective, so every firm's pool holds at
        # most one applicant: firms never stamp a rejection clock and never
        # abstain, and each agent is hired by its assigned firm. The firm
        # clocks are skipped and no invariant event happens (V' holds
        # exactly the m - n unassigned firms, and V = V' | changed).
        redo = np.flatnonzero(moved)
        if redo.size:
            pick = redo if redo.size < R else slice(None)  # a slice copies nothing
            for i, prefs, rank in zip(redo.tolist(), lists[pick].tolist(), ranks[pick].tolist()):
                row = rows[i] = [-1] * n
                for f, a in enumerate(_deferred_acceptance(prefs, rank)):
                    if a is not None:
                        row[a] = f
                if -1 in row:
                    raise ProtocolError(
                        f"replication {blk.reps[i]}: agent {row.index(-1)} unmatched", t)
            match = np.array(rows)  # a new array: settle keeps last round's
        blk.settle(t, (match,), match)
    return blk.outputs()


def run_drr_block(config, market: Market, reps: Sequence[int]) -> Iterator[RepOutput]:
    """Replications ``reps`` of a Bernoulli ``drr`` config, run in lockstep.

    ``decentral.CoordinatedPolicy`` and ``firms.StrategicFirmPolicy`` as
    masks: each agent targets the first firm of its candidate set under its
    keys (the ``t_gs`` snapshot while updating, the live keys while
    committing), and each firm with applicants offers to the first of them
    under its keys, or abstains as ``StrategicFirmPolicy.decide`` does; the
    firm clocks follow :meth:`_FirmPolicy.observe`. Snapshots, commits,
    resets and phase-log rows are rare and handled per replication.
    """
    blk = _Block(config, market, reps)
    R, n, m = blk.R, blk.n, blk.m
    length = drr_phase_length(n)
    agents, firms = blk.agents, np.arange(m)[:, None]
    live = blk.agent_est.keys  # record updates it in place
    firm_policy = _FirmPolicy(blk)

    # agents: rejection clocks, keys frozen at t_gs, and what a commit fixes
    r = np.zeros((R, n, m), dtype=np.int64)
    snapshot = np.zeros((R, n, m))
    committed = np.zeros((R, n), dtype=np.intp)
    frozen = np.zeros((R, n, m), dtype=bool)
    rej_flag = np.zeros((R, n), dtype=bool)
    t_gs = np.ones(R, dtype=np.int64)
    committing = np.zeros(R, dtype=bool)  # rho
    snaps = {1: list(range(R))}  # round -> replications taking their snapshot
    commits = {1 + length: list(range(R))}  # round -> replications committing
    phase_logs = [[{"index": 0, "t_gs": 1, "triggers": "init", "committed": None}] for _ in reps]

    for t in range(1, config.horizon + 1):
        # one t_gs and one phase flag per replication, as in the scalar policy
        due = snaps.pop(t, None)
        if due:
            snapshot[due] = live[due]
        if committing.all():
            cand, keys = frozen, live
        else:
            updating = ~committing[:, None, None]
            cand = np.where(updating, r < t_gs[:, None, None], frozen)
            keys = np.where(updating, snapshot, live)
        choice = _first_open(cand, keys, blk, t, "an empty candidate set in coordinated phase")
        # committing agents self-trigger ("rej" before "inc") and abstain
        trigger = committing[:, None] & (rej_flag | (choice != committed))
        for i in commits.pop(t, ()):
            committing[i] = True
            committed[i] = choice[i]
            frozen[i] = cand[i]
            phase_logs[i][-1]["committed"] = choice[i].tolist()

        apply = ~trigger
        pool = apply[:, None, :] & (choice[:, None, :] == firms)  # (R, m, n)
        best, hired = firm_policy.decide(pool)  # one applicant each, so every offer is taken
        hold = np.where(hired, best, -1)
        rejected = firm_policy.observe(t, pool, hold)
        held = hold.ravel()[blk.firm_rows + choice]  # only an applicant can be held
        matched = held == agents
        match = np.where(matched, choice, -1)

        if not matched.all():
            # an applicant at a vacant firm raises rej_flag; one passed over takes r
            rej_flag |= apply & (held < 0)
            if rejected is not None:
                r[rejected.transpose(0, 2, 1)] = t
            # V' is the set of vacant firms, so |V'| > m - n iff an agent is
            # unmatched; resets come only once a phase has committed, so no
            # scheduled commit is pending
            vac = committing & ~matched.all(1) & ~trigger.all(1)
            for i in np.flatnonzero(trigger.any(1) | vac):
                # an abstaining agent applied nowhere: its rej_flag is the one it planned with
                kinds = {"rej" if flag else "inc" for flag in rej_flag[i][trigger[i]]}
                if vac[i]:
                    kinds.add("vac")
                # committed and frozen are rewritten at the next commit before any read
                committing[i] = False
                t_gs[i] = t + 1
                r[i] = 0
                rej_flag[i] = False
                snaps.setdefault(t + 1, []).append(i)
                commits.setdefault(t + 1 + length, []).append(i)
                log = phase_logs[i]
                log.append({"index": len(log), "t_gs": t + 1,
                            "triggers": "+".join(sorted(kinds)), "committed": None})

        blk.settle(t, (choice,), match)

    # V' is a subset of V and |V'| >= m - n by construction (each agent holds
    # at most one firm), drr expects collisions, its agents always keep a
    # candidate (or raise), and certain firms choose within their pools, so
    # they never abstain: those events never happen here
    return blk.outputs(phase_logs)


def run_eancdrr_block(config, market: Market, reps: Sequence[int]) -> Iterator[RepOutput]:
    """Replications ``reps`` of a Bernoulli ``eancdrr`` config, run in lockstep.

    ``decentral.ExtendedCoordinationFreePolicy`` and
    ``firms.StrategicFirmPolicy`` as masks: each agent targets the first firm
    under its live keys that never rejected it or was reopened since
    (``_best_open_firm``, which raises when there is none). In round 1 no
    agent has an anchor yet, so each applies to its target alone, the
    coordination-free rule. From round 2 every agent holds an anchor: one
    whose target is not its anchor probes with probability lambda, applying
    to the target and then the anchor, and otherwise applies to the anchor
    alone. Firms decide by :meth:`_FirmPolicy.decide`, an agent with two
    offers takes its first application's, and the feedback follows
    ``decentral._apply_v_events_then_rejections``.
    """
    blk = _Block(config, market, reps)
    R, n, m, lam = blk.R, blk.n, blk.m, config.lam
    agents, firm_ids = blk.agents, np.arange(m)
    firms = firm_ids[:, None]
    live = blk.agent_est.keys  # record updates it in place
    firm_policy = _FirmPolicy(blk)

    # agents: rejection clocks and reopened firms
    r = np.zeros((R, n, m), dtype=np.int64)
    reopened = np.zeros((R, n, m), dtype=bool)
    prev_hold = np.full((R, m), -1)  # the agent each firm held last round, -1: none

    for t in range(1, config.horizon + 1):
        target = _first_open((r == 0) | reopened, live, blk, t, "no open firm")
        if t == 1:  # no anchors yet: the target stands in, so no agent probes
            anchor, interviews = target, (target,)
        else:
            interviews = (target, anchor)
        # one lambda draw per agent whose target is not its anchor, in agent
        # order, from the replication's policy stream
        drawing = target != anchor
        probe = np.zeros((R, n), dtype=bool)
        if drawing.any():
            draws = chain.from_iterable(map(islice, blk.policy, drawing.sum(1).tolist()))
            probe[drawing] = np.fromiter(draws, float) < lam
        first = np.where(probe, target, anchor)  # then the anchor if probing
        second = np.where(probe, anchor, -1)
        pool = (first[:, None, :] == firms) | (second[:, None, :] == firms)  # (R, m, n)

        best, offering = firm_policy.decide(pool)
        offer = np.where(offering, best, -1).ravel()
        # acceptance by priority: an agent takes its first application's
        # offer, else its second's; an offer it declines leaves the firm vacant
        took_first = offer[blk.firm_rows + first] == agents
        took_second = probe & (offer[blk.firm_rows + anchor] == agents)
        match = np.where(took_first, first, np.where(took_second, anchor, -1))
        hold = np.where(offering & (match.ravel()[blk.agent_rows + best] == firm_ids), best, -1)

        # feedback: V' is the vacant firms, V adds those whose hire changed;
        # V events reopen firms first, then this round's rejections close them
        changed = (hold < 0) | (hold != prev_hold)
        reopened |= changed[:, None, :] & (r >= 1)
        rejected = firm_policy.observe(t, pool, hold)
        if rejected is not None:
            rejected = rejected.transpose(0, 2, 1)
            r[rejected] = t
            reopened[rejected] = False

        blk.settle(t, interviews, match)
        # the firm held, else the anchor kept (round 1: the target applied to)
        anchor = np.where(match >= 0, match, anchor)
        prev_hold = hold

    # V' is a subset of V and |V'| >= m - n by construction (each agent holds
    # at most one firm), collisions are counted for cia alone, agents always
    # keep an open firm (or raise), and certain firms choose within their
    # pools, so they never abstain: those events never happen here
    return blk.outputs()
