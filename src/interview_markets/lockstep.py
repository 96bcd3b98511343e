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
  agent in index order and each of its interviews (the firm it targets,
  then its anchor if it has one, then the round-robin firm), the agent-side
  draw and then, for uncertain firms, the firm-side draw; after those, one
  reward draw per matched agent in index order; from the policy stream,
  ``eancdrr``'s lambda draws in agent order;
- ``cia``'s deferred acceptance is ``market._deferred_acceptance`` itself;
- the ranking rule is ``estimation._sort_key`` (``market.rank_order`` for
  certain firms) as numpy keys: a stable argsort gives a ``pref_list``, and
  a masked ``argmin`` gives ``estimation.first_in`` over a candidate set,
  its first-occurrence rule breaking ties by index;
- convergence is ``engine.run_horizon``'s agent-perfect streak, and the
  retained rounds are ``runner.checkpoint_rounds``.

``engine.run_horizon`` is the reference; the runner sends only Bernoulli
``cia``, ``drr`` and ``eancdrr`` configs without per-round logs here.
``ancdrr`` stays scalar for now: the perfbench ``scale`` self-test needs one
scalar algorithm until the benchmark counts lockstep rounds (ROADMAP item 1).
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Sequence

import numpy as np

from .central import round_robin_firm
from .decentral import drr_phase_length
from .errors import ProtocolError
from .market import Market, _deferred_acceptance, rank_order
from .metrics import INVARIANTS
from .runner import RepOutput, checkpoint_rounds, market_baselines, replication_streams

class _Estimates:
    """Sums and counts of one side for a block, as flat ``(R, owners, peers)``
    arrays, with each pair's ranking key: minus its mean, or -inf while
    unobserved. A stable argsort of the keys, or an argmin over some of
    them, gives ``estimation._sort_key``'s order: unobserved peers first,
    then decreasing mean, ties by index."""

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


class _Block:
    """What every lockstep block keeps: each replication's reward stream,
    both sides' estimates, the regret sums, the convergence streaks and the
    invariant event counts."""

    def __init__(self, config, market: Market, reps: Sequence[int]):
        self.config, self.reps = config, list(reps)
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
        self._policy = [iter(policy.random, 2.0) for _, policy in streams]

        self.agents = np.arange(n)
        block = np.arange(R)
        self._a_flat = ((block[:, None] * n + self.agents) * m)[:, :, None]  # + firm
        self._f_flat = (block * (m * n))[:, None, None] + self.agents[:, None]  # + firm * n
        self._a_means = np.tile(self.agent_means.ravel(), R)  # at the same flat indices
        self._f_means = np.tile(self.firm_means.ravel(), R)
        self._matched_means = np.hstack([self.agent_means, np.zeros((n, 1))])  # firm -1: 0
        self.agent_est = _Estimates((R, n, m))
        self.firm_est = _Estimates((R, m, n))
        self._rr = [round_robin_firm(self.agents, t, m) for t in range(m)]  # by t mod m

        self._bases = np.array(market_baselines(market))[:, None, :]  # (2, 1, n): opt, pess
        self._retain = frozenset(checkpoint_rounds(config.horizon, config.stride))
        self._cum = np.zeros((4, R, n))  # realized opt, pess; pseudo opt, pess
        self._stored: list[np.ndarray] = []
        # first round of each replication's agent-perfect streak, 0 if none
        self._streak = np.zeros(R, dtype=np.int64)
        self._last = np.full((R, n), -2)  # no round yet
        # each replication's count of every invariant event, as RunRecorder's
        self.events = {name: np.zeros(R, dtype=np.int64) for name in INVARIANTS}

    def settle(self, t: int, targets: np.ndarray, match: np.ndarray, anchors=None) -> None:
        """Round ``t`` after hiring: interviews, rewards of ``match`` (-1 for
        unmatched agents), regret and convergence. Each agent interviews its
        target, then its anchor when ``anchors`` holds one (-1 for none),
        then its round-robin firm; a repeated firm is sampled twice. Hiring
        reads only round-start estimates, so the interviews are drawn and
        recorded after it, as in the engine."""
        R, n, sides = self.R, self.n, self.sides
        rr = self._rr[t % self.m]
        if anchors is None:
            fs = np.empty((R, n, 2), dtype=np.intp)
            fs[..., 0], fs[..., 1] = targets, rr
        else:
            fs = np.empty((R, n, 3), dtype=np.intp)
            fs[..., 0], fs[..., 1], fs[..., 2] = targets, anchors, rr
        used = fs >= 0
        every = used.all()
        counts = repeat(fs[0].size * sides) if every else (used.sum((1, 2)) * sides).tolist()
        total = fs.size * sides if every else sum(counts)
        # Streams are independent, so drawing every replication's interviews
        # and then every replication's rewards keeps each stream's order.
        draws = chain.from_iterable(map(islice, self._streams, counts))
        interviews = np.fromiter(draws, float, total).reshape(-1, sides)
        idx = self._a_flat + fs  # masked in draw order: replication, agent, slot
        idx = idx.ravel() if every else idx[used]
        self.agent_est.record(idx, interviews[:, 0] < self._a_means[idx])
        if self.uncertain:
            idx = self._f_flat + fs * n
            idx = idx.ravel() if every else idx[used]
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
            self._stored.append(cum.copy())

        changed = match != self._last
        if changed.any():
            perfect = np.where(matched.all(1), t, 0)
            self._streak = np.where(changed.any(1), perfect, self._streak)
            self._last = match

    def outputs(self, phase_logs=None) -> list[RepOutput]:
        """One :class:`RepOutput` per replication, in plain Python values."""
        marks = sorted(self._retain)
        rows = np.array(self._stored).transpose(2, 0, 1, 3).tolist()  # (R, marks, 4, n)
        counts = {name: values.tolist() for name, values in self.events.items()}
        streak, last = self._streak.tolist(), self._last.tolist()
        return [
            RepOutput(
                rep=rep,
                seed=self.config.base_seed + rep,
                rows={t: tuple(map(tuple, kinds)) for t, kinds in zip(marks, rows[i])},
                converged_round=streak[i] or None,
                final_matching=tuple(f if f >= 0 else None for f in last[i]),
                events={name: values[i] for name, values in counts.items()},
                phase_log=phase_logs[i] if phase_logs else [],
            )
            for i, rep in enumerate(self.reps)
        ]


class _FirmPolicy:
    """``firms.StrategicFirmPolicy`` for a block: every firm's clocks as
    ``(R, m, n)`` rejection rounds ``r`` and ``(R, m)`` vacancy rounds ``c``,
    which the caller stamps as ``StrategicFirmPolicy.observe`` does."""

    def __init__(self, blk: _Block):
        R, n, m = blk.R, blk.n, blk.m
        self.uncertain, self.events = blk.uncertain, blk.events
        self.keys = (
            blk.firm_est.keys.reshape(R, m, n)  # a view: record updates it in place
            if blk.uncertain
            else np.broadcast_to(-blk.firm_means, (R, m, n))  # OracleEstimator's order
        )
        self.r = np.zeros((R, m, n), dtype=np.int64)
        self.c = np.zeros((R, m), dtype=np.int64)
        self._pool_rows = np.arange(R * m).reshape(R, m) * n  # + agent: flat (R, m, n) index
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


def run_cia_block(config, market: Market, reps: Sequence[int]) -> list[RepOutput]:
    """Replications ``reps`` of a Bernoulli ``cia`` config, run in lockstep."""
    blk = _Block(config, market, reps)
    if not blk.uncertain:  # OracleEstimator's lists never move
        order = [rank_order(row) for row in market.firm_means]
        f_ranks = [np.argsort(order, axis=-1).tolist()] * blk.R

    for t in range(1, config.horizon + 1):
        a_lists = blk.agent_est.lists().tolist()
        if blk.uncertain:
            f_ranks = np.argsort(blk.firm_est.lists(), axis=-1).tolist()  # rank rows
        # Deferred acceptance is injective, so every firm's pool holds at
        # most one applicant: firms never stamp a rejection clock and never
        # abstain, and each agent is hired by its assigned firm. The firm
        # clocks are skipped and no invariant event happens (V' holds
        # exactly the m - n unassigned firms, and V = V' | changed).
        rows = []
        for i, rep in enumerate(blk.reps):
            row = [-1] * blk.n
            for f, a in enumerate(_deferred_acceptance(a_lists[i], f_ranks[i])):
                if a is not None:
                    row[a] = f
            if -1 in row:
                raise ProtocolError(f"replication {rep}: agent {row.index(-1)} unmatched", t)
            rows.append(row)
        match = np.array(rows)
        blk.settle(t, match, match)
    return blk.outputs()


def run_drr_block(config, market: Market, reps: Sequence[int]) -> list[RepOutput]:
    """Replications ``reps`` of a Bernoulli ``drr`` config, run in lockstep.

    ``decentral.CoordinatedPolicy`` and ``firms.StrategicFirmPolicy`` as
    masks: each agent targets the first firm of its candidate set under its
    keys (the ``t_gs`` snapshot while updating, the live keys while
    committing), and each firm with applicants offers to the first of them
    under its keys, or abstains as ``StrategicFirmPolicy.decide`` does; the
    firm clocks follow ``StrategicFirmPolicy.observe``. Snapshots, commits,
    resets and phase-log rows are rare and handled per replication.
    """
    blk = _Block(config, market, reps)
    R, n, m = blk.R, blk.n, blk.m
    length = drr_phase_length(n)
    agents, firms = blk.agents, np.arange(m)[:, None]
    firm_rows = np.arange(R)[:, None] * m  # + firm: flat (R, m) index
    live = blk.agent_est.keys.reshape(R, n, m)  # a view: record updates it in place
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
            nonempty = cand.any(-1)
            if not nonempty.all():
                i, a = np.argwhere(~nonempty)[0]
                raise ProtocolError(
                    f"replication {blk.reps[i]}: agent {a} has an empty candidate set"
                    " in coordinated phase", t
                )
            keys = np.where(updating, snapshot, live)
        choice = np.where(cand, keys, np.inf).argmin(-1)  # (R, n)
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
        firm_policy.c[~hired] = t
        at_choice = firm_rows + choice
        matched = apply & (np.where(hired, best, -1).ravel()[at_choice] == agents)
        match = np.where(matched, choice, -1)

        if not matched.all():
            # an applicant passed over for another hire stamps both sides' r;
            # one whose firm stayed vacant raises its rej_flag
            lost = apply & ~matched
            vacant = ~hired.ravel()[at_choice]
            rej_flag |= lost & vacant
            i, a = np.nonzero(lost & ~vacant)
            f = choice[i, a]
            r[i, a, f] = t
            firm_policy.r[i, f, a] = t
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

        blk.settle(t, choice, match)

    # V' is a subset of V and |V'| >= m - n by construction (each agent holds
    # at most one firm), drr expects collisions, its agents always keep a
    # candidate (or raise), and certain firms choose within their pools, so
    # they never abstain: those events never happen here
    return blk.outputs(phase_logs)


def run_eancdrr_block(config, market: Market, reps: Sequence[int]) -> list[RepOutput]:
    """Replications ``reps`` of a Bernoulli ``eancdrr`` config, run in lockstep.

    ``decentral.ExtendedCoordinationFreePolicy`` and
    ``firms.StrategicFirmPolicy`` as masks: each agent targets the first firm
    under its live keys that never rejected it or was reopened since
    (``_best_open_firm``), falling back to its anchor, else its round-robin
    firm; an anchored agent whose target is not its anchor probes with
    probability lambda, applying to the target and then the anchor, and
    otherwise applies to the anchor alone. Firms decide by
    :meth:`_FirmPolicy.decide`, an agent with two offers takes its first
    application's, and the feedback follows
    ``decentral._apply_v_events_then_rejections``.
    """
    blk = _Block(config, market, reps)
    R, n, m, lam = blk.R, blk.n, blk.m, config.lam
    agents, firm_ids = blk.agents, np.arange(m)
    firms = firm_ids[:, None]
    firm_rows = np.arange(R)[:, None] * m  # + firm: flat (R, m) index
    agent_rows = np.arange(R)[:, None] * n  # + agent: flat (R, n) index
    live = blk.agent_est.keys.reshape(R, n, m)  # a view: record updates it in place
    firm_policy = _FirmPolicy(blk)
    fr_flat = firm_policy.r.reshape(-1)  # a view

    # agents: rejection clocks, reopened firms and anchors (-1: none yet)
    r = np.zeros((R, n, m), dtype=np.int64)
    reopened = np.zeros((R, n, m), dtype=bool)
    r_flat, reopened_flat = r.reshape(-1), reopened.reshape(-1)  # views
    pair_rows = blk._a_flat[..., 0]  # + firm: flat (R, n, m) index
    anchor = np.full((R, n), -1)
    prev_hold = np.full((R, m), -1)  # the agent each firm held last round, -1: none

    for t in range(1, config.horizon + 1):
        is_open = (r == 0) | reopened
        target = np.where(is_open, live, np.inf).argmin(-1)  # (R, n)
        empty = ~is_open.any(-1)
        if empty.any():
            blk.events["empty_candidate_anomalies"] += empty.sum(1)
            fallback = np.where(anchor >= 0, anchor, blk._rr[t % m])
            target = np.where(empty, fallback, target)
        anchored = anchor >= 0
        # one lambda draw per anchored agent whose target is not its anchor,
        # in agent order, from the replication's policy stream
        drawing = anchored & (target != anchor)
        probe = np.zeros((R, n), dtype=bool)
        if drawing.any():
            draws = chain.from_iterable(map(islice, blk._policy, drawing.sum(1).tolist()))
            probe[drawing] = np.fromiter(draws, float) < lam
        first = np.where(anchored & ~probe, anchor, target)  # then the anchor if probing
        second = np.where(probe, anchor, -1)
        pool = (first[:, None, :] == firms) | (second[:, None, :] == firms)  # (R, m, n)

        best, offering = firm_policy.decide(pool)
        offer = np.where(offering, best, -1).ravel()
        # acceptance by priority: an agent takes its first application's
        # offer, else its second's; an offer it declines leaves the firm vacant
        took_first = offer[firm_rows + first] == agents
        took_second = probe & (offer[firm_rows + anchor] == agents)
        match = np.where(took_first, first, np.where(took_second, anchor, -1))
        hold = np.where(offering & (match.ravel()[agent_rows + best] == firm_ids), best, -1)

        # feedback: V' is the vacant firms, V adds those whose hire changed
        vacant = hold < 0
        changed = vacant | (hold != prev_hold)
        firm_policy.c[vacant] = t  # an empty pool, an abstention or a declined offer
        # V events reopen firms first, then this round's rejections close
        # them again. A firm hiring someone else rejects each applicant it
        # passed over, which stamps r on both sides; a vacant firm rejects
        # no one, and a hire from a one-applicant pool passes no one over.
        reopened |= changed[:, None, :] & (r >= 1)
        held = hold.ravel()
        for f, applied in ((first, True), (anchor, probe)):
            h = held[firm_rows + f]
            rejected = applied & (h >= 0) & (h != agents)
            if rejected.any():
                idx = (pair_rows + f)[rejected]
                r_flat[idx] = t
                reopened_flat[idx] = False
                fr_flat[((firm_rows + f) * n + agents)[rejected]] = t

        blk.settle(t, target, match, anchor)
        # anchor: the firm held, else (first round) the firm first applied to
        anchor = np.where(match >= 0, match, np.where(anchored, anchor, first))
        prev_hold = hold

    # V' is a subset of V and |V'| >= m - n by construction (each agent holds
    # at most one firm), collisions are counted for cia alone, and certain
    # firms choose within their pools, so they never abstain: those events
    # never happen here
    return blk.outputs()
