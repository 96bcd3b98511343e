"""Lockstep ``cia``, ``drr`` and ``eancdrr`` blocks against the scalar engine,
replication by replication, and the scalar ``ancdrr`` on the same markets."""

import json
import tracemalloc
from dataclasses import asdict, replace
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interview_markets import lockstep, runner
from interview_markets.config import BANDIT_ALGORITHMS, ExperimentConfig, config_from_dict
from interview_markets.errors import ProtocolError
from interview_markets.firms import StrategicFirmPolicy
from interview_markets.lockstep import run_cia_block, run_drr_block, run_eancdrr_block
from interview_markets.market import Market, RewardModel
from interview_markets.metrics import INVARIANTS
from interview_markets.named_markets import named_example
from interview_markets.runner import run_experiment, run_market_replication


@st.composite
def markets(draw):
    """Small markets with strict preferences; means on a 0.05 grid, 0 and 1
    included."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 6))

    def rows(count, width):
        return tuple(
            tuple(x / 20 for x in draw(st.lists(st.integers(0, 20), min_size=width,
                                                max_size=width, unique=True)))
            for _ in range(count)
        )

    return Market(rows(n, m), rows(m, n))


BLOCKS = {"cia": run_cia_block, "drr": run_drr_block, "eancdrr": run_eancdrr_block}


def assert_same_outputs(outs, expected):
    """Equal records, their rows float64 arrays of one shape and bit for bit
    the same values."""
    assert len(outs) == len(expected)
    for out, ref in zip(outs, expected):
        assert out.rows.dtype == ref.rows.dtype == np.float64
        assert out.rows.shape == ref.rows.shape and out.rows.tobytes() == ref.rows.tobytes()
        assert replace(out, rows=None) == replace(ref, rows=None)


def block_config(**fields):
    base = dict(algorithm="cia", horizon=40, replications=3, base_seed=1,
                market_example="coordfgs", firm_mode="uncertain", stride=10)
    if fields.get("algorithm") == "eancdrr":
        base["lam"] = 0.5
    return ExperimentConfig(**{**base, **fields})


# drr's phases last 3 n^2 rounds (48 for n = 4), so horizons up to 150 see
# commits and resets by every trigger, strategic abstentions included.
# eancdrr sees probes, declined offers, reopenings and abstentions there too.
@pytest.mark.parametrize("algorithm", sorted(BLOCKS))
@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    firm_mode=st.sampled_from(["certain", "uncertain"]),
    horizon=st.integers(1, 150),
    replications=st.integers(1, 5),
    split=st.integers(1, 5),
    base_seed=st.integers(0, 10**6),
    stride=st.integers(1, 30),
    lam=st.floats(0, 1, exclude_min=True, exclude_max=True),
)
def test_blocks_equal_scalar_replications(
    algorithm, data, firm_mode, horizon, replications, split, base_seed, stride, lam
):
    market = data.draw(markets(), label="market")
    config = block_config(algorithm=algorithm, horizon=horizon, replications=replications,
                          base_seed=base_seed, firm_mode=firm_mode, stride=stride,
                          lam=lam if algorithm == "eancdrr" else None)
    split = min(split, replications)
    blocks = [range(0, split)] + ([range(split, replications)] if split < replications else [])
    outs = [out for block in blocks for out in BLOCKS[algorithm](config, market, block)]
    assert_same_outputs(outs, [run_market_replication(config, market, rep)
                               for rep in range(replications)])


# Every firm a block hands to settle is interviewed: cia's match, drr's
# choice, eancdrr's target and, from round 2, its anchor. None is -1, so
# settle draws every interview of every agent.
@pytest.mark.parametrize("algorithm", sorted(BLOCKS))
@settings(max_examples=60, deadline=None)
@given(
    market=markets(),
    firm_mode=st.sampled_from(["certain", "uncertain"]),
    horizon=st.integers(1, 150),
    base_seed=st.integers(0, 10**6),
)
def test_blocks_hand_settle_only_firms(algorithm, market, firm_mode, horizon, base_seed):
    config = block_config(algorithm=algorithm, horizon=horizon, base_seed=base_seed,
                          firm_mode=firm_mode)
    settle, rounds = lockstep._Block.settle, []

    def checked(blk, t, firms, match):
        assert firms and all(f.shape == match.shape and (f >= 0).all() for f in firms)
        rounds.append(t)
        settle(blk, t, firms, match)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lockstep._Block, "settle", checked)
        list(BLOCKS[algorithm](config, market, range(2)))
    assert rounds == list(range(1, horizon + 1))


def as_sets(mask):
    """An ``(R, owners, peers)`` mask as each owner's set of peers."""
    return [[set(np.flatnonzero(row).tolist()) for row in owners] for owners in mask]


# A block's firm feedback is the scalar one, firm by firm: over a few rounds
# of pools, each firm holding one of its applicants or no one, the passed
# mask holds the scalar passed sets in every replication (none for certain
# firms), and observe returns this round's passed-over applicants.
@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    market=markets(),
    firm_mode=st.sampled_from(["certain", "uncertain"]),
    replications=st.integers(1, 3),
    rounds=st.integers(1, 4),
)
def test_firm_policy_observe_equals_scalar_observe(data, market, firm_mode, replications, rounds):
    R, n, m = replications, market.n, market.m
    blk = lockstep._Block(block_config(firm_mode=firm_mode), market, range(R))
    block = lockstep._FirmPolicy(blk)
    scalar = [StrategicFirmPolicy(m, firm_mode) for _ in range(R)]
    for t in range(1, rounds + 1):
        cells = data.draw(st.lists(st.booleans(), min_size=R * m * n, max_size=R * m * n))
        pool = np.array(cells).reshape(R, m, n)
        applicants = [[np.flatnonzero(row).tolist() for row in firms] for firms in pool]
        hold = np.array([[data.draw(st.sampled_from([-1, *row])) for row in firms]
                         for firms in applicants])
        rejected = block.observe(pool, hold)
        for i, policy in enumerate(scalar):
            for f in range(m):
                hired = int(hold[i, f])
                policy.observe(f, applicants[i][f], hired if hired >= 0 else None)
        assert as_sets(block.passed) == [policy.passed for policy in scalar]
        if firm_mode == "certain":
            assert not block.passed.any()
        passed_over = [[{a for a in row if hold[i, f] not in (-1, a)}
                        for f, row in enumerate(firms)] for i, firms in enumerate(applicants)]
        if rejected is None:
            assert not any(chain.from_iterable(passed_over))
        else:
            assert as_sets(rejected) == passed_over


# ancdrr has no block to equal, so this checks only that its agents always
# keep an open firm on the markets Market accepts, as _best_open_firm argues.
@settings(max_examples=120, deadline=None)
@given(
    market=markets(),
    firm_mode=st.sampled_from(["certain", "uncertain"]),
    horizon=st.integers(1, 150),
    base_seed=st.integers(0, 10**6),
)
def test_scalar_ancdrr_always_has_an_open_firm(market, firm_mode, horizon, base_seed):
    config = block_config(algorithm="ancdrr", horizon=horizon, replications=1,
                          base_seed=base_seed, firm_mode=firm_mode)
    run_market_replication(config, market, 0)


@pytest.mark.parametrize("algorithm", sorted(BLOCKS))
def test_outputs_are_python_values(algorithm):
    # numpy scalars would change CSV bytes (repr) or break json.dump
    config = block_config(algorithm=algorithm, horizon=120)
    for out in BLOCKS[algorithm](config, named_example("coordfgs"), range(2)):
        assert type(out.converged_round) is int
        assert all(type(f) is int for f in out.final_matching)
        retained = runner.checkpoint_rounds(config.horizon, config.stride)
        assert out.rows.dtype == np.float64 and out.rows.shape == (len(retained), 4, 3)
        assert list(out.events) == list(INVARIANTS)
        assert all(type(count) is int for count in out.events.values())
        for entry in out.phase_log:
            assert type(entry["index"]) is int and type(entry["t_gs"]) is int
            assert all(type(f) is int for f in entry["committed"] or [])
        assert bool(out.phase_log) == (algorithm == "drr")
        json.dumps(asdict(replace(out, rows=None)))  # the rows are written by the runner


@pytest.mark.parametrize("firm_mode", ["certain", "uncertain"])
def test_cia_block_reruns_deferred_acceptance_only_where_lists_moved(monkeypatch, firm_mode):
    # over a long horizon both sides' lists settle, and a replication whose
    # lists equal last round's keeps its match without deferred acceptance
    calls, deferred_acceptance = [], lockstep._deferred_acceptance

    def counted(prefs, ranks):
        calls.append(1)
        return deferred_acceptance(prefs, ranks)

    monkeypatch.setattr(lockstep, "_deferred_acceptance", counted)
    config = block_config(horizon=1000, replications=4, firm_mode=firm_mode, stride=1)
    market = named_example("coordfgs")
    outs = list(run_cia_block(config, market, range(4)))
    assert 4 <= len(calls) < 4 * 1000 // 10
    assert_same_outputs(outs, [run_market_replication(config, market, rep) for rep in range(4)])


def test_unmatched_agent_is_a_protocol_error(monkeypatch):
    monkeypatch.setattr(lockstep, "_deferred_acceptance", lambda prefs, ranks: [None] * len(ranks))
    with pytest.raises(ProtocolError, match="round 1"):
        run_cia_block(block_config(), named_example("coordfgs"), range(2))


@pytest.mark.parametrize("algorithm, engine", [
    ("drr", "lockstep"), ("drr", "scalar"), ("eancdrr", "lockstep"), ("eancdrr", "scalar"),
    ("ancdrr", "scalar"),
])
def test_empty_candidate_set_is_a_protocol_error(monkeypatch, algorithm, engine):
    # With m >= n every agent always keeps a candidate firm, so this takes a
    # market of two agents and one firm, which Market itself would reject:
    # the firm hires agent 0 in round 1, and agent 1 has no firm left.
    market = SimpleNamespace(n=2, m=1, agent_means=((0.5,), (0.4,)),
                             firm_means=((0.5, 0.4),), reward_model=RewardModel())
    for module in (lockstep, runner):
        monkeypatch.setattr(module, "market_baselines",
                            lambda market: ((0, 0), (0.5, 0.4), (0.5, 0.4)))
    config = block_config(algorithm=algorithm, firm_mode="certain")
    where = "replication 1: " if engine == "lockstep" else ""
    reason = ("has an empty candidate set in coordinated phase" if algorithm == "drr"
              else "has no open firm")
    with pytest.raises(ProtocolError, match=f"round 2: {where}agent 1 {reason}"):
        if engine == "lockstep":
            BLOCKS[algorithm](config, market, range(1, 3))
        else:
            run_market_replication(config, market, 1)


def _raw(**overrides):
    raw = {"market": {"example": "coordfgs"}, "algorithm": "cia", "firm_mode": "uncertain",
           "horizon": 60, "replications": 2, "base_seed": 3, "stride": 20}
    raw.update(overrides)
    return raw


GAUSSIAN = {"generator": {"n": 2, "m": 3, "min_gap": 0.2, "market_seed": 1,
                          "reward_kind": "gaussian"}}


@pytest.mark.parametrize("overrides, scalar", [
    ({}, False),
    ({"firm_mode": "certain"}, False),
    ({"log_rounds": True}, True),
    ({"market": GAUSSIAN}, True),
    ({"algorithm": "drr"}, False),
    ({"algorithm": "drr", "firm_mode": "certain"}, False),
    ({"algorithm": "drr", "log_rounds": True}, True),
    ({"algorithm": "drr", "market": GAUSSIAN}, True),
    ({"algorithm": "ancdrr"}, True),
    ({"algorithm": "eancdrr", "lambda": 0.5}, False),
    ({"algorithm": "eancdrr", "lambda": 0.5, "firm_mode": "certain"}, False),
    ({"algorithm": "eancdrr", "lambda": 0.5, "log_rounds": True}, True),
    ({"algorithm": "eancdrr", "lambda": 0.5, "market": GAUSSIAN}, True),
])
def test_runner_picks_lockstep_for_bernoulli_cia_drr_and_eancdrr_without_logs(
    monkeypatch, tmp_path, overrides, scalar
):
    calls = []
    engine_run = runner.run_horizon

    def counted(*args, **kwargs):
        calls.append(1)
        return engine_run(*args, **kwargs)

    monkeypatch.setattr(runner, "run_horizon", counted)
    run_experiment(config_from_dict(_raw(**overrides)), out_dir=str(tmp_path))
    assert bool(calls) == scalar


# every config runs contiguous blocks of replications (one per worker in
# lockstep, one per replication otherwise): the lockstep engines, the scalar
# engine (with and without round logs), and the bandits on Bernoulli and
# truncated-Gaussian arms
UNEVEN_BLOCKS = {
    "cia": {},
    "drr": {"algorithm": "drr"},
    "eancdrr": {"algorithm": "eancdrr", "lambda": 0.5},
    "ancdrr": {"algorithm": "ancdrr"},
    "ancdrr-logged": {"algorithm": "ancdrr", "log_rounds": True, "stride": 7},
    "drr-gaussian": {"algorithm": "drr", "market": GAUSSIAN},
    "allprobe": {"algorithm": "allprobe", "market": {"arms": [0.9, 0.75, 0.6]}},
    "eap": {"algorithm": "eap", "market": {"arms": [0.9, 0.75, 0.6]}, "target_rank": 2,
            "reward_kind": "gaussian", "sigma": 0.1},
}


@pytest.mark.parametrize("case", list(UNEVEN_BLOCKS))
def test_uneven_worker_blocks_write_identical_artifacts(tmp_path, case):
    raw = _raw(replications=5, **UNEVEN_BLOCKS[case])
    if raw["algorithm"] in BANDIT_ALGORITHMS:
        del raw["firm_mode"]
    config = config_from_dict(raw)
    run_experiment(config, out_dir=str(tmp_path / "1"), workers=1)
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    for workers in (2, 3):  # blocks of 2 and 3, then of 1, 2 and 2
        out = tmp_path / str(workers)
        run_experiment(config, out_dir=str(out), workers=workers)
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_block_builds_one_replication_record_at_a_time(tmp_path):
    # 16 replications keeping every round of a 1000-round horizon: the
    # block's retained rows as Python tuples for all of them at once would
    # take about 19 MB; the stacked array and one record take under 4 MB
    config = config_from_dict(_raw(horizon=1000, replications=16, stride=1))
    tracemalloc.start()
    try:
        run_experiment(config, out_dir=str(tmp_path), workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_scalar_replication_keeps_its_rows_in_one_float_array(tmp_path):
    # two replications keeping every round of a 4000-round horizon on a 5x5
    # Gaussian market, which runs on the scalar engine: 4 x 5 regret values a
    # round take 0.64 MB at 8 bytes a value, about 3.5 MB as tuples of floats
    market = {"generator": {"n": 5, "m": 5, "min_gap": 0.1, "market_seed": 1,
                            "reward_kind": "gaussian"}}
    config = config_from_dict(_raw(market=market, algorithm="ancdrr", horizon=4000,
                                   replications=2, stride=1))
    assert not runner._runs_lockstep(config, runner.experiment_source(config))
    tracemalloc.start()
    try:
        run_experiment(config, out_dir=str(tmp_path), workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
