"""Lockstep ``cia``, ``drr`` and ``eancdrr`` blocks against the scalar engine,
replication by replication."""

import json
from contextlib import ExitStack
from dataclasses import asdict
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interview_markets import lockstep, runner
from interview_markets.config import ExperimentConfig, config_from_dict
from interview_markets.errors import ProtocolError
from interview_markets.lockstep import run_cia_block, run_drr_block, run_eancdrr_block
from interview_markets.market import Market, RewardModel
from interview_markets.metrics import INVARIANTS
from interview_markets.named_markets import named_example
from interview_markets.runner import run_experiment, run_market_replication


@st.composite
def markets(draw, crowded=False):
    """Small markets with strict preferences; means on a 0.05 grid, 0 and 1
    included. ``crowded`` also draws more agents than firms, as a plain
    namespace, since Market rejects those."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1 if crowded else n, 6))

    def rows(count, width):
        return tuple(
            tuple(x / 20 for x in draw(st.lists(st.integers(0, 20), min_size=width,
                                                max_size=width, unique=True)))
            for _ in range(count)
        )

    if m >= n:
        return Market(rows(n, m), rows(m, n))
    return SimpleNamespace(n=n, m=m, agent_means=rows(n, m), firm_means=rows(m, n),
                           reward_model=RewardModel())


BLOCKS = {"cia": run_cia_block, "drr": run_drr_block, "eancdrr": run_eancdrr_block}


def block_config(**fields):
    base = dict(algorithm="cia", horizon=40, replications=3, base_seed=1,
                market_example="coordfgs", firm_mode="uncertain", stride=10)
    if fields.get("algorithm") == "eancdrr":
        base["lam"] = 0.5
    return ExperimentConfig(**{**base, **fields})


# drr's phases last 3 n^2 rounds (48 for n = 4), so horizons up to 150 see
# commits and resets by every trigger, strategic abstentions included.
# eancdrr sees probes, declined offers, reopenings and abstentions there too;
# its empty candidate sets take more agents than firms (with m >= n a vacant
# firm reopens for every agent, and a held firm reopened when it hired), so
# its markets may be crowded, with baselines set by hand since
# market_baselines needs every agent matched.
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
    market = data.draw(markets(crowded=algorithm == "eancdrr"), label="market")
    config = block_config(algorithm=algorithm, horizon=horizon, replications=replications,
                          base_seed=base_seed, firm_mode=firm_mode, stride=stride,
                          lam=lam if algorithm == "eancdrr" else None)
    split = min(split, replications)
    blocks = [range(0, split)] + ([range(split, replications)] if split < replications else [])
    with ExitStack() as stack:
        if market.m < market.n:
            baselines = ((0.5,) * market.n, (0.4,) * market.n)
            for module in (lockstep, runner):
                stack.enter_context(
                    mock.patch.object(module, "market_baselines", lambda market: baselines)
                )
        outs = [out for block in blocks for out in BLOCKS[algorithm](config, market, block)]
        assert outs == [run_market_replication(config, market, rep)
                        for rep in range(replications)]


@pytest.mark.parametrize("algorithm", sorted(BLOCKS))
def test_outputs_are_python_values(algorithm):
    # numpy scalars would change CSV bytes (repr) or break json.dump
    config = block_config(algorithm=algorithm, horizon=120)
    for out in BLOCKS[algorithm](config, named_example("coordfgs"), range(2)):
        assert type(out.converged_round) is int
        assert all(type(f) is int for f in out.final_matching)
        assert all(type(x) is float for row in out.rows.values() for kind in row for x in kind)
        assert list(out.events) == list(INVARIANTS)
        assert all(type(count) is int for count in out.events.values())
        for entry in out.phase_log:
            assert type(entry["index"]) is int and type(entry["t_gs"]) is int
            assert all(type(f) is int for f in entry["committed"] or [])
        assert bool(out.phase_log) == (algorithm == "drr")
        json.dumps(asdict(out))


def test_unmatched_agent_is_a_protocol_error(monkeypatch):
    monkeypatch.setattr(lockstep, "_deferred_acceptance", lambda prefs, ranks: [None] * len(ranks))
    with pytest.raises(ProtocolError, match="round 1"):
        run_cia_block(block_config(), named_example("coordfgs"), range(2))


@pytest.mark.parametrize("engine, where", [
    (lambda config, market: run_drr_block(config, market, range(1, 3)), "replication 1: "),
    (lambda config, market: run_market_replication(config, market, 1), ""),
], ids=["lockstep", "scalar"])
def test_empty_candidate_set_is_a_protocol_error(monkeypatch, engine, where):
    # With m >= n a drr agent always keeps a candidate firm, so this takes a
    # market of two agents and one firm, which Market itself would reject:
    # the firm hires agent 0 in round 1, and agent 1 has no firm left.
    market = SimpleNamespace(n=2, m=1, agent_means=((0.5,), (0.4,)),
                             firm_means=((0.5, 0.4),), reward_model=RewardModel())
    for module in (lockstep, runner):
        monkeypatch.setattr(module, "market_baselines", lambda market: ((0.5, 0.4), (0.5, 0.4)))
    config = block_config(algorithm="drr", firm_mode="certain")
    message = f"round 2: {where}agent 1 has an empty candidate set in coordinated phase"
    with pytest.raises(ProtocolError, match=message):
        engine(config, market)


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


@pytest.mark.parametrize("algorithm", sorted(BLOCKS))
def test_uneven_worker_blocks_write_identical_artifacts(tmp_path, algorithm):
    extra = {"lambda": 0.5} if algorithm == "eancdrr" else {}
    config = config_from_dict(_raw(algorithm=algorithm, replications=5, **extra))
    run_experiment(config, out_dir=str(tmp_path / "one"), workers=1)
    run_experiment(config, out_dir=str(tmp_path / "two"), workers=2)  # blocks of 2 and 3
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
