"""Lockstep ``cia`` blocks against the scalar engine, replication by replication."""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interview_markets import lockstep, runner
from interview_markets.config import ExperimentConfig, config_from_dict
from interview_markets.errors import ProtocolError
from interview_markets.lockstep import run_cia_block
from interview_markets.market import Market
from interview_markets.named_markets import named_example
from interview_markets.runner import run_experiment, run_market_replication


@st.composite
def markets(draw):
    """Small markets with strict preferences; means on a 0.05 grid, 0 and 1 included."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 6))

    def rows(count, width):
        return tuple(
            tuple(x / 20 for x in draw(st.lists(st.integers(0, 20), min_size=width,
                                                max_size=width, unique=True)))
            for _ in range(count)
        )

    return Market(rows(n, m), rows(m, n))


def cia_config(**fields):
    base = dict(algorithm="cia", horizon=40, replications=3, base_seed=1,
                market_example="coordfgs", firm_mode="uncertain", stride=10)
    return ExperimentConfig(**{**base, **fields})


@settings(max_examples=80, deadline=None)
@given(
    market=markets(),
    firm_mode=st.sampled_from(["certain", "uncertain"]),
    horizon=st.integers(1, 80),
    replications=st.integers(1, 5),
    split=st.integers(1, 5),
    base_seed=st.integers(0, 10**6),
    stride=st.integers(1, 30),
)
def test_blocks_equal_scalar_replications(
    market, firm_mode, horizon, replications, split, base_seed, stride
):
    config = cia_config(horizon=horizon, replications=replications, base_seed=base_seed,
                        firm_mode=firm_mode, stride=stride)
    split = min(split, replications)
    blocks = [range(0, split)] + ([range(split, replications)] if split < replications else [])
    outs = [out for block in blocks for out in run_cia_block(config, market, block)]
    assert outs == [run_market_replication(config, market, rep) for rep in range(replications)]


def test_outputs_are_python_values():
    # numpy scalars would change CSV bytes (repr) or break json.dump
    for out in run_cia_block(cia_config(), named_example("coordfgs"), range(2)):
        assert type(out.converged_round) is int
        assert all(type(f) is int for f in out.final_matching)
        assert all(type(x) is float for row in out.rows.values() for kind in row for x in kind)
        assert all(type(getattr(out, name)) is int for name in (
            "collision_rounds", "vprime_size_violations", "gamma_zero_rounds"))
        json.dumps(asdict(out))


def test_unmatched_agent_is_a_protocol_error(monkeypatch):
    monkeypatch.setattr(lockstep, "_deferred_acceptance", lambda prefs, ranks: [None] * len(ranks))
    with pytest.raises(ProtocolError, match="round 1"):
        run_cia_block(cia_config(), named_example("coordfgs"), range(2))


def _raw(**overrides):
    raw = {"market": {"example": "coordfgs"}, "algorithm": "cia", "firm_mode": "uncertain",
           "horizon": 60, "replications": 2, "base_seed": 3, "stride": 20}
    raw.update(overrides)
    return raw


@pytest.mark.parametrize("overrides, scalar", [
    ({}, False),
    ({"firm_mode": "certain"}, False),
    ({"log_rounds": True}, True),
    ({"algorithm": "drr"}, True),
    ({"market": {"generator": {"n": 2, "m": 3, "min_gap": 0.2, "market_seed": 1,
                               "reward_kind": "gaussian"}}}, True),
])
def test_runner_picks_lockstep_for_bernoulli_cia_without_logs(
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


def test_uneven_worker_blocks_write_identical_artifacts(tmp_path):
    config = config_from_dict(_raw(replications=5))
    run_experiment(config, out_dir=str(tmp_path / "one"), workers=1)
    run_experiment(config, out_dir=str(tmp_path / "two"), workers=2)  # blocks of 2 and 3
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
