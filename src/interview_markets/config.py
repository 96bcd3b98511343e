"""Experiment configuration: canonical JSON schema, loading, validation.

Schema (all unknown keys rejected)::

    {
      "market": {"example": "coordfgs"}            # or {"file": "market.json"}
                                                   # or {"generator": {...}}
                                                   # or {"arms": [0.9, 0.5, ...]}
      "algorithm": "cia",        # cia|drr|ancdrr|eancdrr|allprobe|eap|apem
      "firm_mode": "uncertain",  # certain|uncertain (market algorithms)
      "horizon": 50000,
      "replications": 50,
      "base_seed": 1,
      "lambda": 0.5,             # required iff algorithm == eancdrr
      "epsilon": 0.1,            # allprobe/eap only
      "target_rank": 2,          # eap only, defaults to 1
      "reward_kind": "bernoulli",  # arms mode only
      "sigma": 0.1,
      "out_dir": "out",          # optional; env/flag can override
      "stride": 100,
      "log_rounds": false
    }

Generator params: n, m, min_gap, alpha_reducible (bool), reward_kind, sigma,
market_seed (defaults to base_seed).

Integer fields take JSON numbers without a fractional part and boolean
fields only JSON booleans; anything else is a ``ConfigError`` naming the field.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .market import (
    Market,
    REWARD_KINDS,
    RewardModel,
    generate_alpha_reducible,
    generate_market,
    load_market,
)
from .named_markets import EXAMPLE_NAMES, named_example

MARKET_ALGORITHMS = ("cia", "drr", "ancdrr", "eancdrr")
BANDIT_ALGORITHMS = ("allprobe", "eap", "apem")
ALGORITHMS = MARKET_ALGORITHMS + BANDIT_ALGORITHMS

_TOP_KEYS = {
    "market",
    "algorithm",
    "firm_mode",
    "horizon",
    "replications",
    "base_seed",
    "lambda",
    "epsilon",
    "target_rank",
    "reward_kind",
    "sigma",
    "out_dir",
    "stride",
    "log_rounds",
}
_GENERATOR_KEYS = {"n", "m", "min_gap", "alpha_reducible", "reward_kind", "sigma", "market_seed"}


@dataclass(frozen=True)
class GeneratorParams:
    n: int
    m: int
    min_gap: float
    alpha_reducible: bool = True
    reward_kind: str = "bernoulli"
    sigma: float = 0.1
    market_seed: Optional[int] = None


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    horizon: int
    replications: int
    base_seed: int
    market_file: Optional[str] = None
    market_example: Optional[str] = None
    market_generator: Optional[GeneratorParams] = None
    arms: Optional[tuple[float, ...]] = None
    firm_mode: str = "certain"
    lam: Optional[float] = None
    epsilon: float = 0.1
    target_rank: int = 1
    reward_kind: str = "bernoulli"
    sigma: float = 0.1
    out_dir: Optional[str] = None
    stride: int = 100
    log_rounds: bool = False

    def canonical_dict(self) -> dict:
        """Semantic fields only, in a stable shape, for hashing/manifests."""
        market: dict = {}
        if self.market_file is not None:
            market["file"] = self.market_file
        if self.market_example is not None:
            market["example"] = self.market_example
        if self.market_generator is not None:
            g = self.market_generator
            market["generator"] = {
                "n": g.n,
                "m": g.m,
                "min_gap": g.min_gap,
                "alpha_reducible": g.alpha_reducible,
                "reward_kind": g.reward_kind,
                "sigma": g.sigma,
                "market_seed": g.market_seed,
            }
        if self.arms is not None:
            market["arms"] = list(self.arms)
        d = {
            "market": market,
            "algorithm": self.algorithm,
            "horizon": self.horizon,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "stride": self.stride,
            "log_rounds": self.log_rounds,
        }
        if self.algorithm in MARKET_ALGORITHMS:
            d["firm_mode"] = self.firm_mode
        if self.algorithm == "eancdrr":
            d["lambda"] = self.lam
        if self.algorithm in ("allprobe", "eap"):
            d["epsilon"] = self.epsilon
        if self.algorithm == "eap":
            d["target_rank"] = self.target_rank
        if self.arms is not None:
            d["reward_kind"] = self.reward_kind
            if self.reward_kind == "gaussian":
                d["sigma"] = self.sigma
        return d


def _fail(fieldname: str, message: str):
    raise ConfigError(f"config field {fieldname!r}: {message}")


def _int(fieldname: str, value) -> int:
    """A JSON number with no fractional part; booleans are not integers."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        _fail(fieldname, f"must be an integer, got {value!r}")
    return int(value)


def _bool(fieldname: str, value) -> bool:
    if not isinstance(value, bool):
        _fail(fieldname, f"must be true or false, got {value!r}")
    return value


def config_from_dict(raw: dict, base_dir: Optional[Path] = None) -> ExperimentConfig:
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        _fail(sorted(unknown)[0], "unknown field")
    for req in ("market", "algorithm", "horizon", "replications", "base_seed"):
        if req not in raw:
            _fail(req, "missing required field")

    algorithm = raw["algorithm"]
    if algorithm not in ALGORITHMS:
        _fail("algorithm", f"must be one of {', '.join(ALGORITHMS)}")

    market_raw = raw["market"]
    if not isinstance(market_raw, dict) or len(market_raw) != 1:
        _fail("market", "must be an object with exactly one of file/example/generator/arms")
    (source_kind, source_value), = market_raw.items()

    market_file = market_example = None
    market_generator = None
    arms = None
    if source_kind == "file":
        market_file = str(source_value)
        if base_dir is not None and not Path(market_file).is_absolute():
            market_file = str(base_dir / market_file)
    elif source_kind == "example":
        if source_value not in EXAMPLE_NAMES:
            _fail(
                "market.example",
                f"unknown example {source_value!r}; known names: {', '.join(EXAMPLE_NAMES)}",
            )
        market_example = source_value
    elif source_kind == "generator":
        if not isinstance(source_value, dict):
            _fail("market.generator", "must be an object")
        bad = set(source_value) - _GENERATOR_KEYS
        if bad:
            _fail(f"market.generator.{sorted(bad)[0]}", "unknown field")
        try:
            market_generator = GeneratorParams(
                n=_int("market.generator.n", source_value["n"]),
                m=_int("market.generator.m", source_value["m"]),
                min_gap=float(source_value["min_gap"]),
                alpha_reducible=_bool(
                    "market.generator.alpha_reducible",
                    source_value.get("alpha_reducible", True),
                ),
                reward_kind=source_value.get("reward_kind", "bernoulli"),
                sigma=float(source_value.get("sigma", 0.1)),
                market_seed=(
                    _int("market.generator.market_seed", source_value["market_seed"])
                    if "market_seed" in source_value
                    else None
                ),
            )
        except KeyError as exc:
            _fail(f"market.generator.{exc.args[0]}", "missing required field")
        if market_generator.reward_kind not in REWARD_KINDS:
            _fail("market.generator.reward_kind", f"must be one of {', '.join(REWARD_KINDS)}")
    elif source_kind == "arms":
        if not isinstance(source_value, list) or len(source_value) < 2:
            _fail("market.arms", "must be a list of at least two means")
        arms = tuple(float(x) for x in source_value)
        for x in arms:
            if not 0.0 <= x <= 1.0:
                _fail("market.arms", f"mean {x} outside [0, 1]")
    else:
        _fail("market", f"unknown source kind {source_kind!r}")

    horizon = _int("horizon", raw["horizon"])
    if horizon < 1:
        _fail("horizon", "must be >= 1")
    replications = _int("replications", raw["replications"])
    if replications < 1:
        _fail("replications", "must be >= 1")
    stride = _int("stride", raw.get("stride", 100))
    if stride < 1:
        _fail("stride", "must be >= 1")

    firm_mode = raw.get("firm_mode", "certain")
    if firm_mode not in ("certain", "uncertain"):
        _fail("firm_mode", "must be 'certain' or 'uncertain'")

    lam = raw.get("lambda")
    if algorithm == "eancdrr":
        if lam is None:
            _fail("lambda", "required for the eancdrr algorithm")
        lam = float(lam)
        if not 0.0 < lam < 1.0:
            _fail("lambda", "must lie strictly between 0 and 1")
    elif lam is not None:
        _fail("lambda", f"not applicable to algorithm {algorithm!r}")

    epsilon = raw.get("epsilon")
    if epsilon is not None and algorithm not in ("allprobe", "eap"):
        _fail("epsilon", f"not applicable to algorithm {algorithm!r}")
    epsilon = 0.1 if epsilon is None else float(epsilon)
    if epsilon < 0:
        _fail("epsilon", "must be >= 0")

    target_rank = raw.get("target_rank")
    if target_rank is not None and algorithm != "eap":
        _fail("target_rank", f"not applicable to algorithm {algorithm!r}")
    target_rank = 1 if target_rank is None else _int("target_rank", target_rank)

    if algorithm in BANDIT_ALGORITHMS:
        if arms is None and market_example is None and market_file is None and market_generator is None:
            _fail("market", "bandit algorithms need arms or a one-agent market")
    else:
        if arms is not None:
            _fail("market.arms", "market algorithms need a two-sided market, not arms")

    reward_kind = raw.get("reward_kind", "bernoulli")
    if reward_kind not in REWARD_KINDS:
        _fail("reward_kind", f"must be one of {', '.join(REWARD_KINDS)}")

    return ExperimentConfig(
        algorithm=algorithm,
        horizon=horizon,
        replications=replications,
        base_seed=_int("base_seed", raw["base_seed"]),
        market_file=market_file,
        market_example=market_example,
        market_generator=market_generator,
        arms=arms,
        firm_mode=firm_mode,
        lam=lam,
        epsilon=epsilon,
        target_rank=target_rank,
        reward_kind=reward_kind,
        sigma=float(raw.get("sigma", 0.1)),
        out_dir=raw.get("out_dir"),
        stride=stride,
        log_rounds=_bool("log_rounds", raw.get("log_rounds", False)),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw, base_dir=path.parent)


def build_market(config: ExperimentConfig) -> Market:
    """Materialize the experiment's two-sided market."""
    if config.arms is not None:
        raise ConfigError("arms configs have no two-sided market; use bandit_arms()")
    if config.market_file is not None:
        return load_market(config.market_file)
    if config.market_example is not None:
        return named_example(config.market_example)
    if config.market_generator is not None:
        g = config.market_generator
        seed = g.market_seed if g.market_seed is not None else config.base_seed
        rng = random.Random(seed)
        make = generate_alpha_reducible if g.alpha_reducible else generate_market
        return make(g.n, g.m, g.min_gap, rng, g.reward_kind, g.sigma)
    raise ConfigError("config has no market source")


def bandit_arms(config: ExperimentConfig) -> tuple[tuple[float, ...], RewardModel]:
    """Arm means and reward model for the single-learner algorithms.

    Accepts either an explicit arms list (duplicate means allowed) or a
    one-agent market source whose agent row supplies the means.
    """
    if config.arms is not None:
        return config.arms, RewardModel(config.reward_kind, config.sigma)
    market = build_market(config)
    if market.n != 1:
        raise ConfigError(
            f"bandit algorithms need a 1-agent market or arms, got n={market.n}"
        )
    return market.agent_means[0], market.reward_model
