"""Experiment configuration: canonical JSON schema, loading, validation.

Schema (all unknown keys rejected)::

    {
      "market": {"example": "coordfgs"}            # or {"file": "market.json"}
                                                   # or {"generator": {...}}
                                                   # or {"arms": [0.9, 0.5, ...]}
      "algorithm": "cia",        # cia|drr|ancdrr|eancdrr|allprobe|eap|apem
      "firm_mode": "uncertain",  # certain|uncertain, market algorithms only
      "horizon": 50000,
      "replications": 50,
      "base_seed": 1,            # >= 0, as is market_seed
      "lambda": 0.5,             # required iff algorithm == eancdrr
      "epsilon": 0.1,            # allprobe/eap only
      "target_rank": 2,          # eap only, defaults to 1
      "reward_kind": "bernoulli",  # arms mode only
      "sigma": 0.1,                # arms mode only
      "out_dir": "out",          # optional non-empty string; env/flag can override
      "stride": 100,
      "log_rounds": false        # market algorithms only
    }

Generator params: n, m, min_gap, alpha_reducible (bool), reward_kind, sigma,
market_seed (defaults to base_seed). They must be feasible:
``1 <= n <= m`` and ``0 < min_gap`` with ``min_gap * m < 1``. A Gaussian
reward model, from any market source or arms, needs a finite ``sigma > 0``.

Integer fields take JSON numbers without a fractional part, real fields
(``min_gap``, ``sigma``, ``lambda``, ``epsilon``, arms) only finite JSON
numbers, and boolean fields only JSON booleans; anything else is a
``ConfigError`` naming the field, as is a market file that is missing or
malformed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError, MarketError
from .market import (
    Market,
    REWARD_KINDS,
    RewardModel,
    generate_alpha_reducible,
    generate_market,
    generator_param_error,
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
            market["generator"] = asdict(self.market_generator)
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


def _seed(fieldname: str, value) -> int:
    """An integer >= 0: ``random.Random(-k)`` repeats the stream of ``k``."""
    if _int(fieldname, value) < 0:
        _fail(fieldname, f"must be >= 0, got {value!r}")
    return int(value)


def _float(fieldname: str, value) -> float:
    """A finite JSON number; booleans, strings, null, NaN, infinities and
    integers too large for a float are not."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or beyond float range
        pass
    _fail(fieldname, f"must be a finite number, got {value!r}")


def _bool(fieldname: str, value) -> bool:
    if not isinstance(value, bool):
        _fail(fieldname, f"must be true or false, got {value!r}")
    return value


def _check_reward_model(fieldname: str, kind: str, sigma: float) -> None:
    """Check ``sigma`` with ``RewardModel``'s own rule, naming the field."""
    try:
        RewardModel(kind, sigma)
    except MarketError as exc:
        _fail(fieldname, str(exc))


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
        if not isinstance(source_value, str) or not source_value:
            _fail("market.file", f"must be a non-empty string, got {source_value!r}")
        market_file = source_value
        if base_dir is not None and not Path(market_file).is_absolute():
            market_file = str(base_dir / market_file)
        try:
            load_market(market_file)  # read once here to check it, again by build_market
        except FileNotFoundError:
            _fail("market.file", f"no such file: {market_file}")
        except OSError as exc:  # e.g. a directory, or a name too long for the file system
            _fail("market.file", f"cannot read {market_file!r}: {exc.strerror}")
        except ValueError as exc:  # a MarketError, or a name with a NUL byte
            _fail("market.file", str(exc))
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
                min_gap=_float("market.generator.min_gap", source_value["min_gap"]),
                alpha_reducible=_bool(
                    "market.generator.alpha_reducible",
                    source_value.get("alpha_reducible", True),
                ),
                reward_kind=source_value.get("reward_kind", "bernoulli"),
                sigma=_float("market.generator.sigma", source_value.get("sigma", 0.1)),
                market_seed=(
                    _seed("market.generator.market_seed", source_value["market_seed"])
                    if "market_seed" in source_value
                    else None
                ),
            )
        except KeyError as exc:
            _fail(f"market.generator.{exc.args[0]}", "missing required field")
        g = market_generator
        if g.reward_kind not in REWARD_KINDS:
            _fail("market.generator.reward_kind", f"must be one of {', '.join(REWARD_KINDS)}")
        _check_reward_model("market.generator.sigma", g.reward_kind, g.sigma)
        error = generator_param_error(g.n, g.m, g.min_gap)
        if error is not None:
            _fail(f"market.generator.{error[0]}", error[1])
    elif source_kind == "arms":
        if not isinstance(source_value, list) or len(source_value) < 2:
            _fail("market.arms", "must be a list of at least two means")
        arms = tuple(_float("market.arms", x) for x in source_value)
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

    for key in ("firm_mode", "log_rounds"):
        if key in raw and algorithm not in MARKET_ALGORITHMS:
            _fail(key, f"not applicable to algorithm {algorithm!r}")
    firm_mode = raw.get("firm_mode", "certain")
    if firm_mode not in ("certain", "uncertain"):
        _fail("firm_mode", "must be 'certain' or 'uncertain'")

    lam = None
    if algorithm == "eancdrr":
        if "lambda" not in raw:
            _fail("lambda", "required for the eancdrr algorithm")
        lam = _float("lambda", raw["lambda"])
        if not 0.0 < lam < 1.0:
            _fail("lambda", "must lie strictly between 0 and 1")
    elif "lambda" in raw:
        _fail("lambda", f"not applicable to algorithm {algorithm!r}")

    if "epsilon" in raw and algorithm not in ("allprobe", "eap"):
        _fail("epsilon", f"not applicable to algorithm {algorithm!r}")
    epsilon = _float("epsilon", raw.get("epsilon", 0.1))
    if epsilon < 0:
        _fail("epsilon", "must be >= 0")

    if "target_rank" in raw and algorithm != "eap":
        _fail("target_rank", f"not applicable to algorithm {algorithm!r}")
    target_rank = _int("target_rank", raw.get("target_rank", 1))
    if target_rank < 1:
        _fail("target_rank", "must be >= 1")

    if algorithm in BANDIT_ALGORITHMS:
        if arms is None and market_example is None and market_file is None and market_generator is None:
            _fail("market", "bandit algorithms need arms or a one-agent market")
    else:
        if arms is not None:
            _fail("market.arms", "market algorithms need a two-sided market, not arms")

    for key in ("reward_kind", "sigma"):
        if key in raw and arms is None:
            _fail(key, f"not applicable to market.{source_kind}, which has its own reward model")
    reward_kind = raw.get("reward_kind", "bernoulli")
    if reward_kind not in REWARD_KINDS:
        _fail("reward_kind", f"must be one of {', '.join(REWARD_KINDS)}")
    sigma = _float("sigma", raw.get("sigma", 0.1))
    _check_reward_model("sigma", reward_kind, sigma)
    out_dir = raw.get("out_dir")
    if "out_dir" in raw and (not isinstance(out_dir, str) or not out_dir):
        _fail("out_dir", f"must be a non-empty string, got {out_dir!r}")

    return ExperimentConfig(
        algorithm=algorithm,
        horizon=horizon,
        replications=replications,
        base_seed=_seed("base_seed", raw["base_seed"]),
        market_file=market_file,
        market_example=market_example,
        market_generator=market_generator,
        arms=arms,
        firm_mode=firm_mode,
        lam=lam,
        epsilon=epsilon,
        target_rank=target_rank,
        reward_kind=reward_kind,
        sigma=sigma,
        out_dir=out_dir,
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
    except ValueError as exc:  # not JSON, or not text
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
        means, model = config.arms, RewardModel(config.reward_kind, config.sigma)
    else:
        market = build_market(config)
        if market.n != 1:
            _fail("market", f"bandit algorithms need a 1-agent market or arms, got n={market.n}")
        means, model = market.agent_means[0], market.reward_model
    if config.algorithm == "eap" and config.target_rank >= len(means):
        _fail("target_rank", f"must be below the number of arms, {len(means)}")
    return means, model


def experiment_source(config: ExperimentConfig):
    """What the config runs on: a market algorithm's ``build_market``, or a
    bandit's ``bandit_arms``. ``run`` and ``validate`` both resolve it here."""
    return build_market(config) if config.algorithm in MARKET_ALGORITHMS else bandit_arms(config)
