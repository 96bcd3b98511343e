"""Experiment configuration: loading, validation, canonical JSON.

A config is a JSON object with a ``market`` source (exactly one of
``file``, ``example``, ``generator`` or ``arms``), an ``algorithm``, and the
fields of ``_FIELDS``; a generator takes the fields of ``_GENERATOR_FIELDS``.
Each row of these two tables gives a field's parser, its range check,
whether it is required, and the algorithms or source kinds it applies to.
Parsing, the "not applicable" errors and ``canonical_dict`` all read them;
the defaults are those of ``ExperimentConfig`` and ``GeneratorParams``.
README.md's "Config schema" block documents the same fields, and a test
keeps the two in step. An unknown key, a value of the wrong type or out of
range, or a market file that is missing or malformed is a ``ConfigError``
naming the field.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

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
        """Semantic fields only, in a stable shape, for hashing/manifests:
        the market source and each field of ``_FIELDS`` that applies, but
        not ``out_dir``. ``sigma`` counts only for a Gaussian model, and
        ``log_rounds`` is always written, so bandit configs, which reject
        it, hash it as false."""
        market: dict = {}
        if self.market_file is not None:
            market["file"] = self.market_file
        if self.market_example is not None:
            market["example"] = self.market_example
        if self.market_generator is not None:
            market["generator"] = asdict(self.market_generator)
        if self.arms is not None:
            market["arms"] = list(self.arms)
        kind = next(iter(market), None)
        d = {"market": market, "algorithm": self.algorithm, "log_rounds": self.log_rounds}
        for f in _FIELDS:
            if f.applies_to(self.algorithm, kind) and f.key != "out_dir":
                if f.key != "sigma" or self.reward_kind == "gaussian":
                    d[f.key] = getattr(self, f.attr or f.key)
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


def _text(fieldname: str, value) -> str:
    if not isinstance(value, str) or not value:
        _fail(fieldname, f"must be a non-empty string, got {value!r}")
    return value


def _choice(choices: tuple[str, ...], message: str = ""):
    def parse(fieldname: str, value) -> str:
        if value not in choices:
            _fail(fieldname, message or f"must be one of {', '.join(choices)}")
        return value

    return parse


def _at_least(low: int):
    return lambda value: None if value >= low else f"must be >= {low}"


@dataclass(frozen=True)
class _Field:
    """One config key. ``parse(fieldname, value)`` returns the value or fails
    naming the field; ``check(value)`` returns what is wrong with the parsed
    value, or None. A field whose ``applies`` names algorithms or source
    kinds must be absent for every other one."""

    key: str
    parse: Callable
    check: Callable = lambda value: None
    applies: tuple[str, ...] = ()  # empty: every algorithm and source kind
    required: bool = False  # else absent means the dataclass default
    attr: str = ""  # the dataclass attribute, when it is not ``key``

    def applies_to(self, algorithm: str, kind: Optional[str]) -> bool:
        return not self.applies or algorithm in self.applies or kind in self.applies


# Each table lists its fields in the order they are checked, which decides
# the field that a config with several faults names.
_FIELDS = (
    _Field("horizon", _int, _at_least(1), required=True),
    _Field("replications", _int, _at_least(1), required=True),
    _Field("stride", _int, _at_least(1)),
    _Field(
        "firm_mode",
        _choice(("certain", "uncertain"), "must be 'certain' or 'uncertain'"),
        applies=MARKET_ALGORITHMS,
    ),
    _Field(
        "lambda",
        _float,
        lambda lam: None if 0.0 < lam < 1.0 else "must lie strictly between 0 and 1",
        applies=("eancdrr",),
        required=True,
        attr="lam",
    ),
    _Field("epsilon", _float, _at_least(0), applies=("allprobe", "eap")),
    _Field("target_rank", _int, _at_least(1), applies=("eap",)),
    _Field("reward_kind", _choice(REWARD_KINDS), applies=("arms",)),
    _Field("sigma", _float, applies=("arms",)),  # with reward_kind, checked by RewardModel
    _Field("out_dir", _text),
    _Field("base_seed", _seed, required=True),
    _Field("log_rounds", _bool, applies=MARKET_ALGORITHMS),
)
_GENERATOR_FIELDS = (
    _Field("n", _int, required=True),
    _Field("m", _int, required=True),
    _Field("min_gap", _float, required=True),
    _Field("alpha_reducible", _bool),
    _Field("sigma", _float),
    _Field("market_seed", _seed),  # absent: base_seed
    _Field("reward_kind", _choice(REWARD_KINDS)),
)
_TOP_KEYS = {"market", "algorithm"} | {f.key for f in _FIELDS}
_GENERATOR_KEYS = {f.key for f in _GENERATOR_FIELDS}


def _parse_fields(fields, raw: dict, prefix: str, algorithm: str = "", kind: str = "") -> dict:
    """The parsed value of each field given in ``raw``, by attribute name;
    a field that does not apply must be absent, a required one present."""
    values = {}
    for f in fields:
        name = prefix + f.key
        if not f.applies_to(algorithm, kind):
            if f.key in raw and f.applies[0] in ALGORITHMS:
                _fail(name, f"not applicable to algorithm {algorithm!r}")
            if f.key in raw:
                _fail(name, f"not applicable to market.{kind}, which has its own reward model")
        elif f.key in raw:
            values[f.attr or f.key] = value = f.parse(name, raw[f.key])
            problem = f.check(value)
            if problem is not None:
                _fail(name, problem)
        elif f.required and f.applies:
            _fail(name, f"required for the {algorithm} algorithm")
        elif f.required:
            _fail(name, "missing required field")
    return values


def _check_reward_model(fieldname: str, kind: str, sigma: float) -> None:
    """Check ``sigma`` with ``RewardModel``'s own rule, naming the field."""
    try:
        RewardModel(kind, sigma)
    except MarketError as exc:
        _fail(fieldname, str(exc))


def _market_source(market, base_dir: Optional[Path]) -> tuple[str, dict]:
    """The source kind and the ``ExperimentConfig`` attribute that holds it:
    a market file's path (loaded once here to check it, again by
    ``build_market``), an example name, ``GeneratorParams`` or arm means."""
    if not isinstance(market, dict) or len(market) != 1:
        _fail("market", "must be an object with exactly one of file/example/generator/arms")
    (kind, value), = market.items()
    if kind == "file":
        path = _text("market.file", value)
        if base_dir is not None and not Path(path).is_absolute():
            path = str(base_dir / path)
        try:
            load_market(path)
        except FileNotFoundError:
            _fail("market.file", f"no such file: {path}")
        except OSError as exc:  # e.g. a directory, or a name too long for the file system
            _fail("market.file", f"cannot read {path!r}: {exc.strerror}")
        except ValueError as exc:  # a MarketError, or a name with a NUL byte
            _fail("market.file", str(exc))
        return kind, {"market_file": path}
    if kind == "example":
        if value not in EXAMPLE_NAMES:
            _fail(
                "market.example",
                f"unknown example {value!r}; known names: {', '.join(EXAMPLE_NAMES)}",
            )
        return kind, {"market_example": value}
    if kind == "generator":
        if not isinstance(value, dict):
            _fail("market.generator", "must be an object")
        unknown = set(value) - _GENERATOR_KEYS
        if unknown:
            _fail(f"market.generator.{sorted(unknown)[0]}", "unknown field")
        g = GeneratorParams(**_parse_fields(_GENERATOR_FIELDS, value, "market.generator."))
        _check_reward_model("market.generator.sigma", g.reward_kind, g.sigma)
        error = generator_param_error(g.n, g.m, g.min_gap)
        if error is not None:
            _fail(f"market.generator.{error[0]}", error[1])
        return kind, {"market_generator": g}
    if kind == "arms":
        if not isinstance(value, list) or len(value) < 2:
            _fail("market.arms", "must be a list of at least two means")
        arms = tuple(_float("market.arms", x) for x in value)
        for x in arms:
            if not 0.0 <= x <= 1.0:
                _fail("market.arms", f"mean {x} outside [0, 1]")
        return kind, {"arms": arms}
    _fail("market", f"unknown source kind {kind!r}")


def config_from_dict(raw: dict, base_dir: Optional[Path] = None) -> ExperimentConfig:
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        _fail(sorted(unknown)[0], "unknown field")
    for key in ["market", "algorithm"] + [f.key for f in _FIELDS if f.required and not f.applies]:
        if key not in raw:
            _fail(key, "missing required field")
    algorithm = _choice(ALGORITHMS)("algorithm", raw["algorithm"])
    kind, source = _market_source(raw["market"], base_dir)
    if kind == "arms" and algorithm in MARKET_ALGORITHMS:
        _fail("market.arms", "market algorithms need a two-sided market, not arms")
    values = _parse_fields(_FIELDS, raw, "", algorithm, kind)
    config = ExperimentConfig(algorithm=algorithm, **source, **values)
    if kind == "arms":
        _check_reward_model("sigma", config.reward_kind, config.sigma)
    return config


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
