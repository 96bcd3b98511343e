"""A pinned corpus of configs and what ``config_from_dict`` makes of them.

``config_corpus.json`` holds, for each input, either the canonical JSON,
``config_hash`` and ``repr`` of the parsed config, or the exact
``ConfigError`` line. It covers every algorithm on every market source kind
(``file``, ``example``, ``generator``, ``arms``) with each optional field
present or absent, and bad values for every top-level and generator field,
one fault per entry. Any change to parsing, to an error message or to the
hashed shape of a config shows up here.

Market files named by the entries are written from the corpus's ``files``
into a temporary directory, which is the working directory while the
corpus runs. To rebuild the corpus from the current code (only when a
change to it is deliberate and announced)::

    PYTHONPATH=src python tests/test_config_corpus.py
"""

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from interview_markets.config import ALGORITHMS, BANDIT_ALGORITHMS, config_from_dict
from interview_markets.errors import ConfigError
from interview_markets.runner import config_hash

CORPUS_PATH = Path(__file__).with_name("config_corpus.json")


def outcome(raw) -> dict:
    try:
        config = config_from_dict(raw)
    except ConfigError as exc:
        return {"error": str(exc)}
    canonical = json.dumps(config.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return {"canonical": canonical, "hash": config_hash(config), "repr": repr(config)}


def write_files(files: dict, directory: Path) -> None:
    for name, text in files.items():
        if text is None:
            (directory / name).mkdir()
        else:
            (directory / name).write_text(text)


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS_PATH.read_text())


@pytest.fixture
def in_corpus_dir(corpus, tmp_path, monkeypatch):
    write_files(corpus["files"], tmp_path)
    monkeypatch.chdir(tmp_path)


def _mismatches(corpus, accepted):
    found = []
    for entry in corpus["entries"]:
        if ("error" not in entry) == accepted:
            got = outcome(entry["config"])
            expected = {k: v for k, v in entry.items() if k != "config"}
            if got != expected:
                found.append((entry["config"], expected, got))
    return found


def test_corpus_has_every_algorithm_and_source_kind(corpus):
    pairs = {
        (entry["config"]["algorithm"], next(iter(entry["config"]["market"])))
        for entry in corpus["entries"]
        if "error" not in entry
    }
    kinds = ("file", "example", "generator", "arms")
    assert pairs == {
        (a, k) for a in ALGORITHMS for k in kinds if k != "arms" or a in BANDIT_ALGORITHMS
    }


def test_accepted_configs_keep_their_canonical_json_hash_and_repr(corpus, in_corpus_dir):
    assert _mismatches(corpus, accepted=True)[:3] == []


def test_rejected_configs_keep_their_error_line(corpus, in_corpus_dir):
    assert _mismatches(corpus, accepted=False)[:3] == []


# ---- building the corpus -------------------------------------------------

MARKET_FILES = {
    "market.json": json.dumps({"n": 1, "m": 3, "agent_means": [0.9, 0.5, 0.2],
                               "firm_means": [0.5, 0.4, 0.3]}),
    "gaussian.json": json.dumps({"n": 2, "m": 2, "agent_means": [0.9, 0.5, 0.2, 0.6],
                                 "firm_means": [0.5, 0.4, 0.3, 0.8],
                                 "reward_kind": "gaussian", "sigma": 0.2}),
    "missing_key.json": json.dumps({"n": 2, "m": 2}),
    "word.json": json.dumps({"n": 1, "m": 2, "agent_means": [0.9, "high"],
                             "firm_means": [0.5, 0.4]}),
    "nan_sigma.json": '{"n": 1, "m": 2, "agent_means": [0.9, 0.1], "firm_means": [0.5, 0.4],'
                      ' "reward_kind": "gaussian", "sigma": NaN}',
    "not_json.json": "{not json",
    "list.json": "[]",
    "adir": None,  # a directory
}
SOURCES = {
    "file": "market.json",
    "example": "coordfgs",
    "generator": {"n": 1, "m": 3, "min_gap": 0.2},
    "arms": [0.9, 0.5, 0.2],
}
OPTIONAL = {
    "firm_mode": "uncertain",
    "lambda": 0.25,
    "epsilon": 0.3,
    "target_rank": 2,
    "reward_kind": "gaussian",
    "sigma": 0.05,
    "out_dir": "results",
    "stride": 7,
    "log_rounds": True,
}
GENERATOR_OPTIONAL = {
    "alpha_reducible": False,
    "reward_kind": "gaussian",
    "sigma": 0.3,
    "market_seed": 9,
}
BIG = 10**400
# top-level edits, each of which breaks one field of a valid config
TOP_FAULTS = (
    [{"market": v} for v in (5, None, [], {}, {"example": "k3", "arms": [0.9, 0.5]},
                              {"url": "x"})]
    + [{"algorithm": v} for v in ("ucb", "CIA", 3, None, [])]
    + [{"horizon": v} for v in (0, -1, 1.5, "10", True, None, math.inf, -BIG)]
    + [{"replications": v} for v in (0, "2", False, None, 2.5)]
    + [{"base_seed": v} for v in (-1, -1.0, 1.5, "1", True, None, -BIG)]
    + [{"stride": v} for v in (0, -3, "10", None, 1.5, math.nan)]
    + [{"out_dir": v} for v in ("", 5, None, ["o"], {"d": 1}, True)]
    + [{"horizen": 5}, {"": 1}, {"Market": {}}]
)
# edits for the algorithm-specific fields, applied where the field applies
SPECIFIC_FAULTS = {
    "firm_mode": [{"firm_mode": v} for v in ("maybe", True, None, "")],
    "log_rounds": [{"log_rounds": v} for v in (1, 0, "true", None)],
    "lambda": [{"lambda": v} for v in (0, 1, -0.5, "half", math.nan, math.inf, None, True, BIG)],
    "epsilon": [{"epsilon": v} for v in (-0.1, "x", math.inf, True, None, -BIG)],
    "target_rank": [{"target_rank": v} for v in (0, -1, 2.5, None, "2")],
    "reward_kind": [{"reward_kind": v} for v in ("poisson", 1, None, "Gaussian")],
    "sigma": (
        [{"reward_kind": "gaussian", "sigma": v} for v in (0, -1, math.nan, "0.1", BIG, math.inf)]
        + [{"sigma": v} for v in ("x", None, True)]
    ),
}
GENERATOR_FAULTS = (
    [{"n": v} for v in (0, -2, 1.5, "3", True, None, BIG)]
    + [{"m": v} for v in (0, "3", 2.5, False, None)]
    + [{"n": 3, "m": 2}]
    + [{"min_gap": v} for v in (0, -0.5, 0.5, 0.34, math.nan, "0.2", None, -BIG, True)]
    + [{"alpha_reducible": v} for v in (1, "yes", None, 0)]
    + [{"reward_kind": v} for v in ("poisson", None, 3)]
    + [{"reward_kind": "gaussian", "sigma": v} for v in (0, -0.1, math.nan, "x")]
    + [{"sigma": v} for v in (None, True)]
    + [{"market_seed": v} for v in (-1, 1.5, "9", None, True, -BIG)]
    + [{"k": 1}, {"": 0}]
)
SOURCE_FAULTS = (
    [{"file": v} for v in (5, "", None, ["market.json"], "nope.json", "missing_key.json",
                           "word.json", "nan_sigma.json", "not_json.json", "list.json",
                           "adir", "a\x00b.json")]
    + [{"file": "gaussian.json"}]  # a valid two-agent market
    + [{"example": v} for v in ("nosuch", 5, None, "K3")]
    + [{"example": name} for name in ("drrs4", "introstrategic", "k3", "multappl", "ucb3x3")]
    + [{"arms": v} for v in ([0.9], [], "x", [0.9, "a"], [0.9, 1.5], [0.9, math.nan],
                             [0.9, -0.1], [0.9, True], [0.9, None], [0.9, BIG], 0.9,
                             [0.5, 0.5], [1, 0], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])]
    + [{"generator": v} for v in ([1, 2], 5, None, {})]
    + [{"generator": {"n": 1, "m": 3}}, {"generator": {"n": 1, "min_gap": 0.2}},
       {"generator": {"m": 3, "min_gap": 0.2}}]
)
APPLIES = {
    "firm_mode": ("cia", "drr", "ancdrr", "eancdrr"),
    "log_rounds": ("cia", "drr", "ancdrr", "eancdrr"),
    "lambda": ("eancdrr",),
    "epsilon": ("allprobe", "eap"),
    "target_rank": ("eap",),
    "reward_kind": ("arms",),
    "sigma": ("arms",),
}


def base(algorithm: str, kind: str) -> dict:
    raw = {"market": {kind: SOURCES[kind]}, "algorithm": algorithm, "horizon": 50,
           "replications": 3, "base_seed": 4}
    if algorithm == "eancdrr":
        raw["lambda"] = 0.5
    return raw


def valid_kinds(algorithm: str) -> list:
    return [k for k in SOURCES if k != "arms" or algorithm in BANDIT_ALGORITHMS]


def build_inputs() -> list:
    inputs = []
    for algorithm in ALGORITHMS:
        for kind in SOURCES:
            raw = base(algorithm, kind)
            inputs.append(raw)
            if kind not in valid_kinds(algorithm):
                continue  # a market algorithm on arms: one fault already
            every = dict(raw)
            for key, value in OPTIONAL.items():
                toggled = dict(raw)
                if key in toggled:
                    del toggled[key]
                else:
                    toggled[key] = value
                    applies = APPLIES.get(key, (algorithm, kind))
                    if algorithm in applies or kind in applies:
                        every[key] = value
                inputs.append(toggled)
            inputs.append(every)
            if kind == "generator":
                generator = SOURCES["generator"]
                for key, value in GENERATOR_OPTIONAL.items():
                    inputs.append({**raw, "market": {kind: {**generator, key: value}}})
                inputs.append({**raw, "market": {kind: {**generator, **GENERATOR_OPTIONAL}}})
            for edit in TOP_FAULTS:
                inputs.append({**raw, **edit})
            for edit in GENERATOR_FAULTS if kind == "generator" else ():
                inputs.append({**raw, "market": {kind: {**SOURCES[kind], **edit}}})
        for key, edits in SPECIFIC_FAULTS.items():
            for kind in valid_kinds(algorithm):
                applies = APPLIES[key]
                if algorithm in applies or kind in applies:
                    inputs.extend({**base(algorithm, kind), **edit} for edit in edits)
        for source in SOURCE_FAULTS:
            inputs.append({**base(algorithm, "example"), "market": source})
        for key in ("market", "algorithm", "horizon", "replications", "base_seed", "lambda"):
            raw = base(algorithm, valid_kinds(algorithm)[-1])
            if key in raw:
                del raw[key]
                inputs.append(raw)
    return inputs


def build_corpus() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        write_files(MARKET_FILES, Path(directory))
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            entries = [{"config": raw, **outcome(raw)} for raw in build_inputs()]
        finally:
            os.chdir(cwd)
    return {"files": MARKET_FILES, "entries": entries}


if __name__ == "__main__":
    corpus = build_corpus()
    CORPUS_PATH.write_text(json.dumps(corpus, indent=0) + "\n")
    accepted = sum("error" not in entry for entry in corpus["entries"])
    print(f"wrote {len(corpus['entries'])} entries ({accepted} accepted) to {CORPUS_PATH}",
          file=sys.stderr)
