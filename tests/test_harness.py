import io
import json
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interview_markets import runner
from interview_markets.cli import main as cli_main
from interview_markets.config import (
    _GENERATOR_KEYS,
    _TOP_KEYS,
    ALGORITHMS,
    BANDIT_ALGORITHMS,
    MARKET_ALGORITHMS,
    ExperimentConfig,
    bandit_arms,
    build_market,
    config_from_dict,
    experiment_source,
    load_config,
)
from interview_markets.engine import RoundOutcome
from interview_markets.errors import ConfigError, ProtocolError
from interview_markets.estimation import EstimatorState
from interview_markets.market import (
    MAX_GENERATED_PAIRS,
    Market,
    Matching,
    RewardModel,
    enumerate_stable_matchings,
    gale_shapley,
    ground_truth_prefs,
    save_market,
)
from interview_markets.metrics import RunRecorder
from interview_markets.named_markets import EXAMPLE_NAMES, named_example
from interview_markets.runner import RepOutput, _write_csv, config_hash, run_experiment


def base_config(**overrides):
    raw = {
        "market": {"example": "coordfgs"},
        "algorithm": "cia",
        "horizon": 400,
        "replications": 2,
        "base_seed": 5,
        "stride": 50,
    }
    raw.update(overrides)
    if raw["algorithm"] in MARKET_ALGORITHMS:  # bandit configs reject firm_mode
        raw.setdefault("firm_mode", "uncertain")
    return raw


class TestConfigValidation:
    def test_valid_config_parses(self):
        config = config_from_dict(base_config())
        assert config.algorithm == "cia"
        assert config.market_example == "coordfgs"

    def test_missing_lambda_for_eancdrr(self):
        with pytest.raises(ConfigError, match="lambda"):
            config_from_dict(base_config(algorithm="eancdrr"))

    def test_lambda_rejected_elsewhere(self):
        with pytest.raises(ConfigError, match="lambda"):
            config_from_dict(base_config(**{"lambda": 0.5}))

    def test_zero_horizon(self):
        with pytest.raises(ConfigError, match="horizon"):
            config_from_dict(base_config(horizon=0))

    def test_unknown_example_lists_names(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_config(market={"example": "nosuch"}))
        for name in EXAMPLE_NAMES:
            assert name in str(err.value)

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="horizn"):
            config_from_dict({**base_config(), "horizn": 3})

    def test_arms_need_bandit_algorithm(self):
        with pytest.raises(ConfigError, match="arms"):
            config_from_dict(base_config(market={"arms": [0.9, 0.5]}))

    def test_bandit_accepts_arms_with_duplicates(self):
        config = config_from_dict(
            base_config(market={"arms": [0.9, 0.1, 0.1]}, algorithm="apem")
        )
        means, model = bandit_arms(config)
        assert means == (0.9, 0.1, 0.1)
        assert model.kind == "bernoulli"

    def test_bandit_market_must_have_one_agent(self):
        config = config_from_dict(base_config(algorithm="allprobe"))
        with pytest.raises(ConfigError, match="1-agent"):
            bandit_arms(config)

    def test_epsilon_only_for_index_algorithms(self):
        with pytest.raises(ConfigError, match="epsilon"):
            config_from_dict(base_config(epsilon=0.2))

    def test_target_rank_only_for_eap(self):
        with pytest.raises(ConfigError, match="target_rank"):
            config_from_dict(base_config(target_rank=2))

    def test_generator_config(self):
        config = config_from_dict(
            base_config(
                market={
                    "generator": {"n": 3, "m": 4, "min_gap": 0.1, "market_seed": 9}
                }
            )
        )
        market = build_market(config)
        assert (market.n, market.m) == (3, 4)
        assert build_market(config) == market  # deterministic

    def test_integral_float_accepted(self):
        assert config_from_dict(base_config(horizon=400.0)).horizon == 400

    def test_null_stride_rejected(self):
        with pytest.raises(ConfigError, match="'stride'"):
            config_from_dict(base_config(stride=None))

    @pytest.mark.parametrize("data", [b"{not json", b"\xff\xfe"], ids=["syntax", "not-utf8"])
    def test_load_config_reports_bad_json(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="is not valid JSON"):
            load_config(path)


_GENERATOR = {"n": 3, "m": 3, "min_gap": 0.2, "market_seed": 9}
INTEGER_FIELDS = (
    "horizon",
    "replications",
    "stride",
    "base_seed",
    "target_rank",
    "market.generator.n",
    "market.generator.m",
    "market.generator.market_seed",
)
BOOLEAN_FIELDS = ("market.generator.alpha_reducible", "log_rounds")
FLOAT_FIELDS = (
    "market.generator.min_gap",
    "market.generator.sigma",
    "sigma",
    "lambda",
    "epsilon",
    "market.arms",
)


def config_with(fieldname, value):
    """A valid config with one top-level or generator field replaced."""
    if fieldname.startswith("market.generator."):
        key = fieldname.rsplit(".", 1)[1]
        return base_config(market={"generator": {**_GENERATOR, key: value}})
    if fieldname == "target_rank":
        return base_config(algorithm="eap", market={"arms": [0.9, 0.5]}, target_rank=value)
    if fieldname == "lambda":
        return base_config(algorithm="eancdrr", **{"lambda": value})
    if fieldname == "epsilon":
        return base_config(algorithm="allprobe", market={"arms": [0.9, 0.5]}, epsilon=value)
    if fieldname == "market.arms":
        return base_config(algorithm="allprobe", market={"arms": [value, 0.5]})
    if fieldname == "sigma":  # top-level sigma applies to arms only
        return base_config(algorithm="apem", market={"arms": [0.9, 0.5]}, sigma=value)
    return base_config(**{fieldname: value})


class TestStrictFieldTypes:
    @pytest.mark.parametrize("fieldname", INTEGER_FIELDS)
    def test_valid_values_parse(self, fieldname):
        config_from_dict(config_with(fieldname, 3))

    @pytest.mark.parametrize("value", ["abc", "3", 1.7, float("inf"), True, [3]])
    @pytest.mark.parametrize("fieldname", INTEGER_FIELDS)
    def test_integer_field_rejects(self, fieldname, value):
        with pytest.raises(ConfigError, match=f"'{fieldname}': must be an integer"):
            config_from_dict(config_with(fieldname, value))

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    @pytest.mark.parametrize("fieldname", BOOLEAN_FIELDS)
    def test_boolean_field_rejects(self, fieldname, value):
        with pytest.raises(ConfigError, match=f"'{fieldname}': must be true or false"):
            config_from_dict(config_with(fieldname, value))

    @pytest.mark.parametrize("fieldname", BOOLEAN_FIELDS)
    def test_boolean_field_accepts_false(self, fieldname):
        config_from_dict(config_with(fieldname, False))

    @pytest.mark.parametrize("value", [0.1, 0])
    @pytest.mark.parametrize("fieldname", FLOAT_FIELDS)
    def test_float_field_accepts_numbers(self, fieldname, value):
        if fieldname == "lambda" and value == 0:
            value = 0.5  # zero is outside lambda's range
        if fieldname == "market.generator.min_gap" and value == 0:
            value = 0.25  # no integer is a feasible gap
        config_from_dict(config_with(fieldname, value))

    @pytest.mark.parametrize(
        "value", ["abc", "0.5", True, None, float("nan"), float("inf"), [0.5]]
    )
    @pytest.mark.parametrize("fieldname", FLOAT_FIELDS)
    def test_float_field_rejects(self, fieldname, value):
        with pytest.raises(ConfigError, match=f"'{fieldname}': must be a finite number"):
            config_from_dict(config_with(fieldname, value))

    def test_integer_float_becomes_float(self):
        config = config_from_dict(config_with("epsilon", 1))
        assert config.epsilon == 1.0 and isinstance(config.epsilon, float)

    @pytest.mark.parametrize("fieldname", FLOAT_FIELDS)
    def test_float_field_rejects_integer_beyond_float_range(self, fieldname):
        with pytest.raises(ConfigError, match=f"'{fieldname}': must be a finite number"):
            config_from_dict(config_with(fieldname, 10**400))


class TestGeneratorFeasibility:
    @pytest.mark.parametrize("edits, fieldname", [
        ({"n": 0}, "n"),
        ({"n": -2, "m": -3}, "n"),
        ({"n": 4}, "m"),
        ({"min_gap": 0}, "min_gap"),
        ({"min_gap": -0.5}, "min_gap"),
        ({"m": 4, "min_gap": 0.25}, "min_gap"),  # four levels 0.25 apart do not fit in [0, 1)
        ({"n": 0, "m": 3, "min_gap": -0.5}, "n"),
        ({"reward_kind": "gaussian", "sigma": 0}, "sigma"),
        ({"reward_kind": "gaussian", "sigma": -0.1}, "sigma"),
        # min_gap * m < 1 holds, but the generators could not lay out that many pairs
        ({"n": 1, "m": 10**300, "min_gap": 1e-301}, "m"),
        ({"n": 1000, "m": MAX_GENERATED_PAIRS // 1000 + 1, "min_gap": 1e-9}, "m"),
    ])
    def test_infeasible_generator_is_a_config_error(self, edits, fieldname):
        raw = base_config(market={"generator": {**_GENERATOR, **edits}})
        with pytest.raises(ConfigError, match=f"'market.generator.{fieldname}'"):
            config_from_dict(raw)

    def test_generator_at_the_pair_cap_parses(self):
        generator = {"n": 1000, "m": MAX_GENERATED_PAIRS // 1000, "min_gap": 1e-9}
        config_from_dict(base_config(market={"generator": generator}))

    def test_feasible_generator_builds(self):
        raw = base_config(market={"generator": {**_GENERATOR, "m": 4, "min_gap": 0.24}})
        assert build_market(config_from_dict(raw)).m == 4


class TestSeeds:
    # random.Random(-k) is the stream of random.Random(k): with base_seed -1,
    # replications 0 and 2 would draw the same rewards
    @pytest.mark.parametrize("fieldname", ["base_seed", "market.generator.market_seed"])
    def test_negative_seed_is_a_config_error(self, fieldname):
        with pytest.raises(ConfigError, match=f"'{fieldname}': must be >= 0, got -1"):
            config_from_dict(config_with(fieldname, -1))

    @pytest.mark.parametrize("fieldname", ["base_seed", "market.generator.market_seed"])
    def test_zero_seed_parses(self, fieldname):
        config_from_dict(config_with(fieldname, 0))


THREE_ARMS = {"arms": [0.9, 0.5, 0.2]}


def market_config(algorithm, **overrides):
    raw = base_config(algorithm=algorithm, **overrides)
    if algorithm == "eancdrr":
        raw["lambda"] = 0.5
    return raw


class TestFieldApplicability:
    @pytest.mark.parametrize("value", [5, "", None, True, ["out"], {"dir": "out"}])
    def test_out_dir_must_be_non_empty_string(self, value):
        with pytest.raises(ConfigError, match="'out_dir': must be a non-empty string"):
            config_from_dict(base_config(out_dir=value))

    def test_out_dir_string_kept(self):
        assert config_from_dict(base_config(out_dir="results")).out_dir == "results"

    @pytest.mark.parametrize("field, value", [
        ("reward_kind", "gaussian"), ("reward_kind", "bernoulli"), ("sigma", 0.2),
    ])
    @pytest.mark.parametrize("algorithm", MARKET_ALGORITHMS)
    def test_reward_fields_not_applicable_to_market_algorithms(self, algorithm, field, value):
        with pytest.raises(ConfigError, match=f"'{field}': not applicable"):
            config_from_dict(market_config(algorithm, **{field: value}))

    @pytest.mark.parametrize("field, value", [("reward_kind", "gaussian"), ("sigma", 0.2)])
    def test_reward_fields_not_applicable_to_a_market_source(self, field, value):
        # a bandit on a one-agent market draws from that market's reward model
        raw = base_config(algorithm="apem", market={"example": "coordfgs"}, **{field: value})
        with pytest.raises(ConfigError, match=f"'{field}': not applicable"):
            config_from_dict(raw)

    def test_reward_fields_apply_to_arms(self):
        config = config_from_dict(
            base_config(algorithm="allprobe", market=THREE_ARMS, reward_kind="gaussian", sigma=0.05)
        )
        assert bandit_arms(config)[1] == RewardModel("gaussian", 0.05)

    def test_null_target_rank_is_not_an_integer(self):
        raw = base_config(algorithm="eap", market=THREE_ARMS, target_rank=None)
        with pytest.raises(ConfigError, match="'target_rank': must be an integer"):
            config_from_dict(raw)

    @pytest.mark.parametrize("value", [None, 1, 2])
    @pytest.mark.parametrize("algorithm", ["cia", "ancdrr", "allprobe", "apem"])
    def test_target_rank_not_applicable_elsewhere(self, algorithm, value):
        raw = base_config(algorithm=algorithm, target_rank=value)
        if algorithm in ("allprobe", "apem"):
            raw["market"] = THREE_ARMS
        with pytest.raises(ConfigError, match="'target_rank': not applicable"):
            config_from_dict(raw)

    @pytest.mark.parametrize("value", [0, -1])
    def test_target_rank_below_one_rejected(self, value):
        raw = base_config(algorithm="eap", market=THREE_ARMS, target_rank=value)
        with pytest.raises(ConfigError, match="'target_rank': must be >= 1"):
            config_from_dict(raw)

    def test_eap_target_rank_beyond_the_arms_fails_before_running(self, tmp_path):
        config = config_from_dict(base_config(algorithm="eap", market=THREE_ARMS, target_rank=3))  # the arm count is checked when arms are built
        with pytest.raises(ConfigError, match="'target_rank': must be below the number of arms, 3"):
            run_experiment(config, out_dir=str(tmp_path))

    @pytest.mark.parametrize("field, value", [
        ("firm_mode", "certain"), ("firm_mode", "uncertain"), ("log_rounds", True),
        ("log_rounds", False),
    ])
    @pytest.mark.parametrize("algorithm", BANDIT_ALGORITHMS)
    def test_market_fields_not_applicable_to_bandits(self, algorithm, field, value):
        raw = base_config(algorithm=algorithm, market=THREE_ARMS, **{field: value})
        with pytest.raises(ConfigError, match=f"'{field}': not applicable to algorithm '{algorithm}'"):
            config_from_dict(raw)

    def test_eap_target_rank_defaults_to_one(self):
        assert config_from_dict(base_config(algorithm="eap", market=THREE_ARMS)).target_rank == 1

    @pytest.mark.parametrize("value", [5, None, "", ["m.json"]])
    def test_market_file_must_be_non_empty_string(self, value):
        with pytest.raises(ConfigError, match="'market.file': must be a non-empty string"):
            config_from_dict(base_config(market={"file": value}))

    def test_market_file_name_too_long(self, tmp_path):
        with pytest.raises(ConfigError, match="'market.file'"):
            config_from_dict(base_config(market={"file": str(tmp_path / ("x" * 5000))}))


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and both infinities included
    st.text(max_size=12),
    st.sampled_from(ALGORITHMS + ("certain", "uncertain", "gaussian", "point", "k3")),
)
# values at the edges of what each field accepts, drawn as often as the rest
EDGE_VALUES = st.sampled_from(
    [0, -1, 0.5, 10**400, -(10**400), float("nan"), float("-inf"), "", "x" * 300, None]
)
JSON_VALUES = st.one_of(
    EDGE_VALUES,
    JSON_LEAVES,
    st.recursive(
        JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=10,
    ),
)
VALID_CONFIGS = (
    base_config(),
    base_config(algorithm="eancdrr", market={"generator": _GENERATOR}, **{"lambda": 0.5}),
    base_config(algorithm="eap", market={"arms": [0.9, 0.5, 0.2]}, target_rank=2,
                reward_kind="gaussian", sigma=0.05, out_dir="out"),
)


def _keys(names):
    known = st.sampled_from(sorted(names))
    return st.one_of(known, known, known, st.text(max_size=8))


EDITS = st.one_of(
    st.tuples(st.just("top"), _keys(_TOP_KEYS), JSON_VALUES),
    st.tuples(st.just("market"), _keys({"file", "example", "generator", "arms"}), JSON_VALUES),
    st.tuples(st.just("generator"), _keys(_GENERATOR_KEYS), JSON_VALUES),
    st.tuples(st.just("delete"), _keys(_TOP_KEYS), st.none()),
)


class TestConfigParsingProperty:
    @settings(max_examples=300, deadline=None)
    @given(base=st.sampled_from(VALID_CONFIGS), edits=st.lists(EDITS, min_size=1, max_size=3))
    # min_gap times a generator size beyond float range
    @example(base=VALID_CONFIGS[0],
             edits=[("top", "market", {"generator": {"n": 2, "m": 10**400, "min_gap": 0.2}})])
    # a generator size inside float range that no machine could build
    @example(base=VALID_CONFIGS[0],
             edits=[("top", "market", {"generator": {"n": 1, "m": 10**300, "min_gap": 1e-301}})])
    def test_any_edit_parses_or_raises_config_error(self, base, edits):
        raw = json.loads(json.dumps(base))
        for scope, key, value in edits:
            if scope == "top":
                raw[key] = value
            elif scope == "delete":
                raw.pop(key, None)
            elif scope == "market":
                if not isinstance(raw.get("market"), dict):
                    raw["market"] = {}
                raw["market"][key] = value
            else:
                market = raw.get("market")
                generator = market.get("generator") if isinstance(market, dict) else None
                if not isinstance(generator, dict):
                    generator = dict(_GENERATOR)
                generator[key] = value
                raw["market"] = {"generator": generator}
        try:
            config = config_from_dict(raw)
        except ConfigError:
            return
        assert isinstance(config, ExperimentConfig)
        json.dumps(config.canonical_dict(), allow_nan=False)


def test_readme_schema_names_exactly_the_config_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config schema (canonical JSON)", 1)[1].split("```jsonc", 1)[1]
    block = block.split("```", 1)[0]
    top = re.findall(r'^  "(\w+)":', block, re.MULTILINE)
    generator = re.search(r'\{"generator": \{(.*?)\}\}', block, re.DOTALL).group(1)
    assert sorted(top) == sorted(_TOP_KEYS)
    assert sorted(re.findall(r'"(\w+)":', generator)) == sorted(_GENERATOR_KEYS)


class TestNamedExamples:
    def test_introstrategic_lists(self):
        agent_prefs, firm_prefs = ground_truth_prefs(named_example("introstrategic"))
        assert agent_prefs == [(0, 1), (0, 1)]
        assert firm_prefs == [(0, 1), (1, 0)]

    def test_k3_two_stable_matchings(self):
        assert len(enumerate_stable_matchings(named_example("k3")).matchings) == 2

    def test_ucb3x3_agent_optimal(self):
        agent_prefs, firm_prefs = ground_truth_prefs(named_example("ucb3x3"))
        assert gale_shapley(agent_prefs, firm_prefs, "agents").agent_match == (0, 1, 2)

    def test_means_grid(self):
        market = named_example("coordfgs")
        for row in market.agent_means + market.firm_means:
            assert sorted(row) == [0.1, 0.5, 0.9]


SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "scripts" / "configs").glob("*.json"))


class TestShippedConfigs:
    def test_configs_are_found(self):
        assert SHIPPED_CONFIGS

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
    def test_config_loads_and_builds(self, path):
        config = load_config(path)
        if config.algorithm in MARKET_ALGORITHMS:
            assert build_market(config).n >= 1
        else:
            assert len(bandit_arms(config)[0]) >= 2


class TestRunExperiment:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"algorithm": "ancdrr", "log_rounds": True},
         {"market": {"arms": [0.9, 0.5, 0.2]}, "algorithm": "allprobe"}],
        ids=["cia", "ancdrr-logged", "allprobe"],
    )
    def test_byte_identical_reruns(self, tmp_path, overrides):
        config = config_from_dict(base_config(**overrides))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(config, out_dir=str(out_a))
        run_experiment(config, out_dir=str(out_b), workers=2)
        files_a = sorted(p.name for p in out_a.iterdir())
        assert files_a == sorted(p.name for p in out_b.iterdir())
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_ladder_reproduces_single_replication(self, tmp_path):
        config = config_from_dict(base_config(replications=3))
        run_experiment(config, out_dir=str(tmp_path / "all"))
        solo = config_from_dict(base_config(replications=1, base_seed=7))
        run_experiment(solo, out_dir=str(tmp_path / "solo"))
        rep2 = (tmp_path / "all" / "series_rep0002.csv").read_bytes()
        rep0 = (tmp_path / "solo" / "series_rep0000.csv").read_bytes()
        assert rep2 == rep0

    def test_hash_tracks_semantic_fields_only(self):
        a = config_from_dict(base_config())
        b = config_from_dict(base_config(out_dir="elsewhere"))
        c = config_from_dict(base_config(horizon=500))
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_summary_contains_per_agent_plateaus(self, tmp_path):
        config = config_from_dict(base_config(horizon=2000, replications=3))
        summary = run_experiment(config, out_dir=str(tmp_path))
        assert len(summary["plateau"]["pseudo_optimal"]) == 3
        assert summary["plateau_window"] == [200, 2000]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(config)
        assert manifest["seeds"] == [5, 6, 7]

    def test_series_rows_bounded_by_horizon(self, tmp_path):
        config = config_from_dict(base_config(horizon=100, replications=1, stride=1))
        run_experiment(config, out_dir=str(tmp_path))
        lines = (tmp_path / "series_rep0000.csv").read_text().splitlines()
        assert len(lines) == 1 + 100 * 3  # header + one row per round per agent

    @pytest.mark.parametrize("horizon, logged", [(60, [20, 40, 60]), (50, [20, 40, 50])])
    def test_round_logs_written_on_request(self, tmp_path, horizon, logged):
        config = config_from_dict(
            base_config(horizon=horizon, replications=1, log_rounds=True, stride=20)
        )
        run_experiment(config, out_dir=str(tmp_path))
        rounds = (tmp_path / "rounds_rep0000.csv").read_text().splitlines()
        firms = (tmp_path / "firms_rep0000.csv").read_text().splitlines()
        assert rounds[0] == "t,agent,interviewed,applied,matched,reward"
        assert firms[0] == "t,firm,gamma,vacant"
        # every stride-th round and the last, for each of three agents and firms
        expected = [(t, k) for t in logged for k in (1, 2, 3)]
        for lines in (rounds, firms):
            assert [tuple(map(int, line.split(",")[:2])) for line in lines[1:]] == expected

    def test_failed_replication_leaves_no_round_logs(self, tmp_path, monkeypatch):
        # the logs are written while a replication runs; one that raises
        # leaves neither file, and the replications before it keep theirs
        config = config_from_dict(base_config(algorithm="ancdrr", horizon=100, replications=3,
                                              stride=10, log_rounds=True))
        market_policy, made = runner._market_policy, []

        def policy_failing_second(*args):
            policy = market_policy(*args)
            made.append(policy)
            if len(made) == 2:
                plan = policy.plan

                def failing_plan(t):
                    if t == 55:
                        assert (tmp_path / "rounds_rep0001.csv").exists()
                        raise ProtocolError("agent 0 has no open firm", t)
                    return plan(t)

                policy.plan = failing_plan
            return policy

        monkeypatch.setattr(runner, "_market_policy", policy_failing_second)
        with pytest.raises(ProtocolError, match="round 55: agent 0 has no open firm"):
            run_experiment(config, out_dir=str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "firms_rep0000.csv", "rounds_rep0000.csv", "series_rep0000.csv"]
        assert (tmp_path / "rounds_rep0000.csv").read_text().count("\n") == 1 + 10 * 3

    def test_drr_emits_phase_log(self, tmp_path):
        config = config_from_dict(base_config(algorithm="drr", horizon=300, replications=1))
        run_experiment(config, out_dir=str(tmp_path))
        phases = (tmp_path / "phases_rep0000.csv").read_text().splitlines()
        assert phases[0] == "phase,t_gs,triggers,committed"
        assert phases[1].startswith("0,1,init,")

    @pytest.mark.parametrize(
        "overrides, reps, kinds",
        [({"algorithm": "ancdrr", "log_rounds": True}, range(1, 2), ["firms", "rounds", "series"]),
         ({"algorithm": "drr"}, range(3), ["phases", "series"])],
        ids=["scalar-logged", "lockstep-block"],
    )
    def test_market_worker_keeps_only_summary_rows(self, tmp_path, overrides, reps, kinds):
        # the worker writes every retained row; its record keeps the summary's
        config = config_from_dict(base_config(replications=3, **overrides))
        market = build_market(config)
        assert runner._runs_lockstep(config, market) == (config.algorithm == "drr")
        outs = runner._market_worker((config, market, reps, tmp_path))
        marks = runner.summary_checkpoints(config.horizon)
        retained = runner.checkpoint_rounds(config.horizon, config.stride)
        assert len(marks) < len(retained)
        assert [r.rep for r in outs] == list(reps)
        for r in outs:
            full = runner.run_market_replication(config, market, r.rep)
            # plain lists, which cross a process pool in less memory than arrays
            assert r.rows == [full.rows[retained.index(t)].tolist() for t in marks]
            assert r.phase_log == full.phase_log and r.invalid == full.invalid
            written = sorted(p.name for p in tmp_path.glob(f"*_rep{r.rep:04d}.csv"))
            assert written == [f"{k}_rep{r.rep:04d}.csv" for k in kinds]

    def test_bandit_worker_keeps_only_summary_regret(self, tmp_path):
        config = config_from_dict(
            base_config(market={"arms": [0.9, 0.5, 0.2]}, algorithm="allprobe")
        )
        outs = runner._bandit_worker((config, bandit_arms(config), range(1, 2), tmp_path))
        assert [r.rep for r in outs] == [1]
        assert list(outs[0].regret_at) == runner.summary_checkpoints(config.horizon)
        lines = (tmp_path / "series_rep0001.csv").read_text().splitlines()
        assert len(lines) == 1 + len(runner.checkpoint_rounds(config.horizon, config.stride))

    @pytest.mark.parametrize("overrides", [
        {"algorithm": "ancdrr", "log_rounds": True, "horizon": 400},
        {"algorithm": "allprobe", "market": THREE_ARMS, "horizon": 2000},
    ], ids=["scalar-logged", "bandit"])
    def test_worker_holds_one_full_record_at_a_time(self, tmp_path, overrides):
        # a block of 4 keeps every round of each replication until it is
        # written; holding the previous record while the next runs would
        # double the peak of a 1-replication block
        config = config_from_dict(base_config(replications=4, stride=1, **overrides))
        source = experiment_source(config)
        market = config.algorithm in MARKET_ALGORITHMS
        worker = runner._market_worker if market else runner._bandit_worker

        def peak(count):
            out = tmp_path / str(count)
            out.mkdir(exist_ok=True)
            tracemalloc.start()
            try:
                worker((config, source, range(count), out))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: one-time allocations are not the block's
        assert peak(4) <= 1.25 * peak(1)

    def test_bandit_summary_on_horizons_below_four(self, tmp_path):
        # the final quarter is at least round T, so the top-pulled arm was pulled
        config = config_from_dict(
            base_config(market={"arms": [0.3, 0.9, 0.5]}, algorithm="allprobe",
                        horizon=3, stride=1)
        )
        summary = run_experiment(config, out_dir=str(tmp_path))
        means, model = bandit_arms(config)
        for rep, arm in enumerate(summary["last_quarter_top_pulled"]):
            pulls = runner.run_bandit_replication(config, means, model, rep).last_quarter_pulls
            assert pulls[arm - 1] == 1 == sum(pulls)

    def test_bandit_experiment_summary(self, tmp_path):
        config = config_from_dict(
            base_config(market={"arms": [0.9, 0.5, 0.2]}, algorithm="allprobe", horizon=1000)
        )
        summary = run_experiment(config, out_dir=str(tmp_path))
        assert summary["kind"] == "bandit"
        assert "ratio" in summary["plateau"]
        lines = (tmp_path / "series_rep0000.csv").read_text().splitlines()
        assert lines[0] == "t,hinted_regret"

    def test_pool_has_no_more_processes_than_jobs(self, tmp_path, monkeypatch):
        sizes, job_counts = [], []

        class RecordingPool:  # records its size and jobs and runs them in this process
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                job_counts.append(len(jobs))
                return [fn(job) for job in jobs]

        class Context:
            Pool = RecordingPool

        monkeypatch.setattr(runner.multiprocessing, "get_context", lambda method: Context)
        # nor more than the CPUs this process may use: four, then one, then,
        # where sched_getaffinity is missing, os.cpu_count() (None: one)
        monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        assert runner._map_reps(abs, [-1, -2], 8) == [1, 2]
        assert runner._map_reps(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert runner._map_reps(abs, [-1, -2, -3, -4, -5], 8) == [1, 2, 3, 4, 5]
        # a lockstep config makes one block a process, not one a worker
        lockstep = config_from_dict(base_config(algorithm="drr", horizon=50, replications=6))
        assert runner._runs_lockstep(lockstep, experiment_source(lockstep))
        run_experiment(lockstep, out_dir=str(tmp_path / "four"), workers=8)
        monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0})
        assert runner._map_reps(abs, [-1, -2], 8) == [1, 2]
        monkeypatch.delattr(runner.os, "sched_getaffinity")
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 3)
        assert runner._map_reps(abs, [-1, -2, -3, -4], 8) == [1, 2, 3, 4]
        run_experiment(lockstep, out_dir=str(tmp_path / "three"), workers=8)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
        assert runner._map_reps(abs, [-1, -2], 8) == [1, 2]
        assert sizes == [2, 2, 4, 4, 3, 3]
        assert job_counts == [2, 3, 5, 4, 4, 3]

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INTERVIEW_MARKETS_OUT", str(tmp_path / "envout"))
        config = config_from_dict(base_config(horizon=50, replications=1))
        run_experiment(config)
        assert (tmp_path / "envout" / "summary.json").exists()

    @pytest.mark.parametrize("configured", [True, False])
    def test_empty_out_dir_override_raises_and_writes_nothing(self, tmp_path, monkeypatch,
                                                              configured):
        # an empty override is not absent: no fallback directory is written
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("INTERVIEW_MARKETS_OUT", str(tmp_path / "envout"))
        extra = {"out_dir": str(tmp_path / "configured")} if configured else {}
        config = config_from_dict(base_config(horizon=50, replications=1, **extra))
        with pytest.raises(ConfigError, match="out_dir override must not be empty"):
            run_experiment(config, out_dir="")
        assert list(tmp_path.iterdir()) == []


class TestCsvRendering:
    def test_cells_render_as_repr_for_floats_and_str_otherwise(self, tmp_path):
        floats = [0.1, 1e-17, 1e16, -0.0, 2.5e-05]
        others = [0, 7, -3, "1;2", ""]
        path = tmp_path / "cells.csv"
        _write_csv(path, ["a", "b"], [floats, others])
        lines = path.read_text().split("\n")
        assert lines == ["a,b", "0.1,1e-17,1e+16,-0.0,2.5e-05", "0,7,-3,1;2,", ""]
        assert lines[1] == ",".join(repr(x) for x in floats)
        assert lines[2] == ",".join(str(x) for x in others)

    def test_no_rows_writes_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_csv(path, ["t", "agent"], [])
        assert path.read_bytes() == b"t,agent\n"

    @staticmethod
    def joined(row):
        return ",".join(map(str, row)) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(t=st.integers(1, 10**6), values=st.lists(st.floats(allow_nan=False,
           allow_infinity=False), min_size=8, max_size=8))
    @example(t=1, values=[-0.0, 5e-324, 1e-05, 1e16, 0.1, -1e-05, 1.0, 2.5e-17])
    def test_series_lines_render_as_joined_cells(self, t, values):
        kinds = tuple(tuple(values[k::4]) for k in range(4))  # 4 kinds x 2 agents
        rep_out = RepOutput(rep=0, rows=np.array([kinds]), converged_round=None,
                            final_matching=(), events={}, invalid={})
        with tempfile.TemporaryDirectory() as d:
            runner._write_market_files(Path(d), rep_out, [t])
            lines = (Path(d) / "series_rep0000.csv").read_text().splitlines(keepends=True)
        assert lines[1:] == [self.joined((t, a + 1, *(kinds[k][a] for k in range(4))))
                             for a in range(2)]

    @settings(max_examples=200, deadline=None)
    @given(t=st.integers(1, 10**6),
           rewards=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2))
    @example(t=1, rewards=(-0.0, 5e-324))
    @example(t=7, rewards=(1e-05, 1e16))
    def test_round_log_lines_render_as_joined_cells(self, t, rewards):
        market = Market(((0.9, 0.5), (0.4, 0.8)), ((0.5, 0.4), (0.3, 0.6)))
        logs = io.StringIO(), io.StringIO()
        recorder = RunRecorder(market, (0.9, 0.8), (0.5, 0.4), EstimatorState(2, 2), (0, 1), (),
                               retain_rounds=[t], log_rounds=[t], logs=logs)
        for _ in range(2):  # the second round reuses the first's cells
            recorder(RoundOutcome(t, ((0, 1), (1, 0, 1)), ((0,), ()), (1, 0),
                                  Matching((0, None), 2), rewards, frozenset({1}), frozenset({1})))
        agents = self.joined((t, 1, "1;2", "1", 1, rewards[0])) + self.joined(
            (t, 2, "2;1;2", "", "", rewards[1]))
        firms = self.joined((t, 1, 1, 0)) + self.joined((t, 2, 0, 1))
        assert [fh.getvalue() for fh in logs] == [agents * 2, firms * 2]

    # a small pool, so that values repeat across rounds, columns and agents;
    # 0.0 and -0.0 compare equal but print differently
    POOL = (0.0, -0.0, 0.5, -0.5, 0.1, 5e-324, -5e-324, 1e16)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 3), rounds=st.integers(1, 8), chunk=st.integers(1, 40),
           values=st.lists(st.sampled_from(POOL), min_size=96, max_size=96))
    @example(n=2, rounds=2, chunk=8, values=[  # round, then kind, then agent
        0.5, 0.1, 0.0, 0.1, -0.0, 0.5, 0.1, -0.0,
        0.1, 0.5, -0.0, 0.1, -0.0, 0.5, 0.1, 0.0] + [0.0] * 80)
    def test_series_lines_over_rounds_render_each_value_as_repr(self, n, rounds, chunk, values):
        rows = np.array(values[:4 * n * rounds]).reshape(rounds, 4, n)
        retained = list(range(3, 3 * rounds + 1, 3))
        with pytest.MonkeyPatch.context() as mp:  # chunks of 1 to 40 values: 1 to 10 rounds
            mp.setattr(runner, "_CHUNK_VALUES", chunk)
            lines = list(runner._series_lines(retained, rows))
        assert lines == [self.joined((t, a + 1, *map(repr, rows[r, :, a].tolist())))
                         for r, t in enumerate(retained) for a in range(n)]

    IVS = ((0,), (0, 1), (2, 0, 1), (1,))
    APPS = ((), (0,), (1,), (2,))
    MATCHES = ((None, None), (0, 1), (1, 0), (2, None), (None, 2))
    GAMMAS = ((1, 1, 1), (0, 1, 1), (1, 0, 0))
    VACANT = (frozenset(), frozenset({1}), frozenset({0, 2}))

    @settings(max_examples=300, deadline=None)
    @given(rounds=st.lists(st.tuples(
        st.tuples(st.sampled_from(IVS), st.sampled_from(IVS)),
        st.tuples(st.sampled_from(APPS), st.sampled_from(APPS)),
        st.sampled_from(MATCHES), st.tuples(st.sampled_from(POOL), st.sampled_from(POOL)),
        st.sampled_from(GAMMAS), st.sampled_from(VACANT)), min_size=1, max_size=8))
    @example(rounds=[(((0,), (0,)), ((), ()), (None, None), (0.0, -0.0), (1, 1, 1), frozenset())]
             * 2)
    def test_round_logs_over_rounds_render_each_cell_as_str(self, rounds):
        # the reused cells must keep each agent's number and each round's t
        market = Market(((0.9, 0.5, 0.2), (0.4, 0.8, 0.1)), ((0.5, 0.4), (0.3, 0.6), (0.2, 0.1)))
        log_rounds = range(2, 2 * len(rounds) + 1, 2)
        logs = io.StringIO(), io.StringIO()
        recorder = RunRecorder(market, (0.9, 0.8), (0.5, 0.4), EstimatorState(2, 3), (0, 1), (),
                               retain_rounds=(), log_rounds=log_rounds, logs=logs)
        agents, firms = [], []
        for t, (ivs, apps, match, rewards, gamma, vacant) in zip(log_rounds, rounds):
            recorder(RoundOutcome(t, ivs, apps, gamma, Matching(match, 3), rewards, vacant,
                                  vacant))
            agents.append("".join(self.joined((
                t, a + 1, ";".join(str(f + 1) for f in ivs[a]),
                ";".join(str(f + 1) for f in apps[a]), "" if match[a] is None else match[a] + 1,
                rewards[a])) for a in range(2)))
            firms.append("".join(self.joined((t, f + 1, g, int(f in vacant)))
                                 for f, g in enumerate(gamma)))
        assert [fh.getvalue() for fh in logs] == ["".join(agents), "".join(firms)]


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(**overrides)))
        return path

    def test_examples_lists_known_names(self, capsys):
        assert cli_main(["examples"]) == 0
        out = capsys.readouterr().out.split()
        assert sorted(out) == sorted(EXAMPLE_NAMES)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli_main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects(self, tmp_path, capsys):
        path = self.write_config(tmp_path, horizon=0)
        assert cli_main(["validate", str(path)]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_validate_rejects_non_integer_in_one_line(self, tmp_path, capsys):
        path = self.write_config(tmp_path, horizon="abc")
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: config field 'horizon'")

    def test_validate_rejects_non_number_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_with("lambda", "half")))
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: config field 'lambda'")

    @pytest.mark.parametrize("field, value", [("firm_mode", "uncertain"), ("log_rounds", True)])
    def test_validate_rejects_market_field_for_bandit_in_one_line(self, tmp_path, capsys,
                                                                  field, value):
        path = self.write_config(tmp_path, algorithm="allprobe", market=THREE_ARMS, **{field: value})
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config field {field!r}: not applicable to algorithm 'allprobe'\n"

    def test_validate_rejects_non_string_out_dir_in_one_line(self, tmp_path, capsys):
        path = self.write_config(tmp_path, out_dir=5)
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: config field 'out_dir'")

    def test_validate_rejects_infeasible_generator_in_one_line(self, tmp_path, capsys):
        market = {"generator": {"n": 0, "m": 3, "min_gap": -0.5}}
        path = self.write_config(tmp_path, algorithm="drr", market=market)
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: config field 'market.generator.n'")

    def test_validate_rejects_generator_beyond_the_pair_cap_in_one_line(self, tmp_path, capsys):
        market = {"generator": {"n": 1, "m": 10**300, "min_gap": 1e-301}}
        path = self.write_config(tmp_path, market=market)
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: config field 'market.generator.m': need n * m <= ")

    @pytest.mark.parametrize("overrides, fieldname", [
        ({"algorithm": "apem", "market": THREE_ARMS, "reward_kind": "gaussian", "sigma": 0},
         "sigma"),
        ({"market": {"generator": {**_GENERATOR, "reward_kind": "gaussian", "sigma": -1}}},
         "market.generator.sigma"),
    ])
    def test_validate_rejects_gaussian_sigma_in_one_line(self, tmp_path, capsys, overrides,
                                                         fieldname):
        path = self.write_config(tmp_path, **overrides)
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: config field '{fieldname}'")

    def test_validate_rejects_missing_market_file(self, tmp_path, capsys):
        path = self.write_config(tmp_path, market={"file": "nope.json"})
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'market.file'")
        assert str(tmp_path / "nope.json") in err

    @pytest.mark.parametrize("overrides, message", [
        ({"algorithm": "eap", "market": THREE_ARMS, "target_rank": 3},
         "config field 'target_rank': must be below the number of arms, 3"),
        ({"algorithm": "allprobe", "market": {"generator": {**_GENERATOR, "n": 2}}},
         "config field 'market': bandit algorithms need a 1-agent market or arms, got n=2"),
    ], ids=["eap-rank", "allprobe-two-agents"])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, overrides, message):
        path = self.write_config(tmp_path, **overrides)
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()  # the source is resolved before the mkdir

    def test_market_file_resolved_next_to_config(self, tmp_path, capsys):
        save_market(named_example("k3"), tmp_path / "market.json")
        path = self.write_config(tmp_path, market={"file": "market.json"})
        assert cli_main(["validate", str(path)]) == 0
        assert load_config(path).market_file == str(tmp_path / "market.json")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_malformed_market_file_names_the_key_in_one_line(self, tmp_path, capsys, command):
        (tmp_path / "market.json").write_text(json.dumps({"n": 2, "m": 2}))
        path = self.write_config(tmp_path, market={"file": "market.json"})
        args = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert cli_main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: config field 'market.file': market key 'agent_means'")

    @pytest.mark.parametrize("text, message", [
        ('{"n": 2, "m": 2}', "market key 'agent_means' is missing"),
        ('{"n": 1, "m": 2, "agent_means": [0.9, "high"], "firm_means": [0.5, 0.4]}',
         "market key 'agent_means': expected a number, got 'high'"),
        ("{not json", "is not valid JSON"),
    ])
    def test_stable_reports_malformed_market_file_in_one_line(self, tmp_path, capsys, text,
                                                              message):
        market_path = tmp_path / "market.json"
        market_path.write_text(text)
        assert cli_main(["stable", str(market_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and message in err

    def test_number_beyond_float_range_in_market_file_fails_in_one_line(self, tmp_path, capsys):
        (tmp_path / "market.json").write_text(
            '{"n": 1, "m": 2, "agent_means": [0.9, 0.1], "firm_means": [0.5, 0.4],'
            f' "reward_kind": "gaussian", "sigma": {10**400}}}'
        )
        path = self.write_config(tmp_path, algorithm="ancdrr", market={"file": "market.json"})
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: config field 'market.file': market key 'sigma'")
        assert cli_main(["stable", str(tmp_path / "market.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: market key 'sigma'")

    def test_stable_reports_a_directory_in_one_line(self, tmp_path, capsys):
        assert cli_main(["stable", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_stable_prints_set(self, tmp_path, capsys):
        market_path = tmp_path / "market.json"
        save_market(named_example("k3"), market_path)
        assert cli_main(["stable", str(market_path)]) == 0
        out = capsys.readouterr().out
        assert "2 stable matching(s)" in out
        assert "a1-f1" in out and "a1-f2" in out

    def test_stable_prints_minimum_gaps(self, tmp_path, capsys):
        # agent 0 holds firm 0 in the agent-optimal matching and firm 1 stays vacant
        market_path = tmp_path / "market.json"
        save_market(Market(((0.9, 0.5),), ((0.5,), (0.4,))), market_path)
        assert cli_main(["stable", str(market_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["agent minimum gaps: a1:0.4", "firm minimum gaps: f1:0 f2:0.4"]

    def test_validate_rejects_nan_sigma_in_market_file_in_one_line(self, tmp_path, capsys):
        (tmp_path / "market.json").write_text(
            '{"n": 1, "m": 2, "agent_means": [0.9, 0.1], "firm_means": [0.5, 0.4],'
            ' "reward_kind": "gaussian", "sigma": NaN}'
        )
        path = self.write_config(tmp_path, algorithm="ancdrr", horizon=5,
                                 market={"file": "market.json"})
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: config field 'market.file'") and "sigma" in err

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_run_end_to_end(self, tmp_path, monkeypatch, capsys, via):
        path = self.write_config(tmp_path, horizon=50, replications=1)
        out_dir = tmp_path / "artifacts"
        if via == "flag":
            args = ["run", str(path), "--out", str(out_dir)]
        else:
            monkeypatch.setenv("INTERVIEW_MARKETS_OUT", str(out_dir))
            args = ["run", str(path)]
        assert cli_main(args) == 0
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "manifest.json").exists()
        assert capsys.readouterr().out == f"wrote 1 replication series to {out_dir}\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_rejects_workers_below_one_in_one_line(self, tmp_path, capsys, workers):
        path = self.write_config(tmp_path, horizon=50, replications=1)
        out_dir = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out_dir), "--workers", workers]) == 2
        assert capsys.readouterr().err == f"error: workers must be at least 1, got {workers}\n"
        assert not out_dir.exists()

    def test_run_rejects_empty_out_in_one_line(self, tmp_path, monkeypatch, capsys):
        path = self.write_config(tmp_path, horizon=50, replications=1,
                                 out_dir=str(tmp_path / "configured"))
        monkeypatch.chdir(tmp_path)
        assert cli_main(["run", str(path), "--out", ""]) == 2
        assert capsys.readouterr().err == "error: --out must be a non-empty path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "interview_markets.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
