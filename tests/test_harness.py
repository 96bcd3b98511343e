import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interview_markets import runner
from interview_markets.cli import main as cli_main
from interview_markets.config import (
    _GENERATOR_KEYS,
    _TOP_KEYS,
    ALGORITHMS,
    MARKET_ALGORITHMS,
    ExperimentConfig,
    bandit_arms,
    build_market,
    config_from_dict,
    load_config,
)
from interview_markets.errors import ConfigError
from interview_markets.market import (
    RewardModel,
    enumerate_stable_matchings,
    gale_shapley,
    ground_truth_prefs,
    save_market,
)
from interview_markets.named_markets import EXAMPLE_NAMES, named_example
from interview_markets.runner import _write_csv, config_hash, run_experiment


def base_config(**overrides):
    raw = {
        "market": {"example": "coordfgs"},
        "algorithm": "cia",
        "firm_mode": "uncertain",
        "horizon": 400,
        "replications": 2,
        "base_seed": 5,
        "stride": 50,
    }
    raw.update(overrides)
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

    def test_load_config_reports_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
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
    ])
    def test_infeasible_generator_is_a_config_error(self, edits, fieldname):
        raw = base_config(market={"generator": {**_GENERATOR, **edits}})
        with pytest.raises(ConfigError, match=f"'market.generator.{fieldname}'"):
            config_from_dict(raw)

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
    def test_byte_identical_reruns(self, tmp_path):
        config = config_from_dict(base_config())
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

    def test_round_logs_written_on_request(self, tmp_path):
        config = config_from_dict(base_config(horizon=60, replications=1, log_rounds=True, stride=20))
        run_experiment(config, out_dir=str(tmp_path))
        rounds = (tmp_path / "rounds_rep0000.csv").read_text().splitlines()
        firms = (tmp_path / "firms_rep0000.csv").read_text().splitlines()
        assert rounds[0] == "t,agent,interviewed,applied,matched,reward"
        assert firms[0] == "t,firm,gamma,vacant"
        assert len(rounds) == 1 + 3 * 3  # rounds 20, 40, 60 for three agents

    def test_drr_emits_phase_log(self, tmp_path):
        config = config_from_dict(base_config(algorithm="drr", horizon=300, replications=1))
        run_experiment(config, out_dir=str(tmp_path))
        phases = (tmp_path / "phases_rep0000.csv").read_text().splitlines()
        assert phases[0] == "phase,t_gs,triggers,committed"
        assert phases[1].startswith("0,1,init,")

    def test_bandit_experiment_summary(self, tmp_path):
        config = config_from_dict(
            base_config(market={"arms": [0.9, 0.5, 0.2]}, algorithm="allprobe", horizon=1000)
        )
        summary = run_experiment(config, out_dir=str(tmp_path))
        assert summary["kind"] == "bandit"
        assert "ratio" in summary["plateau"]
        lines = (tmp_path / "series_rep0000.csv").read_text().splitlines()
        assert lines[0] == "t,hinted_regret"

    def test_pool_has_no_more_processes_than_jobs(self, monkeypatch):
        sizes = []

        class RecordingPool:  # records its size and runs the jobs in this process
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return [fn(job) for job in jobs]

        class Context:
            Pool = RecordingPool

        monkeypatch.setattr(runner.multiprocessing, "get_context", lambda method: Context)
        assert runner._map_reps(abs, [-1, -2], 8) == [1, 2]
        assert runner._map_reps(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert sizes == [2, 2]

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INTERVIEW_MARKETS_OUT", str(tmp_path / "envout"))
        config = config_from_dict(base_config(horizon=50, replications=1))
        run_experiment(config)
        assert (tmp_path / "envout" / "summary.json").exists()


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

    def test_run_end_to_end(self, tmp_path, capsys):
        path = self.write_config(tmp_path, horizon=50, replications=1)
        out_dir = tmp_path / "artifacts"
        assert cli_main(["run", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "manifest.json").exists()

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "interview_markets.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
