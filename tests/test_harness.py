import json
import subprocess
import sys

import pytest

from interview_markets.cli import main as cli_main
from interview_markets.config import (
    bandit_arms,
    build_market,
    config_from_dict,
    load_config,
)
from interview_markets.errors import ConfigError
from interview_markets.market import (
    enumerate_stable_matchings,
    gale_shapley,
    ground_truth_prefs,
    save_market,
)
from interview_markets.named_markets import EXAMPLE_NAMES, named_example
from interview_markets.runner import config_hash, run_experiment


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


def config_with(fieldname, value):
    """A valid config with one top-level or generator field replaced."""
    if fieldname.startswith("market.generator."):
        key = fieldname.rsplit(".", 1)[1]
        return base_config(market={"generator": {**_GENERATOR, key: value}})
    if fieldname == "target_rank":
        return base_config(algorithm="eap", market={"arms": [0.9, 0.5]}, target_rank=value)
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

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("INTERVIEW_MARKETS_OUT", str(tmp_path / "envout"))
        config = config_from_dict(base_config(horizon=50, replications=1))
        run_experiment(config)
        assert (tmp_path / "envout" / "summary.json").exists()


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
