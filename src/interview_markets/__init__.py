"""Bandit learning of stable matchings in two-sided markets with interviews."""

__version__ = "0.1.0"

from .market import (  # noqa: F401
    Market,
    Matching,
    PrefList,
    RewardModel,
    StableSet,
    alpha_reducibility,
    blocking_pairs,
    enumerate_stable_matchings,
    gale_shapley,
    generate_alpha_reducible,
    generate_market,
    ground_truth_prefs,
    load_market,
    save_market,
)
from .estimation import (  # noqa: F401
    EstimatorState,
    OracleEstimator,
    validity,
)
from .engine import AgentFeedback, AgentPlan, RoundOutcome, run_horizon  # noqa: F401
from .named_markets import EXAMPLE_NAMES, named_example  # noqa: F401
from .config import ExperimentConfig, load_config  # noqa: F401
from .runner import run_experiment  # noqa: F401
