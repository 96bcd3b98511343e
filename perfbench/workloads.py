"""Workload definitions: experiment configs generated from a workload seed.

Each workload is a list of raw config dicts, exactly what a user would put in
a config file. The program under test only ever sees these configs; the
benchmark never reaches into a replication to steer it.

Seed rule: workload seed ``s`` shifts every replication ``base_seed`` by
``SEED_STRIDE * s``. Seed 0 reproduces the acceptance suite's seeds
(``base_seed`` 1, bandit ``base_seed`` 21 and 33). The market seed stays at
the acceptance suite's 424242 for every workload seed, so the markets and
their per-round cost stay fixed while the replications' random streams move.

``size`` scales every horizon; 1.0 is the benchmark, the benchmark's own
tests use a tiny fraction of it.
"""

from __future__ import annotations

MARKET_SEED = 424242
SEED_STRIDE = 1000  # larger than any replication count, so seeds never overlap
BANDIT_ARMS = [0.9, 0.75, 0.6, 0.45, 0.3]
BANDIT_ALGORITHMS = ("allprobe", "apem", "eap")

WORKERS = {"acceptance": 2, "scale": 1, "logged": 1}


def _generator(n: int, m: int, min_gap: float, **extra) -> dict:
    gen = {"n": n, "m": m, "min_gap": min_gap, "alpha_reducible": True,
           "market_seed": MARKET_SEED}
    gen.update(extra)
    return {"generator": gen}


def _horizon(base: int, size: float) -> int:
    return max(20, int(base * size))


def _acceptance(offset: int, size: float) -> list[tuple[str, dict]]:
    # The traffic the repo actually runs: the Tier-1 acceptance markets,
    # algorithms and seeds, scaled down. At 3x3 the per-round interpreter
    # overhead of engine, metrics, decentral and firms dominates; the only
    # workload with worker fan-out and with the hinted bandits. Many short
    # replications, as in the suite, keep the two workers evenly loaded.
    market3 = _generator(3, 3, 0.2)
    configs = []
    for algo in ("cia", "drr", "ancdrr"):
        configs.append((algo, {
            "market": market3, "algorithm": algo, "firm_mode": "uncertain",
            "horizon": _horizon(1000, size), "replications": 20,
            "base_seed": 1 + offset, "stride": 100,
        }))
    configs.append(("eancdrr", {
        "market": {"example": "drrs4"}, "algorithm": "eancdrr",
        "firm_mode": "uncertain", "lambda": 0.5,
        "horizon": _horizon(400, size), "replications": 40,
        "base_seed": 1 + offset, "stride": 100,
    }))
    for algo in ("allprobe", "apem"):
        configs.append((algo, {
            "market": {"arms": BANDIT_ARMS}, "algorithm": algo,
            "horizon": _horizon(2000, size), "replications": 20,
            "base_seed": 21 + offset, "stride": 1000,
        }))
    configs.append(("eap", {
        "market": {"arms": BANDIT_ARMS}, "algorithm": "eap", "target_rank": 2,
        "horizon": _horizon(800, size), "replications": 20,
        "base_seed": 33 + offset, "stride": 200,
    }))
    return configs


def _scale(offset: int, size: float) -> list[tuple[str, dict]]:
    # At 20x30 the work moves into estimation (pref_list re-sorts for cia,
    # argmax over candidate sets for ancdrr) and deferred acceptance; the
    # plain single-process baseline. Eight replications a config average out
    # how much each replication's seed changes the work.
    market = _generator(20, 30, 0.02)
    return [
        ("cia", {
            "market": market, "algorithm": "cia", "firm_mode": "uncertain",
            "horizon": _horizon(200, size), "replications": 8,
            "base_seed": 1 + offset, "stride": 50,
        }),
        ("ancdrr", {
            "market": market, "algorithm": "ancdrr", "firm_mode": "uncertain",
            "horizon": _horizon(150, size), "replications": 8,
            "base_seed": 1 + offset, "stride": 50,
        }),
    ]


def _logged(offset: int, size: float) -> list[tuple[str, dict]]:
    # Per-round CSV logging keeps every RoundOutcome and writes it out; the
    # truncated-Gaussian market sends every draw through draw_reward's
    # rejection loop; certain firms take the OracleEstimator path.
    return [
        ("ancdrr", {
            "market": _generator(3, 3, 0.2, reward_kind="gaussian", sigma=0.1),
            "algorithm": "ancdrr", "firm_mode": "certain",
            "horizon": _horizon(3000, size), "replications": 4,
            "base_seed": 1 + offset, "stride": 1, "log_rounds": True,
        }),
    ]


_BUILDERS = {"acceptance": _acceptance, "scale": _scale, "logged": _logged}
NAMES = tuple(_BUILDERS)


def workload_configs(name: str, seed: int, size: float = 1.0) -> list[tuple[str, dict]]:
    """(config name, raw config dict) pairs for one workload and seed."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    if seed < 0:
        raise ValueError(f"workload seed must be >= 0, got {seed}")
    return _BUILDERS[name](SEED_STRIDE * seed, size)


def algorithm_group(algorithm: str) -> str:
    """Throughput group: the market algorithm itself, or ``bandit``."""
    return "bandit" if algorithm in BANDIT_ALGORITHMS else algorithm
