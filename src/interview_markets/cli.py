"""Command-line interface: run, validate, examples, stable."""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import experiment_source, load_config
from .errors import ConfigError, MarketError, SizeError
from .market import enumerate_stable_matchings, load_market
from .metrics import min_gaps
from .named_markets import EXAMPLE_NAMES
from .runner import resolve_out_dir, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interview-markets",
        description="Seed-reproducible matching-market learning experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("config", help="path to a JSON config file")
    run.add_argument("--out", help="output directory (overrides config and env)")
    run.add_argument(
        "--workers", type=int, default=1, help="parallel replication workers"
    )

    val = sub.add_parser("validate", help="check a config without running it")
    val.add_argument("config", help="path to a JSON config file")

    sub.add_parser("examples", help="list the built-in example markets")

    stable = sub.add_parser("stable", help="print the stable set of a market file")
    stable.add_argument("market", help="path to a market JSON file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            if args.out == "":  # else the config's or the default directory is used
                raise ConfigError("--out must be a non-empty path")
            config = load_config(args.config)
            summary = run_experiment(config, out_dir=args.out, workers=args.workers)
            out = resolve_out_dir(config, args.out)
            print(f"wrote {summary['replications']} replication series to {out}")
            return 0
        if args.command == "validate":
            experiment_source(load_config(args.config))
            print("config ok")
            return 0
        if args.command == "examples":
            for name in EXAMPLE_NAMES:
                print(name)
            return 0
        if args.command == "stable":
            market = load_market(args.market)
            stable_set = enumerate_stable_matchings(market)
            print(f"{len(stable_set.matchings)} stable matching(s)")
            for matching in stable_set.matchings:
                pairs = ", ".join(
                    f"a{a + 1}-f{f + 1}" for a, f in matching.pairs()
                )
                print(f"  {pairs}")
            best = " ".join(f"a{a + 1}:f{f + 1}" for a, f in enumerate(stable_set.best_partner))
            worst = " ".join(f"a{a + 1}:f{f + 1}" for a, f in enumerate(stable_set.worst_partner))
            print(f"agent-optimal partners: {best}")
            print(f"agent-pessimal partners: {worst}")
            for side, gaps in zip(("agent", "firm"), min_gaps(market, stable_set.best_partner)):
                cells = " ".join(f"{side[0]}{i + 1}:{g:.4g}" for i, g in enumerate(gaps))
                print(f"{side} minimum gaps: {cells}")
            return 0
    except (ConfigError, MarketError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. a missing market file for ``stable``
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
