#!/usr/bin/env python3
"""Regret curves for the three probe-and-pull bandit algorithms.

Runs allprobe, apem, and eap over the same arm set and prints the averaged
cumulative hinted regret at decade checkpoints.
"""

import argparse
from pathlib import Path

from interview_markets.config import config_from_dict
from interview_markets.market import rank_order
from interview_markets.runner import run_experiment


def target_share(top_pulled: list[int], arms: list[float], target_rank: int) -> float:
    """Share of replications whose most-pulled arm (1-based, as in
    ``summary.json``) is the arm of mean rank ``target_rank``."""
    target = rank_order(arms)[target_rank - 1] + 1
    return sum(1 for x in top_pulled if x == target) / len(top_pulled)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--arms", type=float, nargs="+", default=[0.9, 0.75, 0.6, 0.45, 0.3]
    )
    parser.add_argument("--horizon", type=int, default=100_000)
    parser.add_argument("--replications", type=int, default=50)
    parser.add_argument("--base-seed", type=int, default=21)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--target-rank", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default="out/hinted-suite")
    args = parser.parse_args(argv)

    for algo in ("allprobe", "apem", "eap"):
        raw = {
            "market": {"arms": args.arms},
            "algorithm": algo,
            "horizon": args.horizon,
            "replications": args.replications,
            "base_seed": args.base_seed,
            "stride": max(1, args.horizon // 50),
        }
        if algo in ("allprobe", "eap"):
            raw["epsilon"] = args.epsilon
        if algo == "eap":
            raw["target_rank"] = args.target_rank
        config = config_from_dict(raw)
        summary = run_experiment(
            config, out_dir=str(Path(args.out) / algo), workers=args.workers
        )
        marks = summary["checkpoints"]
        mean = summary["regret"]["mean"]
        points = "  ".join(f"t={t}: {r:.2f}" for t, r in zip(marks, mean))
        print(f"{algo:<9} plateau {summary['plateau']['ratio']:.3f}  {points}")
        if algo == "eap":
            share = target_share(summary["last_quarter_top_pulled"], args.arms,
                                 args.target_rank)
            print(
                f"          rank-{args.target_rank} arm most pulled in the final"
                f" quarter in {share:.0%} of replications"
            )


if __name__ == "__main__":
    main()
