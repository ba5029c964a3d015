#!/usr/bin/env python3
"""Head-to-head filter comparison on level-shifted planted scores.

Each pyramid level draws its confidences from its own two-component
mixture, with the component means shifted per level so that one level's
positives score below another level's negatives. Per-level thresholds
(MPF) adapt to each level; a single pooled threshold (CPF) cannot. The
experiment repeats the simulation over paired seeds and reports mean
selection F1 per mode plus an exact sign test.

Usage:
    python scripts/mpf_vs_cpf_experiment.py --repeats 50 --rounds 2 --seed 100
"""

import argparse

from spwood.filtering import PyramidLevel
from spwood.pipeline import LevelPlan, SimScenario, paired_comparison


def shifted_scenario(rounds: int, n_pos: int, n_neg: int) -> SimScenario:
    plans = []
    for i, level in enumerate(PyramidLevel):
        mu_n = 0.06 + 0.12 * i
        plans.append(LevelPlan(level, n_pos, n_neg, mu_n + 0.34, mu_n, 0.04))
    return SimScenario(tuple(plans), rounds=rounds, seed=0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--n-pos", type=int, default=150)
    parser.add_argument("--n-neg", type=int, default=450)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()

    scenario = shifted_scenario(args.rounds, args.n_pos, args.n_neg)
    print("level plan (positives | negatives per round):")
    for plan in scenario.levels:
        print(
            f"  {plan.level.value}: N({plan.mu_p:.2f}, {plan.sigma}^2) x {plan.n_pos}"
            f" | N({plan.mu_n:.2f}, {plan.sigma}^2) x {plan.n_neg}"
        )

    summary = paired_comparison(scenario, args.repeats, base_seed=args.seed)
    print(f"\nper-seed mean F1 over {args.rounds} round(s):")
    print("seed   mpf_f1   cpf_f1")
    for i, (mpf, cpf) in enumerate(summary.reports[:10]):
        print(f"{args.seed + i:5d}  {mpf.mean_f1:.4f}   {cpf.mean_f1:.4f}")
    if args.repeats > 10:
        print(f"... ({args.repeats - 10} more seeds)")
    print(f"\n{summary.describe()}")
    verdict = "MPF outperforms CPF" if summary.mpf_mean_f1 > summary.cpf_mean_f1 else "no MPF advantage"
    print(f"conclusion: {verdict} (one-sided sign test p = {summary.sign_test_p:.3g})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
