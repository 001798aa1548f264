#!/usr/bin/env python3
"""Monte Carlo validation: seeded waiting-time simulations against the exact
distribution for the six essential words, with z-scores for the means."""

import argparse
import math

from coinwords.counting import ESSENTIAL_WORDS
from coinwords.montecarlo import TrialConfig, run_trials
from coinwords.stats import moments, tail
from reproduce_tables import LANDMARKS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=20250810)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()

    print(f"trials={args.trials} seed={args.seed} workers={args.workers}")
    print(f"{'word':<5} {'exact mean':>10} {'empirical':>10} {'z':>6}   "
          f"{'exact P(>=N)':>12} {'empirical':>10}")
    for w in ESSENTIAL_WORDS:
        st = moments(w)
        cfg = TrialConfig(word=w, trials=args.trials, seed=args.seed)
        summary = run_trials(cfg, workers=args.workers)
        z = (summary.mean - float(st.mean)) / (st.stddev / math.sqrt(summary.count))
        landmark = LANDMARKS[w.letters]
        exact_tail = float(tail(w, landmark))
        emp_tail = summary.tail_fraction(landmark)
        print(
            f"{w!s:<5} {float(st.mean):>10.4f} {summary.mean:>10.4f} {z:>+6.2f}   "
            f"{exact_tail:>12.6f} {emp_tail:>10.6f}"
        )
        if summary.truncated:
            print(f"      warning: {summary.truncated} truncated trials")


if __name__ == "__main__":
    main()
