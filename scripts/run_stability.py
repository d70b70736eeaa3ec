#!/usr/bin/env python3
"""Out-of-sample stability comparison on synthetic one-factor data.

Sweeps seeds and prints, per method, how often it achieves the lowest
out-of-sample off-diagonal error, plus mean errors and realized
minimum-variance portfolio variance.
"""

import argparse
from collections import Counter

import numpy as np

import covreg as cr
from covreg.harness import MethodConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-assets", type=int, default=30)
    ap.add_argument("--n-obs", type=int, default=120)
    ap.add_argument("--factor-variance", type=float, default=0.25)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--split", type=float, default=0.5)
    args = ap.parse_args()

    methods = [
        MethodConfig(kind="scm_ridge", q=0.01),
        MethodConfig(kind="shrink", q=0.5, target_kind="diagonal"),
        MethodConfig(kind="shrink", q=0.5, target_kind="constant_correlation"),
        MethodConfig(kind="truncated_pc", f_hat=1, target_kind="diagonal"),
    ]

    wins = Counter()
    sums = {m.label: np.zeros(3) for m in methods}
    for seed in range(args.seeds):
        spec = cr.SyntheticSpec(
            n_assets=args.n_assets, n_obs=args.n_obs, seed=seed,
            beta=np.ones(args.n_assets), factor_variance=args.factor_variance,
        )
        report = cr.stability_experiment(
            cr.generate_panel(spec), args.split, methods,
            truth=spec.true_covariance(),
        )
        best = min(report.records, key=lambda r: r.out_of_sample_error)
        wins[best.label] += 1
        for rec in report.records:
            sums[rec.label] += [
                rec.out_of_sample_error,
                rec.truth_error,
                rec.realized_variance if rec.invertible else np.nan,
            ]

    print(f"{'method':<40} {'wins':>5} {'out_err':>10} {'truth_err':>10} "
          f"{'real_var':>10}")
    for m in methods:
        out_err, truth_err, rv = sums[m.label] / args.seeds
        print(f"{m.label:<40} {wins[m.label]:>5} {out_err:>10.4f} "
              f"{truth_err:>10.4f} {rv:>10.4f}")


if __name__ == "__main__":
    main()
