"""Decoration clusters thin out as the end slope grows.

Describes branching Brownian motion with a particle at the atypically
high level sqrt(2) sigma_e t by the spine sampler: a Brownian bridge to
that level with size-biased BBM subtrees immigrating along it.  It records
the atoms of the recentered configuration and estimates the probability
that more than one atom lands in a fixed window below the top.  Larger
sigma_e should push that probability down; the analytic first-moment
bound is printed alongside.  The first-moment acceptance rate printed
first shows why plain rejection sampling is not used at these levels.

    python3 demos/cluster_collapse.py --replicates 300
"""

import argparse

from vsbbm.cluster import acceptance_estimate, decoration_collapse_study


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t", type=float, default=3.0)
    ap.add_argument("--R", type=float, default=2.0)
    ap.add_argument("--replicates", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sigmas = [1.2, 1.5, 2.0]
    for sig in sigmas:
        acc = acceptance_estimate(sig, args.t)
        print(f"sigma_e = {sig}: expected rejection acceptance ~ {acc:.3e}")

    rows = decoration_collapse_study(
        sigmas, R=args.R, t=args.t, replicates=args.replicates, seed=args.seed
    )
    print("\nsigma_e  P(>1 atom)  std_err  analytic bound")
    for r in rows:
        print(
            f"{r['sigma_e']:7.2f}  {r['estimate']:10.3f}  {r['std_error']:7.3f}  "
            f"{r['analytic_bound']:14.4g}"
        )


if __name__ == "__main__":
    main()
