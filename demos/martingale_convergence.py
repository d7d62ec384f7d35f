"""Monte Carlo look at the exponentially tilted particle-sum martingale.

For standard branching Brownian motion the statistic

    Y(s) = sum_i exp(-s (1 + sigma_b^2) + sqrt(2) sigma_b x_i(s))

has mean one for every horizon s and every tilt sigma_b < 1; at sigma_b = 0
it reduces to n(s) e^{-s}, whose law converges to Exp(1).  This script
estimates the mean across horizons and tilts and prints the Exp(1)
goodness of fit for the untilted case.

    python3 demos/martingale_convergence.py --replicates 2000

The goodness of fit uses scipy.stats.kstest, so this demo needs scipy,
which the package itself does not (``pip install -e '.[test]'``).
"""

import argparse
import math

import numpy as np
from scipy.stats import kstest

from vsbbm.extremal import mckean_martingale
from vsbbm.genealogy import OffspringDistribution, sample_tree, seed_stream, tree_rng
from vsbbm.sampler import ParticleConfiguration, sample_leaf_positions
from vsbbm.speed import identity_profile


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--replicates", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    offspring = OffspringDistribution.binary()
    prof = identity_profile()
    tilts = (0.0, 0.3, 0.6)

    print("horizon  sigma_b  mean(Y)  std_err")
    for s in (4.0, 6.0, 8.0):
        rng = tree_rng(seed_stream(args.seed, 0, f"horizon:{s:g}"))
        vals = {sb: np.empty(args.replicates) for sb in tilts}
        leaf_counts = np.empty(args.replicates)
        for i in range(args.replicates):
            tree = sample_tree(offspring, s, rng=rng)
            pos = sample_leaf_positions(tree, prof, s, rng)
            cfg = ParticleConfiguration(profile=prof, horizon=s, leaf_positions=pos)
            leaf_counts[i] = tree.n_leaves
            for sb in tilts:
                vals[sb][i] = mckean_martingale(cfg, sb)
        for sb in tilts:
            v = vals[sb]
            se = v.std(ddof=1) / math.sqrt(args.replicates)
            print(f"{s:7.1f}  {sb:7.1f}  {v.mean():7.4f}  {se:7.4f}")
        stat = kstest(leaf_counts * math.exp(-s), "expon").statistic
        print(f"         KS distance of n({s:.0f})e^-{s:.0f} from Exp(1): {stat:.4f}")


if __name__ == "__main__":
    main()
