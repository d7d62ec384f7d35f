"""Monte Carlo look at the exponentially tilted particle-sum martingale.

For standard branching Brownian motion the statistic

    Y(s) = sum_i exp(-s (1 + sigma_b^2) + sqrt(2) sigma_b x_i(s))

has mean one for every horizon s and every tilt sigma_b < 1; at sigma_b = 0
it reduces to n(s) e^{-s}, whose law converges to Exp(1).  This script
estimates the mean across horizons and tilts and prints the Exp(1)
goodness of fit for the untilted case.  The replicates grow in forest
blocks (``sampler.forest_batches``), and every tilt is evaluated on the
same positions.

    python3 demos/martingale_convergence.py --replicates 2000

The goodness of fit uses scipy.stats.kstest, so this demo needs scipy,
which the package itself does not (``pip install -e '.[test]'``).
"""

import argparse
import math

import numpy as np
from scipy.stats import kstest

from vsbbm.extremal import forest_mckean
from vsbbm.genealogy import OffspringDistribution, run_replicates, seed_stream
from vsbbm.sampler import block_size, forest_batches
from vsbbm.speed import identity_profile

TILTS = (0.0, 0.3, 0.6)


def tilted_sums(seed, s, blocks):
    """Y(s) at every tilt of ``TILTS`` per replicate of ``blocks``."""
    prof = identity_profile()
    rows = []
    for leaf_tree, (pos,), n in forest_batches(seed, s, OffspringDistribution.binary(), (prof,), blocks):
        rows += np.stack([forest_mckean(leaf_tree, pos, n, prof, s, sb) for sb in TILTS], axis=1).tolist()
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--replicates", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("horizon  sigma_b  mean(Y)  std_err")
    for s in (4.0, 6.0, 8.0):
        # one master seed per horizon, so that horizons draw apart
        master = seed_stream(args.seed, 0, f"horizon:{s:g}")
        vals = np.array(run_replicates(tilted_sums, (master, s), args.replicates, block=block_size(s)))
        for sb, v in zip(TILTS, vals.T):
            se = v.std(ddof=1) / math.sqrt(args.replicates)
            print(f"{s:7.1f}  {sb:7.1f}  {v.mean():7.4f}  {se:7.4f}")
        # Y(s) at sigma_b = 0 is n(s) e^{-s}
        stat = kstest(vals[:, 0], "expon").statistic
        print(f"         KS distance of n({s:.0f})e^-{s:.0f} from Exp(1): {stat:.4f}")


if __name__ == "__main__":
    main()
