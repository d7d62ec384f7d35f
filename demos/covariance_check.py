"""Empirical check of the time-inhomogeneous covariance structure.

Freeze a single genealogy, redraw the Gaussian field on it many times, and
compare the sample covariance of leaf pairs against the model value
t * A(d/t), where d is the time the two lineages spent together.  Run as

    python3 demos/covariance_check.py --redraws 20000
"""

import argparse
import math

from vsbbm.genealogy import OffspringDistribution, sample_tree, seed_stream, tree_rng
from vsbbm.sampler import covariance_oracle, sample_leaf_positions
from vsbbm.speed import identity_profile, two_speed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t", type=float, default=4.0)
    ap.add_argument("--redraws", type=int, default=20000)
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # one named stream each for the tree, the leaf pairs and the Gaussian
    # redraws; both profiles redraw from the same gauss stream
    tree = sample_tree(OffspringDistribution.binary(), args.t, seed=seed_stream(args.seed, 0, "tree"))
    print(f"frozen tree: {tree.n_leaves} leaves at t = {args.t}")

    pair_rng = tree_rng(seed_stream(args.seed, 0, "pairs"))
    for prof in (identity_profile(), two_speed(0.5, 2.0, 2.0 / 3.0)):
        gauss = tree_rng(seed_stream(args.seed, 0, "gauss"))
        pos = sample_leaf_positions(tree, prof, args.t, gauss, n_draws=args.redraws)
        print(f"\nprofile {prof.label}: pair  empirical  model  z-score")
        for _ in range(args.pairs):
            i, j = pair_rng.choice(tree.n_leaves, size=2, replace=False)
            prods = (pos[:, i] - pos[:, i].mean()) * (pos[:, j] - pos[:, j].mean())
            se = prods.std(ddof=1) / math.sqrt(args.redraws)
            model = covariance_oracle(
                tree, prof, int(tree.leaf_ids[i]), int(tree.leaf_ids[j]), args.t
            )
            z = (prods.mean() - model) / se
            print(f"  ({i:3d},{j:3d})  {prods.mean():8.4f}  {model:8.4f}  {z:+5.2f}")


if __name__ == "__main__":
    main()
