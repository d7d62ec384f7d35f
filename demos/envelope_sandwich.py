"""Gaussian-comparison sandwich for exceedance Laplace functionals.

Builds the two-speed envelopes around the profile A(x) = x^2 (each a
``two_speed`` profile, its kink where its two slopes' lines through (0, 0)
and (1, 1) cross; the lower one starts flat and leaves 0 at its kink), couples
all three fields on shared genealogies and one shared Gaussian draw, and
checks cell by cell that the empirical Laplace functional of exceedance
counts above the centered level u sits between the envelope values (up to
Monte Carlo error).  The coupling pairs the gaps, whose paired standard
errors are printed beside them.

    python3 demos/envelope_sandwich.py --replicates 1000
"""

import argparse

from vsbbm.compare import collect_exceedances, sandwich_report
from vsbbm.genealogy import OffspringDistribution
from vsbbm.speed import build_envelopes, power_profile


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t", type=float, default=10.0)
    ap.add_argument("--replicates", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    prof = power_profile(2)
    env = build_envelopes(prof, args.t)
    print(
        f"envelope kinks at t = {args.t}: upper {env.kink_upper:.4f}, "
        f"lower {env.kink_lower:.4f}"
    )

    u_grid = [-6.0, -4.0, -2.0, 0.0, 2.0]
    c_grid = [0.1, 0.5, 2.0]
    counts = collect_exceedances(
        OffspringDistribution.binary(),
        {"a": prof, "up": env.upper, "low": env.lower},
        args.t,
        u_grid,
        replicates=args.replicates,
        seed=args.seed,
    )
    report = sandwich_report(counts["a"], counts["up"], counts["low"], u_grid, c_grid)
    print("u      c     L_lower  L_A     L_upper  gap_up (SE)        gap_low (SE)       verdict")
    for cell in report["cells"]:
        ok = cell["pass_upper"] and cell["pass_lower"]
        print(
            f"{cell['u']:5.1f}  {cell['c']:4.1f}  {cell['L_low']:.4f}   "
            f"{cell['L_A']:.4f}  {cell['L_up']:.4f}   "
            f"{cell['gap_upper']:+.4f} ({cell['SE_gap_upper']:.4f})  "
            f"{cell['gap_lower']:+.4f} ({cell['SE_gap_lower']:.4f})  "
            f"{'ok' if ok else 'VIOLATED'}"
        )
    print(f"\n{report['n_pass']}/{report['n_cells']} cells consistent")


if __name__ == "__main__":
    main()
