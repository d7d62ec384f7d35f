"""Track the reaction-diffusion front and its logarithmic delay.

Integrates u_t = u_xx / 2 + (1 - u) - sum_k p_k (1 - u)^k from Heaviside
data and prints the u = 1/2 level set against the two candidate centerings
sqrt(2) t - c log(t) / (2 sqrt(2)) with c = 1 and c = 3.  The front minus
sqrt(2) t makes the log-delay visible directly.

    python3 demos/fkpp_front.py --t-end 30 --dx 0.1
"""

import argparse
import math

from vsbbm.extremal import centering
from vsbbm.fkpp import solve_heaviside
from vsbbm.genealogy import OffspringDistribution


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-end", type=float, default=30.0)
    ap.add_argument("--dx", type=float, default=0.1)
    args = ap.parse_args()

    offspring = OffspringDistribution.binary()
    sqrt2 = math.sqrt(2.0)
    track = solve_heaviside(offspring, args.t_end, dx=args.dx).track
    print("t      front   front-sqrt2*t   vs tilde     vs standard")
    stride = max(1, len(track) // 10)
    for t, x in track[stride - 1 :: stride]:
        if t < 1.0:
            continue
        print(
            f"{t:5.1f}  {x:7.3f}  {x - sqrt2 * t:10.3f}  "
            f"{x - centering(t, 'tilde'):10.3f}  {x - centering(t, 'standard'):10.3f}"
        )
    t, x = track[-1]
    print(f"\nfinal offset from the standard centering: {x - centering(t, 'standard'):+.3f}")


if __name__ == "__main__":
    main()
