"""The cluster seen from a high particle: the spine construction with
size-biased branching and the collapse study built on it.

The spine description (a bridge to the high point with rate-2
immigration) conditions on a particle AT the level sqrt2 sigma_e t + y,
so it scales to levels where conditioning standard BBM on its maximum by
rejection would almost never accept (``acceptance_estimate``).
``decoration_collapse_study`` runs ``_collapse`` once per forest block,
one ``spine`` generator per block: the block draws the skeletons of all
its spines, then grows their immigrants as one forest on that generator.
``spine_sample`` is the block of one spine.  ``collapse_bound``, the
analytic bound reported beside each estimate, integrates with a numpy
exp-sinh rule, so a run needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vsbbm import sampler
from vsbbm.genealogy import OffspringDistribution, run_replicates, sample_forest, seed_stream, tree_rng
from vsbbm.sampler import forest_leaf_positions
from vsbbm.speed import identity_profile

SQRT2 = math.sqrt(2.0)
IDENTITY = identity_profile()


def acceptance_estimate(sigma_e: float, t: float) -> float:
    """First-moment estimate e^t P(N(0,t) > sqrt2 sigma_e t) of the
    probability that standard BBM has a particle above sqrt2 sigma_e t at
    time t: the acceptance rate of conditioning on that event by
    rejection, which the spine sampler does without."""
    level = SQRT2 * sigma_e * t
    return math.exp(t) * 0.5 * math.erfc(level / math.sqrt(2.0 * t))


def size_biased_offspring_probs(offspring: OffspringDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Law of the number of immigrant subtrees at a spine branch point:
    P(nu = k-1) = k p_k / 2 (the mean-2 normalization makes this exact)."""
    nus = offspring.ks - 1
    probs = offspring.ks * offspring.ps / 2.0
    return nus, probs


@dataclass(frozen=True, eq=False)
class SpineRealization:
    """A spine bridge to a high endpoint with Poisson(2) immigration."""

    horizon: float
    sigma_e: float
    endpoint: float
    branch_times: np.ndarray
    spine_values: np.ndarray
    offspring_counts: np.ndarray
    subtree_configs: list  # leaf positions of each immigrant subtree, in birth order
    atoms: np.ndarray  # all particle positions minus sqrt2 sigma_e t, descending


def _spine_skeletons(sigma_e, y, t: float, offspring: OffspringDistribution, rng):
    """The draws of the spines to sqrt2 sigma_e[i] t + y[i] before their
    immigrants grow, every spine at once: the branch points that carry
    immigrants, the bridge at them and the immigrant count nu of each.
    Returns (spine, branch_times, spine_values, counts), one entry per
    point, grouped by spine and in time order within a spine.

    A point with nu = 0 adds nothing, so only the points with nu >= 1 are
    drawn: Poisson(2t(1 - p_1/2)) per spine, each with nu from the
    size-biased law given nu >= 1, fixed for binary and (1,3) laws.  The
    bridge to z is z s/t + W(s) - (s/t) W(t), with W drawn at a spine's
    points from its own increments and then at t."""
    sigma_e, y = np.asarray(sigma_e, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if np.any(sigma_e <= 1):
        raise ValueError("sigma_e must exceed 1")
    if np.any(y < 0):
        raise ValueError("y must be nonnegative")
    nus, probs = size_biased_offspring_probs(offspring)
    nus, probs = nus[nus >= 1], probs[nus >= 1]
    rate = probs.sum()  # P(nu >= 1) = 1 - p_1/2
    n_points = rng.poisson(2.0 * t * rate, size=len(sigma_e))
    spine = np.arange(len(sigma_e)).repeat(n_points)
    times = rng.uniform(0.0, t, size=len(spine))
    times = times[np.lexsort((times, spine))]
    # a spine's points are first:last + 1; its W starts from 0 at time 0
    last = n_points.cumsum() - 1
    first = last + 1 - n_points
    has = n_points > 0
    gaps = np.diff(times, prepend=0.0)
    gaps[first[has]] = times[first[has]]
    w = (np.sqrt(gaps) * rng.standard_normal(len(times))).cumsum()
    w -= np.concatenate([[0.0], w])[first].repeat(n_points)
    w_t = np.zeros(len(sigma_e))
    w_t[has] = w[last[has]] + np.sqrt(t - times[last[has]]) * rng.standard_normal(int(has.sum()))
    ray = times / t
    spine_values = ray * (SQRT2 * sigma_e * t + y)[spine] + (w - ray * w_t[spine])
    counts = rng.choice(nus, size=len(spine), p=probs / rate) if len(nus) > 1 else nus.repeat(len(spine))
    return spine, times, spine_values, counts


def _immigrant_leaves(times, values, counts, t, offspring, rng) -> tuple[np.ndarray, np.ndarray]:
    """Leaves of the immigrant trees of the branch points ``times`` with
    spine ``values`` and immigrant ``counts``, grown as one forest on
    ``rng``: ``counts[i]`` trees rooted at ``times[i]``, placed by one
    ``standard_normal`` draw over the forest's nodes and shifted by
    ``values[i]``.  Returns the leaf positions and the tree of each leaf,
    trees in point order."""
    # uniform(0, t) lies in [0, t), so every immigrant is born before t
    tree = sample_forest(offspring, t, rng, starts=times.repeat(counts))
    leaf_tree = tree.leaf_tree
    return forest_leaf_positions(tree, (IDENTITY,), t, rng)[0] + values.repeat(counts)[leaf_tree], leaf_tree


def spine_sample(
    sigma_e: float,
    y: float,
    t: float,
    offspring: OffspringDistribution,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> SpineRealization:
    """Palm-style description of BBM with a particle at sqrt2 sigma_e t + y.

    The spine is a Brownian bridge to that endpoint; branch points follow a
    Poisson process of intensity 2 on [0, t]; at each, a size-biased number
    of independent standard BBMs of the remaining duration immigrate at the
    spine position; only the points with at least one immigrant are drawn,
    so ``branch_times`` holds those.  All immigrants grow as one forest,
    rooted at their branch times, and take their positions from one
    Gaussian draw, all on the generator ``rng``, or ``tree_rng(seed)``;
    exactly one of ``seed`` and ``rng`` is given, else TypeError.
    It is the block of one spine of ``decoration_collapse_study``, and
    draws as such a block does.
    """
    if (seed is None) == (rng is None):
        raise TypeError("spine_sample takes exactly one of seed and rng")
    if rng is None:
        rng = tree_rng(seed)
    _, branch_times, spine_values, counts = _spine_skeletons([sigma_e], [y], t, offspring, rng)
    subtrees = []
    leaf_pos = np.empty(0)
    if counts.sum():
        leaf_pos, leaf_tree = _immigrant_leaves(branch_times, spine_values, counts, t, offspring, rng)
        ends = np.bincount(leaf_tree, minlength=counts.sum()).cumsum()
        subtrees = np.split(leaf_pos[leaf_tree.argsort(kind="stable")], ends[:-1])
    # the spine endpoint itself is the atom y
    atoms = np.sort(np.concatenate([[y], leaf_pos - SQRT2 * sigma_e * t]))[::-1]
    return SpineRealization(
        horizon=t,
        sigma_e=sigma_e,
        endpoint=SQRT2 * sigma_e * t + y,
        branch_times=branch_times,
        spine_values=spine_values,
        offspring_counts=counts,
        subtree_configs=subtrees,
        atoms=atoms,
    )


# the exp-sinh rule of collapse_bound: the trapezoid rule in tau on
# [-TAU_MAX, TAU_MAX], from step FIRST_STEP halved at most MAX_HALVINGS times
# until two estimates agree to RTOL relative
TAU_MAX = 4.5
FIRST_STEP = 1.0 / 8.0
MAX_HALVINGS = 10
RTOL = 1e-12
# the exponent of the tube (sigma_e s)^GAMMA in collapse_bound's integrand
GAMMA = 0.75


def _exp_sinh_sum(log_f, lo: float, h: float) -> float:
    """Log of the step-h trapezoid sum of int_lo^inf e^{log_f(s)} ds under
    s = lo + exp(pi/2 sinh tau); each term is exp(exponent + log weight),
    taken relative to the largest, so no factor overflows on its own."""
    n = round(TAU_MAX / h)
    tau = np.arange(-n, n + 1) * h
    log_u = 0.5 * np.pi * np.sinh(tau)
    x = log_f(lo + np.exp(log_u)) + log_u + np.log(0.5 * np.pi * np.cosh(tau))
    top = x.max()
    return float(top + math.log(h * np.exp(x - top).sum()))


def _exp_sinh(log_f, lo: float) -> tuple[float, float]:
    """(log of int_lo^inf e^{log_f(s)} ds, the step it converged at): the
    step halves until two successive sums agree to ``RTOL`` relative."""
    h = FIRST_STEP
    prev = _exp_sinh_sum(log_f, lo, h)
    for _ in range(MAX_HALVINGS):
        h /= 2.0
        cur = _exp_sinh_sum(log_f, lo, h)
        if abs(math.expm1(prev - cur)) <= RTOL:
            return cur, h
        prev = cur
    raise ArithmeticError(f"exp-sinh rule did not converge by step {h:g}")


def _collapse_exponent(sigma_e: float, R: float, gamma: float):
    """s -> (1 - sigma_e^2) s + sqrt2 sigma_e (R + (sigma_e s)^gamma)."""
    a = 1.0 - sigma_e**2
    b = SQRT2 * sigma_e
    return lambda s: a * s + b * (R + (sigma_e * s) ** gamma)


def collapse_bound(sigma_e: float, R: float, K: float) -> float:
    """Analytic bound 2K sigma_e^{-1/2} + 2K int e^{(1-sigma_e^2)s +
    sqrt2 sigma_e (R + (sigma_e s)^GAMMA)} ds on the multi-atom probability,
    the integral over [sigma_e^{-1/2}, inf) by a double-exponential
    (exp-sinh) rule that halves its step until it converges.

    Raises ValueError for sigma_e <= 1, where the integral diverges, and
    OverflowError when the bound exceeds double precision, as it does for
    sigma_e near 1 (sigma_e = 1.02, R = 2)."""
    if sigma_e <= 1:
        raise ValueError("sigma_e must exceed 1")
    log_val, _ = _exp_sinh(_collapse_exponent(sigma_e, R, GAMMA), sigma_e**-0.5)
    try:
        bound = 2.0 * K * (sigma_e**-0.5 + math.exp(log_val))
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise OverflowError(
            f"collapse bound at sigma_e = {sigma_e}, R = {R} is not finite in double "
            f"precision (log of its integral {log_val:.1f})"
        )
    return bound


def collapse_block(t: float, offspring: OffspringDistribution, n_sigma: int) -> int:
    """Replicates per forest block of the collapse study:
    max(1, floor(``sampler.FOREST_NODE_BUDGET`` / expected immigrant nodes
    of one replicate)), one replicate being ``n_sigma`` spines."""
    # expected immigrant nodes of a spine: branch points at rate 2 with K/2
    # immigrants each on average, and a tree rooted at s has 2e^(t-s) - 1
    # nodes on average, so K (2(e^t - 1) - t) in all
    nodes = n_sigma * offspring.K * (2.0 * math.expm1(t) - t)
    return max(1, int(sampler.FOREST_NODE_BUDGET / max(nodes, 1.0)))


def _collapse(sigma_e_list, R, t, offspring, y_mode, seed, block):
    """Per replicate of the forest block ``block`` (a ``range``, as
    ``run_replicates`` hands it), per sigma_e: 1 if its spine puts more
    than one atom in [-R, inf), else 0.

    The block draws from ``tree_rng(seed_stream(seed, block.start,
    "spine"))``: the skeletons of all its spines, replicate-major, in one
    set of draws, then their immigrants as one forest.  With ``y_mode``
    "exponential" ``tree_rng(seed_stream(seed, block.start,
    "overshoot"))`` draws every spine's overshoot in one call."""
    sigma_e = np.tile(sigma_e_list, len(block))
    y = np.zeros(len(sigma_e))
    if y_mode == "exponential":
        y = tree_rng(seed_stream(seed, block.start, "overshoot")).exponential(1.0 / (SQRT2 * sigma_e))
    rng = tree_rng(seed_stream(seed, block.start, "spine"))
    spine, times, values, counts = _spine_skeletons(sigma_e, y, t, offspring, rng)
    # the endpoint atom y, then every immigrant leaf at or above -R
    atoms = (y >= -R).astype(np.int64)
    if counts.sum():
        leaf_pos, leaf_tree = _immigrant_leaves(times, values, counts, t, offspring, rng)
        spine = spine.repeat(counts)[leaf_tree]
        atoms += np.bincount(spine[leaf_pos - SQRT2 * sigma_e[spine] * t >= -R], minlength=len(sigma_e))
    return (atoms > 1).astype(int).reshape(len(block), -1).tolist()


def decoration_collapse_study(
    sigma_e_list,
    R: float,
    t: float,
    replicates: int,
    seed: int,
    offspring: OffspringDistribution | None = None,
    y_mode: str = "zero",
    workers: int = 1,
) -> list[dict]:
    """Estimate P(more than one atom in [-R, inf)) per sigma_e via the spine
    sampler, together with the analytic integrand bound.

    y_mode="zero" pins the spine overshoot at 0; "exponential" draws it from
    Exp(sqrt2 sigma_e) (experimental overshoot approximation).
    """
    if offspring is None:
        offspring = OffspringDistribution.binary()
    sigma_e_list = list(sigma_e_list)
    if sorted(sigma_e_list) != sigma_e_list:
        raise ValueError("sigma_e list must be sorted ascending")
    if y_mode not in ("zero", "exponential"):
        raise ValueError(f"unknown y_mode {y_mode!r}")
    # the bounds first, so a sigma_e whose bound overflows fails before the spines
    bounds = [collapse_bound(sigma_e, R, offspring.K) for sigma_e in sigma_e_list]
    block = collapse_block(t, offspring, len(sigma_e_list))
    hits = run_replicates(_collapse, (sigma_e_list, R, t, offspring, y_mode, seed), replicates, workers, block)
    rows = []
    for j, sigma_e in enumerate(sigma_e_list):
        est = sum(h[j] for h in hits) / replicates
        se = math.sqrt(est * (1.0 - est) / replicates)
        rows.append(
            {"sigma_e": sigma_e, "estimate": est, "std_error": se, "analytic_bound": bounds[j]}
        )
    return rows
