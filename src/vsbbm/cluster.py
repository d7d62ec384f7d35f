"""The cluster seen from a high particle: the spine construction with
size-biased branching and the collapse study built on it.

The spine description (a bridge to the high point with rate-2
immigration) conditions on a particle AT the level sqrt2 sigma_e t + y,
so it scales to levels where conditioning standard BBM on its maximum by
rejection would almost never accept (``acceptance_estimate``).
``decoration_collapse_study`` draws each spine's skeleton on its own
generator, then grows the immigrants of many spines as one forest, one
generator per spine, so each spine draws what ``spine_sample`` draws for
it alone.  ``collapse_bound``, the analytic bound reported beside each
estimate, integrates with a numpy exp-sinh rule, so a run needs numpy
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, cycle, islice, repeat

import numpy as np

from vsbbm import sampler
from vsbbm.genealogy import (
    OffspringDistribution,
    replicate_rngs,
    run_replicates,
    sample_forest,
    tree_rng,
)
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


def _bridge_at(times: np.ndarray, t: float, z: float, rng) -> np.ndarray:
    """Brownian bridge 0 -> z in time t evaluated at sorted times."""
    if len(times) == 0:
        return np.empty(0)
    inc_t = np.diff(np.concatenate([[0.0], times]))
    w = np.cumsum(np.sqrt(inc_t) * rng.standard_normal(len(times)))
    # bridge = ray + (W(s) - s/t W(t)); sample W(t) continuation explicitly
    w_t = w[-1] + math.sqrt(t - times[-1]) * rng.standard_normal()
    return times / t * z + (w - times / t * w_t)


def _spine_skeleton(sigma_e: float, y: float, t: float, offspring: OffspringDistribution, rng):
    """The spine's draws before its immigrants grow: the Poisson(2t) branch
    times, the bridge to sqrt2 sigma_e t + y at them and the size-biased
    immigrant count of each; returns (branch_times, spine_values, counts)."""
    if sigma_e <= 1:
        raise ValueError("sigma_e must exceed 1")
    if y < 0:
        raise ValueError("y must be nonnegative")
    z = SQRT2 * sigma_e * t + y
    n_branch = rng.poisson(2.0 * t)
    branch_times = np.sort(rng.uniform(0.0, t, size=n_branch))
    spine_values = _bridge_at(branch_times, t, z, rng)
    nus, probs = size_biased_offspring_probs(offspring)
    counts = (
        rng.choice(nus, size=n_branch, p=probs) if len(nus) > 1
        else np.full(n_branch, nus[0], dtype=np.int64)
    )
    return branch_times, spine_values, counts


def _immigrant_leaves(skeletons, t, offspring, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Leaves of the immigrant trees of several spines, grown as one forest
    with one generator per spine: spine i's immigrants are a run of trees
    rooted at their branch times on ``rngs[i]``, placed by one
    ``standard_normal`` draw over the run's nodes and shifted by the spine
    value at their root.  Each spine draws what it draws alone.  Returns
    the leaf positions and the tree of each leaf, trees in spine order."""
    # uniform(0, t) lies in [0, t), so every immigrant is born before t
    starts = np.concatenate([times.repeat(counts) for times, _, counts in skeletons])
    shifts = np.concatenate([values.repeat(counts) for _, values, counts in skeletons])
    n_trees = [int(counts.sum()) for _, _, counts in skeletons]
    forest = sample_forest(offspring, t, rngs, starts=starts, trees_per_rng=n_trees)
    leaf_tree = forest.tree_id[forest.nodes.leaf_ids]
    return forest_leaf_positions(forest, (IDENTITY,), t, rngs)[0] + shifts[leaf_tree], leaf_tree


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
    spine position.  All immigrants grow as one forest, rooted at their
    branch times, and take their positions from one Gaussian draw, all on
    the generator ``rng``, or ``tree_rng(seed)`` when ``rng`` is not given.
    It is the one-spine case of the spines ``decoration_collapse_study``
    grows together, and draws as each of them does.
    """
    if rng is None:
        rng = tree_rng(seed)
    skeleton = branch_times, spine_values, counts = _spine_skeleton(sigma_e, y, t, offspring, rng)
    subtrees = []
    leaf_pos = np.empty(0)
    if counts.sum():
        leaf_pos, leaf_tree = _immigrant_leaves([skeleton], t, offspring, [rng])
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


def collapse_bound(
    sigma_e: float, R: float, K: float, gamma: float = 0.75
) -> float:
    """Analytic bound 2K sigma_e^{-1/2} + 2K int e^{(1-sigma_e^2)s +
    sqrt2 sigma_e (R + (sigma_e s)^gamma)} ds on the multi-atom probability,
    the integral over [sigma_e^{-1/2}, inf) by a double-exponential
    (exp-sinh) rule that halves its step until it converges.

    Raises ValueError for sigma_e <= 1, where the integral diverges, and
    OverflowError when the bound exceeds double precision, as it does for
    sigma_e near 1 (sigma_e = 1.02, R = 2)."""
    if sigma_e <= 1:
        raise ValueError("sigma_e must exceed 1")
    log_val, _ = _exp_sinh(_collapse_exponent(sigma_e, R, gamma), sigma_e**-0.5)
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


def _collapse(sigma_e_list, R, t, offspring, y_mode, seed, reps):
    """Per replicate of ``reps``, per sigma_e (index j): 1 if the spine
    sample on stream ``spine:<j>`` puts more than one atom in [-R, inf),
    else 0.

    Each spine draws its skeleton from its own generator, then the spines
    grow their immigrants as one forest per batch of about
    ``sampler.FOREST_NODE_BUDGET`` expected nodes, one generator per spine,
    so every spine draws what ``spine_sample`` draws for it alone."""
    n_sigma = len(sigma_e_list)

    def replicate_major(stream):
        gens = [replicate_rngs(seed, reps, f"{stream}:{j}") for j in range(n_sigma)]
        return chain.from_iterable(zip(*gens))

    ys = repeat(None) if y_mode == "zero" else replicate_major("overshoot")
    spines = zip(cycle(sigma_e_list), replicate_major("spine"), ys)
    # expected immigrant nodes of a spine: branch points at rate 2 with K/2
    # immigrants each on average, and a tree rooted at s has 2e^(t-s) - 1
    # nodes on average, so K (2(e^t - 1) - t) in all
    nodes = offspring.K * (2.0 * math.expm1(t) - t)
    size = max(1, int(sampler.FOREST_NODE_BUDGET / max(nodes, 1.0)))
    hits = []
    for batch in iter(lambda: list(islice(spines, size)), []):
        sigma_e, rngs, _ = zip(*batch)
        y, skeletons = [], []
        for sig, rng, y_rng in batch:
            y.append(0.0 if y_rng is None else float(y_rng.exponential(1.0 / (SQRT2 * sig))))
            skeletons.append(_spine_skeleton(sig, y[-1], t, offspring, rng))
        # the endpoint atom y, then every immigrant leaf at or above -R
        atoms = (np.array(y) >= -R).astype(np.int64)
        trees = [int(counts.sum()) for _, _, counts in skeletons]
        if sum(trees):
            leaf_pos, leaf_tree = _immigrant_leaves(skeletons, t, offspring, rngs)
            spine = np.arange(len(batch)).repeat(trees)[leaf_tree]
            level = SQRT2 * np.array(sigma_e) * t
            atoms += np.bincount(spine[leaf_pos - level[spine] >= -R], minlength=len(batch))
        hits += (atoms > 1).astype(int).tolist()
    return [hits[i : i + n_sigma] for i in range(0, len(hits), n_sigma)]


def decoration_collapse_study(
    sigma_e_list,
    R: float,
    t: float,
    replicates: int,
    seed: int,
    offspring: OffspringDistribution | None = None,
    gamma: float = 0.75,
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
    bounds = [collapse_bound(sigma_e, R, offspring.K, gamma) for sigma_e in sigma_e_list]
    hits = run_replicates(_collapse, (sigma_e_list, R, t, offspring, y_mode, seed), replicates, workers)
    rows = []
    for j, sigma_e in enumerate(sigma_e_list):
        est = sum(h[j] for h in hits) / replicates
        se = math.sqrt(est * (1.0 - est) / replicates)
        rows.append(
            {"sigma_e": sigma_e, "estimate": est, "std_error": se, "analytic_bound": bounds[j]}
        )
    return rows
