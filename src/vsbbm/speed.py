"""Speed functions A on [0,1], their time changes, and envelope constructions.

A speed profile encodes the covariance of the tree-indexed Gaussian field
as t*A(d/t) where d is the genealogical overlap.  The envelope machinery
builds the piecewise-linear two-speed profiles that bound A near 0 and 1
for the Gaussian-comparison experiments.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

_ENDPOINT_TOL = 1e-12
_BISECT_TOL = 1e-10
_SLOPE_FD_STEP = 1e-6
_SLOPE_MISMATCH_TOL = 1e-3


class AssumptionError(ValueError):
    """A profile fails one of the standing assumptions (monotonicity,
    endpoint values, strictly-below-diagonal, normalization)."""


@dataclass(frozen=True)
class SpeedProfile:
    """A non-decreasing speed function A: [0,1] -> [0,1].

    slope_at_0 / slope_at_1 are the one-sided derivatives sigma_b^2 and
    sigma_e^2 (sigma_e^2 may be inf).  The K bounds and taylor_order feed
    the envelope construction; they are caller-supplied since only their
    existence is assumed, not a recipe for finding them.
    """

    func: Callable[[np.ndarray], np.ndarray]
    slope_at_0: float
    slope_at_1: float
    k1_upper: float = 0.0
    k1_lower: float = 0.0
    k2_upper: float = 0.0
    k2_lower: float = 0.0
    taylor_order: int = 2
    label: str = "custom"

    def __post_init__(self):
        if self.slope_at_0 < 0:
            raise AssumptionError("slope at 0 must be >= 0")
        if self.taylor_order < 2:
            raise AssumptionError("taylor_order must be >= 2")
        a0 = float(self.func(np.array(0.0)))
        a1 = float(self.func(np.array(1.0)))
        if abs(a0) > _ENDPOINT_TOL or abs(a1 - 1.0) > _ENDPOINT_TOL:
            raise AssumptionError(f"need A(0)=0 and A(1)=1, got {a0}, {a1}")

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=np.float64)))

    def check_monotone(self, n_grid: int = 10**4) -> None:
        grid = np.linspace(0.0, 1.0, n_grid)
        vals = self(grid)
        if np.any(np.diff(vals) < -_ENDPOINT_TOL):
            raise AssumptionError("A is not non-decreasing on the test grid")

    def check_below_diagonal(self, n_grid: int = 10**4) -> None:
        """Assumption (A1): A(x) < x on the open interval."""
        grid = np.linspace(0.0, 1.0, n_grid + 2)[1:-1]
        vals = self(grid)
        if np.any(vals >= grid):
            bad = grid[np.argmax(vals >= grid)]
            raise AssumptionError(f"A(x) >= x at x={bad:.6g}; (A1) violated")


def sigma2(profile: SpeedProfile, s, t: float):
    """Time change Sigma^2(s) = t*A(s/t) for 0 <= s <= t."""
    s_arr = np.asarray(s, dtype=np.float64)
    if s_arr.size and (s_arr.min() < 0 or s_arr.max() > t):
        raise ValueError(f"s outside [0, {t}]")
    out = t * profile(s_arr / t)
    return out if out.ndim else float(out)


def _declared_or_fd_slopes(func, slope_at_0, slope_at_1):
    """Take declared slopes, else one-sided finite differences; a declared
    slope must agree with the finite-difference value to 1e-3."""
    h = _SLOPE_FD_STEP
    fd0 = float(func(np.array(h)) - func(np.array(0.0))) / h
    fd1 = float(func(np.array(1.0)) - func(np.array(1.0 - h))) / h
    if slope_at_0 is None:
        slope_at_0 = fd0
    elif abs(slope_at_0 - fd0) > _SLOPE_MISMATCH_TOL:
        raise AssumptionError(
            f"declared slope at 0 ({slope_at_0}) vs finite difference ({fd0:.6g})"
        )
    if slope_at_1 is None:
        slope_at_1 = fd1
    elif math.isfinite(slope_at_1) and abs(slope_at_1 - fd1) > _SLOPE_MISMATCH_TOL:
        raise AssumptionError(
            f"declared slope at 1 ({slope_at_1}) vs finite difference ({fd1:.6g})"
        )
    return slope_at_0, slope_at_1


def from_function(
    func,
    slope_at_0: float | None = None,
    slope_at_1: float | None = None,
    label: str = "custom",
    **kw,
) -> SpeedProfile:
    s0, s1 = _declared_or_fd_slopes(func, slope_at_0, slope_at_1)
    return SpeedProfile(func=func, slope_at_0=s0, slope_at_1=s1, label=label, **kw)


# module-level evaluators (picklable, so profiles survive process pools)

def _identity_eval(x):
    return np.asarray(x, dtype=np.float64)


def _kink_select(first_slope: float, second_slope: float):
    """The ufunc that picks the line in force on either side of the kink of
    a continuous piecewise-linear function with one kink: past the kink the
    second line lies above the first when the kink is convex (first slope
    <= second) and below it when it is concave."""
    return np.maximum if first_slope <= second_slope else np.minimum


def _two_speed_eval(select, s1, s2, b, x):
    x = np.asarray(x)
    return select(s1 * x, s1 * b + s2 * (x - b))


def _interp_eval(xs, ys, x):
    return np.interp(x, xs, ys)


def identity_profile() -> SpeedProfile:
    return SpeedProfile(func=_identity_eval, slope_at_0=1.0, slope_at_1=1.0, label="identity")


def two_speed(sigma1_sq: float, sigma2_sq: float, b: float) -> SpeedProfile:
    """Piecewise-linear profile with slopes sigma1_sq then sigma2_sq, kink
    at b; requires the normalization sigma1_sq*b + sigma2_sq*(1-b) = 1."""
    if not 0 < b < 1:
        raise AssumptionError("kink b must lie in (0, 1)")
    if abs(sigma1_sq * b + sigma2_sq * (1 - b) - 1.0) > 1e-10:
        raise AssumptionError(
            f"normalization sigma1^2*b + sigma2^2*(1-b) = "
            f"{sigma1_sq * b + sigma2_sq * (1 - b)}, must be 1"
        )

    return SpeedProfile(
        func=partial(_two_speed_eval, _kink_select(sigma1_sq, sigma2_sq), sigma1_sq, sigma2_sq, b),
        slope_at_0=sigma1_sq,
        slope_at_1=sigma2_sq,
        label="two_speed",
    )


def piecewise_linear(xs, ys, **kw) -> SpeedProfile:
    """Profile interpolating the monotone breakpoint table (xs, ys)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs[0] != 0.0 or xs[-1] != 1.0:
        raise AssumptionError("breakpoints must span [0, 1]")
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) < 0):
        raise AssumptionError("breakpoint table must be monotone")

    kw.setdefault("label", "piecewise")
    return from_function(partial(_interp_eval, xs, ys), **kw)


def from_table_csv(path, **kw) -> SpeedProfile:
    """Load a (x, A(x)) breakpoint table from CSV."""
    xs, ys = [], []
    with open(path) as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            xs.append(float(row[0]))
            ys.append(float(row[1]))
    kw.setdefault("label", "table")
    return piecewise_linear(xs, ys, **kw)


def _sup_below(profile: SpeedProfile, level: float) -> float:
    """sup{x in [0,1]: A(x) <= level} for non-decreasing A, by bisection."""
    if float(profile(1.0)) <= level:
        return 1.0
    lo, hi = 0.0, 1.0  # A(lo) <= level < A(hi)
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if float(profile(mid)) <= level:
            lo = mid
        else:
            hi = mid
    return lo


def _inf_above(profile: SpeedProfile, level: float) -> float:
    """inf{x in [0,1]: A(x) >= level} for non-decreasing A, by bisection."""
    if float(profile(0.0)) >= level:
        return 0.0
    lo, hi = 0.0, 1.0  # A(lo) < level <= A(hi)
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if float(profile(mid)) >= level:
            hi = mid
        else:
            lo = mid
    return hi


def delta_thresholds(profile: SpeedProfile, t: float) -> tuple[float, float]:
    """The horizon-dependent cutoffs (delta_less, delta_greater):

        delta_less    = sup{x: A(x) <= t^(-2/3)}
        delta_greater = 1 - inf{x: A(x) >= 1 - t^(-2/3)}
    """
    if t <= 1:
        raise ValueError("t must exceed 1")
    level = t ** (-2.0 / 3.0)
    return _sup_below(profile, level), 1.0 - _inf_above(profile, 1.0 - level)


def flat_initial_extent(profile: SpeedProfile) -> float:
    """sup{x: A(x) = 0}; positive when the profile starts with a flat piece."""
    return _sup_below(profile, 0.0)


def _one_kink_eval(select, slope0: float, slope1: float, clamp: bool, x):
    """Continuous one-kink piecewise-linear function through (0, .) and (1, 1).

    First branch slope0*x up to the kink, second branch 1 + slope1*(x-1);
    ``select`` is ``_kink_select(slope0, slope1)``, so the two branches
    need no comparison with the kink.  With clamp=True the whole function
    is floored at 0, which keeps it monotone and in [0,1] when the raw
    first branch would dip negative.
    """
    raw = select(slope0 * x, 1.0 + slope1 * (x - 1.0))
    return np.maximum(raw, 0.0) if clamp else raw


@dataclass(frozen=True)
class EnvelopePair:
    """Upper and lower one-kink two-speed profiles sandwiching A near 0 and 1."""

    upper: SpeedProfile
    lower: SpeedProfile
    kink_upper: float
    kink_lower: float
    t: float


def _validated(profile: SpeedProfile) -> None:
    profile.check_monotone()
    profile.check_below_diagonal()


def build_envelopes(profile: SpeedProfile, t: float) -> EnvelopePair:
    """Two-speed envelope pair for a profile with finite end slope.

    The slopes absorb the Taylor-bound corrections driven by the delta
    thresholds; both members are continuous one-kink profiles with value 0
    at 0 and 1 at 1.  For a flat start (slope 0 with a persistent flat
    piece) the upper first branch is identically 0.
    """
    _validated(profile)
    s_b, s_e = profile.slope_at_0, profile.slope_at_1
    if not math.isfinite(s_e):
        raise AssumptionError("end slope is infinite; the two-speed envelopes need a finite one")
    if s_e <= 1:
        raise AssumptionError("end slope sigma_e^2 must exceed 1")
    d_less, d_greater = delta_thresholds(profile, t)
    n = profile.taylor_order
    nfact = math.factorial(n)

    corr0_up = profile.k1_upper / nfact * d_less ** (n - 1)
    corr0_low = profile.k1_lower / nfact * d_less ** (n - 1)
    corr1_up = profile.k2_upper / 2.0 * d_greater
    corr1_low = profile.k2_lower / 2.0 * d_greater

    if s_b == 0.0 and flat_initial_extent(profile) > _BISECT_TOL * 10:
        slope0_up = 0.0  # flat start: all derivatives at 0 vanish
    else:
        slope0_up = s_b + corr0_up
    slope1_up = s_e - corr1_up
    kink_up = (1.0 - slope1_up) / (slope0_up - slope1_up)

    slope0_low = s_b - corr0_low  # may be negative; the clamp floors at 0
    slope1_low = s_e + corr1_low
    kink_low = (1.0 - slope1_low) / (slope0_low - slope1_low)

    if not (0 < kink_up <= 1 and 0 < kink_low <= 1):
        raise AssumptionError(
            f"envelope kinks ({kink_up:.4g}, {kink_low:.4g}) fell outside (0, 1]"
        )

    upper = SpeedProfile(
        func=partial(_one_kink_eval, _kink_select(slope0_up, slope1_up), slope0_up, slope1_up, False),
        slope_at_0=slope0_up,
        slope_at_1=slope1_up,
        label="envelope_upper",
    )
    lower = SpeedProfile(
        func=partial(_one_kink_eval, _kink_select(slope0_low, slope1_low), slope0_low, slope1_low, True),
        slope_at_0=max(slope0_low, 0.0),
        slope_at_1=slope1_low,
        label="envelope_lower",
    )
    return EnvelopePair(upper=upper, lower=lower, kink_upper=kink_up, kink_lower=kink_low, t=t)
