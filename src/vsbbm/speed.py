"""Speed functions A on [0,1], their time changes, and envelope constructions.

A speed profile encodes the covariance of the tree-indexed Gaussian field
as t*A(d/t) where d is the genealogical overlap.  Each kind of profile is
declared once, with its exact end slopes sigma_b^2 = A'(0) and sigma_e^2 =
A'(1), the model's parameters: ``identity_profile``, ``two_speed``,
``power_profile`` (A(x) = x^p), ``piecewise_linear`` and its CSV form
``from_table_csv``.  Any other A is a direct ``SpeedProfile`` with declared
slopes.  The envelope machinery builds the two ``two_speed`` profiles that
bound A near 0 and 1 for the Gaussian-comparison experiments; their slopes
absorb A's Taylor remainder at either end through one bound on |A''|, the
profile's ``curvature``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

_ENDPOINT_TOL = 1e-12
_BISECT_TOL = 1e-10


def _rounding_tol(*slopes: float) -> float:
    """The tolerance of A(1) = 1 for a profile with these slopes: a value
    at 1 built as s (1 - b) carries the rounding of b times s, so the
    bound is _ENDPOINT_TOL times the largest finite slope, at least 1."""
    return _ENDPOINT_TOL * max([1.0, *(s for s in slopes if math.isfinite(s))])


class AssumptionError(ValueError):
    """A profile fails one of the standing assumptions (monotonicity,
    endpoint values, strictly-below-diagonal, normalization)."""


@dataclass(frozen=True)
class SpeedProfile:
    """A non-decreasing speed function A: [0,1] -> [0,1].

    slope_at_0 / slope_at_1 are the one-sided derivatives sigma_b^2 and
    sigma_e^2 (either may be inf).  ``curvature`` bounds |A''| near 0
    and 1 and feeds the second-order Taylor corrections of the envelope
    construction; it is caller-supplied since only its existence is
    assumed, not a recipe for finding it, and inf where A'' has no bound.
    Every check is written so that a NaN fails it.
    """

    func: Callable[[np.ndarray], np.ndarray]
    slope_at_0: float
    slope_at_1: float
    curvature: float = 0.0
    label: str = "custom"

    def __post_init__(self):
        if not self.slope_at_0 >= 0:
            raise AssumptionError(f"slope at 0 must be >= 0, got {self.slope_at_0}")
        a0 = float(self.func(np.array(0.0)))
        a1 = float(self.func(np.array(1.0)))
        a1_tol = _rounding_tol(self.slope_at_0, self.slope_at_1)
        if not (abs(a0) <= _ENDPOINT_TOL and abs(a1 - 1.0) <= a1_tol):
            raise AssumptionError(f"need A(0)=0 and A(1)=1, got {a0}, {a1}")

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=np.float64)))

    def check_monotone(self) -> None:
        grid = np.linspace(0.0, 1.0, 10**4)
        vals = self(grid)
        if not np.all(np.diff(vals) >= -_ENDPOINT_TOL):
            raise AssumptionError("A is not non-decreasing on the test grid")

    def check_below_diagonal(self) -> None:
        """Assumption (A1): A(x) < x on the open interval."""
        grid = np.linspace(0.0, 1.0, 10**4 + 2)[1:-1]
        vals = self(grid)
        below = vals < grid
        if not below.all():
            bad = grid[np.argmin(below)]
            raise AssumptionError(f"A(x) >= x at x={bad:.6g}; (A1) violated")


def sigma2(profile: SpeedProfile, s, t: float):
    """Time change Sigma^2(s) = t*A(s/t) for 0 <= s <= t."""
    s_arr = np.asarray(s, dtype=np.float64)
    if s_arr.size and (s_arr.min() < 0 or s_arr.max() > t):
        raise ValueError(f"s outside [0, {t}]")
    out = t * profile(s_arr / t)
    return out if out.ndim else float(out)


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


def _power_eval(p, x):
    return np.asarray(x) ** p


def _interp_eval(xs, ys, x):
    return np.interp(x, xs, ys)


def identity_profile() -> SpeedProfile:
    return SpeedProfile(func=_identity_eval, slope_at_0=1.0, slope_at_1=1.0, label="identity")


def two_speed(sigma1_sq: float, sigma2_sq: float, b: float) -> SpeedProfile:
    """Piecewise-linear profile with slopes sigma1_sq then sigma2_sq, kink
    at b; requires slopes >= 0 and the normalization sigma1_sq*b +
    sigma2_sq*(1-b) = 1, to the rounding of the larger slope."""
    if not 0 < b < 1:
        raise AssumptionError(f"kink b must lie in (0, 1), got {b}")
    if not (sigma1_sq >= 0 and sigma2_sq >= 0):
        raise AssumptionError(f"slopes must be >= 0 for a non-decreasing A, got {sigma1_sq}, {sigma2_sq}")
    if not abs(sigma1_sq * b + sigma2_sq * (1 - b) - 1.0) <= _rounding_tol(sigma1_sq, sigma2_sq):
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


def power_profile(exponent: float) -> SpeedProfile:
    """A(x) = x^p for a finite p > 0.  A'(0) is 0, 1 or inf as p is above,
    at or below 1, and A'(1) = p.  A'' = p(p-1)x^(p-2) is bounded on
    [0,1], by p(p-1), only for p >= 2; below 2 it blows up at 0 and the
    curvature is inf."""
    p = float(exponent)
    if not (math.isfinite(p) and p > 0):
        raise AssumptionError(f"exponent must be finite and > 0, got {p}")
    return SpeedProfile(
        func=partial(_power_eval, p),
        slope_at_0=0.0 if p > 1 else 1.0 if p == 1 else math.inf,
        slope_at_1=p,
        curvature=p * (p - 1.0) if p >= 2 else math.inf,
        label=f"power{p}",
    )


def piecewise_linear(xs, ys) -> SpeedProfile:
    """Profile interpolating the monotone breakpoint table (xs, ys); its
    end slopes are those of the first and last segments."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size != ys.size:
        raise AssumptionError(f"xs has {xs.size} entries and ys {ys.size}; they must pair up")
    if xs.size == 0 or xs[0] != 0.0 or xs[-1] != 1.0:
        raise AssumptionError("breakpoints must span [0, 1]")
    dx, dy = np.diff(xs), np.diff(ys)
    if not (np.all(dx > 0) and np.all(dy >= 0)):
        raise AssumptionError("breakpoint table must be monotone")
    return SpeedProfile(
        func=partial(_interp_eval, xs, ys),
        slope_at_0=float(dy[0] / dx[0]),
        slope_at_1=float(dy[-1] / dx[-1]),
        label="piecewise",
    )


def from_table_csv(path) -> SpeedProfile:
    """Load a (x, A(x)) breakpoint table from CSV."""
    xs, ys = [], []
    with open(path) as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: row {row} needs two columns, x and A(x)")
            xs.append(float(row[0]))
            ys.append(float(row[1]))
    return replace(piecewise_linear(xs, ys), label="table")


def _bisect(below) -> tuple[float, float]:
    """The bracket (lo, hi) of the point of [0,1] where ``below``, a
    predicate that holds up to some point and fails past it, turns false:
    (1, 1) when it holds at 1, (0, 0) when it fails at 0, else hi - lo <=
    _BISECT_TOL with below(lo) true and below(hi) false."""
    if below(1.0):
        return 1.0, 1.0
    if not below(0.0):
        return 0.0, 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def delta_thresholds(profile: SpeedProfile, t: float) -> tuple[float, float]:
    """The horizon-dependent cutoffs (delta_less, delta_greater):

        delta_less    = sup{x: A(x) <= t^(-2/3)}
        delta_greater = 1 - inf{x: A(x) >= 1 - t^(-2/3)}
    """
    if t <= 1:
        raise ValueError("t must exceed 1")
    level = t ** (-2.0 / 3.0)
    d_less, _ = _bisect(lambda x: float(profile(x)) <= level)
    _, x_greater = _bisect(lambda x: float(profile(x)) < 1.0 - level)
    return d_less, 1.0 - x_greater


def flat_initial_extent(profile: SpeedProfile) -> float:
    """sup{x: A(x) = 0}; positive when the profile starts with a flat piece."""
    return _bisect(lambda x: float(profile(x)) <= 0.0)[0]


@dataclass(frozen=True)
class EnvelopePair:
    """Upper and lower two-speed profiles sandwiching A near 0 and 1."""

    upper: SpeedProfile
    lower: SpeedProfile
    kink_upper: float
    kink_lower: float


def build_envelopes(profile: SpeedProfile, t: float) -> EnvelopePair:
    """Two-speed envelope pair for a profile with finite end slope and
    finite curvature.

    The slopes absorb the Taylor-bound corrections curvature/2 * delta,
    delta_less at 0 and delta_greater at 1, the same for both members;
    each member is the ``two_speed`` profile whose kink is where its two
    lines, through (0, 0) and (1, 1), cross.  The lower first slope is
    floored at 0 before its kink is computed, which keeps the lower member
    monotone.  For a flat start (slope 0 with a persistent flat piece) the
    upper first slope is 0.
    """
    profile.check_monotone()
    profile.check_below_diagonal()
    s_b, s_e = profile.slope_at_0, profile.slope_at_1
    if not math.isfinite(s_e):
        raise AssumptionError("end slope is infinite; the two-speed envelopes need a finite one")
    if s_e <= 1:
        raise AssumptionError("end slope sigma_e^2 must exceed 1")
    if not math.isfinite(profile.curvature):
        raise AssumptionError(
            f"curvature {profile.curvature}: the two-speed envelopes need a finite bound on |A''| near 0 and 1"
        )
    d_less, d_greater = delta_thresholds(profile, t)
    corr0 = profile.curvature / 2.0 * d_less
    corr1 = profile.curvature / 2.0 * d_greater

    if s_b == 0.0 and flat_initial_extent(profile) > _BISECT_TOL * 10:
        slope0_up = 0.0  # flat start: all derivatives at 0 vanish
    else:
        slope0_up = s_b + corr0
    slope1_up = s_e - corr1
    kink_up = (1.0 - slope1_up) / (slope0_up - slope1_up)

    slope0_low = max(s_b - corr0, 0.0)
    slope1_low = s_e + corr1
    kink_low = (1.0 - slope1_low) / (slope0_low - slope1_low)

    if not (0 < kink_up < 1 and 0 < kink_low < 1):
        raise AssumptionError(f"envelope kinks ({kink_up:.4g}, {kink_low:.4g}) fell outside (0, 1)")
    return EnvelopePair(
        upper=two_speed(slope0_up, slope1_up, kink_up),
        lower=two_speed(slope0_low, slope1_low, kink_low),
        kink_upper=kink_up,
        kink_lower=kink_low,
    )
