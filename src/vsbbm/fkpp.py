"""F-KPP reaction-diffusion solver with the branching nonlinearity.

    du/dt = (1/2) d2u/dx2 + (1 - u) - sum_k p_k (1 - u)^k

with Heaviside initial data and boundary values u(X_MIN)=1, u(x_max)=0.
The reaction term is the exact polynomial u v g(v), v = 1 - u, with
g(v) = sum_j P(K >= j+2) v^j.  Time stepping is explicit Euler only: one
kernel, ``_ExplicitStep``, advances ``solve_heaviside`` as
u_i <- u_i P(u_i) + c (u_{i-1} + u_{i+1}) on the grid from ``X_MIN`` to
x_max, with steps of dx^2/4 shrunk to land on t_end: c = dt / (2 dx^2)
<= 3/16, reached by a t_end just under 1.5 dx^2/4 in one step.  Mean two
offspring give P in [1 - 2c, 1 + dt] with 1 - 2c >= 5/8, so both summands
are non-negative and the far tail keeps full relative accuracy down to the
smallest normal float.

The step updates only a window [lo, hi) of the interior, and
``solve_heaviside`` re-derives it every ``WINDOW_EVERY`` steps from the
cells that step changed.  This is exact, not an approximation: a cell
whose left neighbour, own value and right neighbour did not change on the
last step computes the same value again, so a change spreads at most one
cell per step.  Behind the front a cell stops changing only once its
change per step, of order dt (1 - u), is lost to the rounding of u ~ 1: on
a binary solve to t = 20 at dx = 0.05, cells still change from x = -18.4
on, 42 behind the front at 23.57, where 1 - u = 3.4e-13.  Ahead of the
front, early on, u underflows to exactly 0.  So the window skips only
about 30% of the cell updates of a long solve (binary law, dx = 0.05: 28%
to t = 50, 35% to t = 100).

The cost of a step is numpy's fixed cost per ufunc call plus the work per
cell.  A step is seven ufunc calls over the window for the binary law, two
more per further coefficient of P.  On a 2-vCPU Xeon VM (numpy 2.4) a
binary step costs about 2.0 us on 10 cells and 6.0 us on 2,300, the mean
window of the benchmark's solves, so call overhead is still about a third
of a step there.  Two rules keep it down.  The step holds P's coefficients
and c as 0-d float64 arrays, which a ufunc takes faster than a Python
float (0.40 against 0.61 us a call).  And one call ``step(n)`` runs a counted
run of n steps with every operand bound once, so ``solve_heaviside`` pays
its own bookkeeping only at the steps where something else happens: a
re-derivation, a range check, a snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from vsbbm.genealogy import OffspringDistribution

SQRT2 = math.sqrt(2.0)
_RANGE_TOL = 1e-9
# left edge of every grid, where u = 1
X_MIN = -50.0
# the front may come no nearer than this to the right edge
FRONT_BUFFER = 20.0
# steps from one re-derivation of the stepped window to the next
WINDOW_EVERY = 32


class FrontTooCloseError(RuntimeError):
    """The front entered the right buffer zone; widen the grid."""


@dataclass(frozen=True, eq=False)
class FkppState:
    """Discretized solution u(t, x_i) on a uniform grid; a solve's state
    also holds its front ``track``, (t, front) pairs, and ``snapshots``."""

    x: np.ndarray
    u: np.ndarray
    t: float
    track: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)


def reaction(u: np.ndarray, offspring: OffspringDistribution) -> np.ndarray:
    """(1-u) - sum_k p_k (1-u)^k, cancellation-free for tiny u.

    Evaluated as u v g(v) with v = 1-u and g(v) = sum_j P(K >= j+2) v^j, by
    Horner's rule on the coefficients ``offspring.reaction_coefficients``.
    For u -> 0 this behaves like u (mean 2 offspring), for binary offspring
    it equals u(1-u).  The tests' oracle for the fused step of
    ``_ExplicitStep``.
    """
    u = np.asarray(u, dtype=np.float64)
    coef = offspring.reaction_coefficients
    v = 1.0 - u
    out = v * coef[-1]
    for c in coef[-2::-1]:
        out += c
        out *= v
    out *= u
    return out


def _check_range(u: np.ndarray) -> bool:
    """Raise if u left [0, 1] by more than rounding; clip it in place and
    say whether the clip changed a value."""
    lo, hi = u.min(), u.max()
    if hi > 1.0 + _RANGE_TOL or lo < -_RANGE_TOL:
        raise RuntimeError(
            f"solution left [0,1] by more than {_RANGE_TOL}: min={lo:.3e}, max={hi:.3e}"
        )
    np.clip(u, 0.0, 1.0, out=u)
    return bool(hi > 1.0 or lo < 0.0)


class _ExplicitStep:
    """The explicit Euler step, fused and in place, on one solution array.

    Calling it advances the window u[lo:hi] of the interior by dt as
    u_i <- u_i P(u_i) + c (u_{i-1} + u_{i+1}), c = dt / (2 dx^2): that is
    u_i + c (u_{i-1} - 2 u_i + u_{i+1}) + dt R(u_i) with P(u) = 1 - 2c +
    dt v g(v), v = 1 - u, in powers of u for Horner's rule, which gets
    P >= 1/2 to a few ulps.  The boundary values are left as they are, and
    the buffers are allocated once.

    The window starts as the whole interior, and ``reset`` makes it that
    again.  ``rederive`` steps once and narrows it to the cells that step
    changed, widened by one cell for each step up to the next
    re-derivation.  A cell outside it would compute its value again: its
    stencil did not change on the last step, because a change spreads at
    most one cell per step.  That holds only while c and P stay fixed.

    A step is seven ufunc calls over the window (binary law), and at a
    few thousand cells their fixed cost is still a third of the step's,
    the rest being work per cell.  So c and P's coefficients are 0-d
    float64 arrays, which a ufunc takes faster than Python floats, and
    ``step(n)`` advances the window by n steps in one call: the window,
    the buffers, the coefficients and ``np.multiply``/``np.add`` are
    bound once, and each step is the same ufunc calls in the same order,
    so a run of n is bit for bit n single steps.  A run holds c, P and
    the window fixed; whatever changes them ends it.
    """

    def __init__(self, u: np.ndarray, offspring: OffspringDistribution, dx: float, dt: float):
        c = 0.5 * dt / (dx * dx)
        g = offspring.reaction_coefficients.tolist()
        # dt sum_j g_j (1-u)^(j+1) = sum_k p_k u^k, then the constant 1 - 2c
        p = [dt * (-1) ** k * math.fsum(gj * math.comb(j + 1, k) for j, gj in enumerate(g))
             for k in range(len(g) + 1)]
        p[0] += 1.0 - 2.0 * c
        # 0-d arrays: a ufunc takes one faster than a Python float
        self.c = np.array(c)
        self.p = [np.array(pk) for pk in p]
        self.u = u
        self.buffers = np.empty(len(u) - 2), np.empty(len(u) - 2)
        self.reset()

    def _window(self, lo: int, hi: int) -> None:
        """Step u[lo:hi], clipped to the interior, from now on."""
        u = self.u
        self.lo, self.hi = max(lo, 1), min(hi, len(u) - 1)
        lo, hi = self.lo, self.hi
        self.inner, self.left, self.right = u[lo:hi], u[lo - 1:hi - 1], u[lo + 1:hi + 1]
        self.r, self.w = (b[:hi - lo] for b in self.buffers)

    def reset(self) -> None:
        """Step the whole interior again."""
        self._window(1, len(self.u) - 1)

    def rederive(self) -> None:
        """One step over the window widened by a cell (this step's share of
        the light cone), then the window of the next ``WINDOW_EVERY - 1``
        steps: the span of the cells this step changed, bit for bit,
        widened by ``WINDOW_EVERY - 1`` cells on each side."""
        self._window(self.lo - 1, self.hi + 1)
        lo, hi = self.lo, self.hi
        before = self.inner.copy()
        self()
        changed = np.flatnonzero(self.inner.view(np.int64) != before.view(np.int64))
        if changed.size:
            margin = WINDOW_EVERY - 1
            self._window(lo + changed[0] - margin, lo + changed[-1] + 1 + margin)
        else:
            self._window(lo, lo)

    def __call__(self, n: int = 1) -> None:
        """Advance the window by n steps."""
        mul, add = np.multiply, np.add
        inner, left, right, r, w, c = self.inner, self.left, self.right, self.r, self.w, self.c
        top, *middle, bottom = self.p[::-1]
        for _ in range(n):
            mul(inner, top, r)
            for a in middle:
                add(r, a, r)
                mul(r, inner, r)
            add(r, bottom, r)
            add(left, right, w)
            mul(w, c, w)
            mul(inner, r, inner)
            add(inner, w, inner)


def front_position(state: FkppState) -> float:
    """x where u crosses 1/2, by linear interpolation (u decreasing)."""
    u, x = state.u, state.x
    idx = np.nonzero(u >= 0.5)[0]
    if len(idx) == 0 or idx[-1] + 1 >= len(u):
        raise ValueError("front level not bracketed on the grid")
    i = idx[-1]
    frac = (u[i] - 0.5) / (u[i] - u[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def _first_step_reaching(level: float, dt: float) -> int:
    """The first step index i >= 0 with (i + 1) dt >= level, found by that
    comparison itself, counting up from two below level / dt, a start that
    rounding cannot push past it."""
    i = max(0, math.floor(level / dt) - 2)
    while (i + 1) * dt < level:
        i += 1
    return i


def solve_heaviside(
    offspring: OffspringDistribution,
    t_end: float,
    x_max: float | None = None,
    dx: float = 0.05,
    snapshot_times=(),
) -> FkppState:
    """Integrate from u(0, x) = 1_{x <= 0} on the grid from ``X_MIN`` to
    x_max to t_end by explicit Euler steps of dx^2/4, shrunk to land on
    t_end (so c = dt / (2 dx^2) <= 3/16, inside the stability limit 1/4).

    Every ``WINDOW_EVERY``-th step re-derives the window of cells the
    step updates (``_ExplicitStep.rederive``); a range check whose clip
    changed a value resets it to the whole interior, since the clip may
    change cells outside it.  The result is bit for bit that of stepping
    every cell.  The steps between re-derivations, range checks and
    snapshots run as counted runs, one ``step(n)`` call each.

    Each snapshot time ts must lie in [0, t_end] (else ValueError); it is
    taken after the first step that reaches ts - dt/2, or from the initial
    data when t_end = 0.

    Fails loudly (FrontTooCloseError) if the u=1/2 front comes within
    ``FRONT_BUFFER`` of the right edge.  Returns the final state with its
    snapshots and the front at each of the about 200 range checks.
    """
    if t_end < 0:
        raise ValueError(f"t_end={t_end} is negative")
    if not all(0.0 <= ts <= t_end for ts in snapshot_times):
        raise ValueError(f"snapshot times {tuple(snapshot_times)} must lie in [0, t_end={t_end}]")
    if x_max is None:
        x_max = SQRT2 * t_end + 40.0
    x = np.arange(X_MIN, x_max + dx / 2, dx)
    u = (x <= 0.0).astype(np.float64)
    u[0], u[-1] = 1.0, 0.0
    dt = dx * dx / 4.0
    # at least one step for any t_end > 0, of the dt that lands on t_end
    n_steps = max(1, int(round(t_end / dt))) if t_end > 0 else 0
    if n_steps:
        dt = t_end / n_steps
    step = _ExplicitStep(u, offspring, dx, dt)

    buffer_idx = int((x_max - FRONT_BUFFER - X_MIN) / dx)
    check_every = max(1, n_steps // 200)

    front_track = []
    snapshot_times = sorted(snapshot_times)
    # the step after which each snapshot is taken
    snapshot_steps = [_first_step_reaching(ts - dt / 2, dt) for ts in snapshot_times]
    # with no step to take (t_end = 0) every snapshot is the initial data
    snapshots = {ts: FkppState(x=x, u=u.copy(), t=0.0) for ts in snapshot_times if not n_steps}
    next_snap = 0
    t = 0.0
    done = 0
    while done < n_steps:
        if done % WINDOW_EVERY == 0:
            step.rederive()
            done += 1
        else:
            # plain steps up to the next re-derivation, check or snapshot
            end = min(n_steps, done - done % WINDOW_EVERY + WINDOW_EVERY,
                      -(-done // check_every) * check_every + 1)
            if next_snap < len(snapshot_steps):
                end = min(end, snapshot_steps[next_snap] + 1)
            step(end - done)
            done = end
        t = done * dt
        if (done - 1) % check_every == 0 or done == n_steps:
            if _check_range(u):
                step.reset()
            if u[buffer_idx] > 1e-8:
                raise FrontTooCloseError(
                    f"front within {FRONT_BUFFER} of x_max={x_max} at t={t:.3f}; widen the grid"
                )
            front_track.append((t, front_position(FkppState(x=x, u=u, t=t))))
        while next_snap < len(snapshot_times) and t >= snapshot_times[next_snap] - dt / 2:
            snapshots[snapshot_times[next_snap]] = FkppState(x=x, u=u.copy(), t=t)
            next_snap += 1

    _check_range(u)
    return FkppState(x=x, u=u, t=t_end, track=front_track, snapshots=snapshots)


def _tail_value(state: FkppState, sigma_e: float, t: float) -> float:
    """sigma_e e^{sqrt2 x} e^{x^2/2t} sqrt(t) u(t, x + sqrt2 t) at the
    coupled point x = sqrt2 (sigma_e - 1) t, interpolating log u; a u
    below the smallest normal float has lost its relative accuracy."""
    x_eval = SQRT2 * (sigma_e - 1.0) * t
    point = x_eval + SQRT2 * t
    if point < state.x[0] or point > state.x[-1] - 1.0:
        raise ValueError(f"evaluation point {point:.2f} outside the grid")
    i = int(np.searchsorted(state.x, point)) - 1
    u0, u1 = state.u[i], state.u[i + 1]
    if min(u0, u1) < np.finfo(float).tiny:
        raise ValueError(
            f"u = {min(u0, u1):.3g} beside the evaluation point of sigma_e = {sigma_e}, t = {t}"
            " is below the smallest normal float"
        )
    frac = (point - state.x[i]) / (state.x[i + 1] - state.x[i])
    log_u = (1 - frac) * math.log(u0) + frac * math.log(u1)
    log_val = (
        math.log(sigma_e) + SQRT2 * x_eval + x_eval**2 / (2.0 * t) + 0.5 * math.log(t) + log_u
    )
    return math.exp(log_val)


def _tail_x_max(sigma_e: float, t: float) -> float:
    """Right edge of a grid wide enough for the tail at end slope sigma_e
    and horizon t: the evaluation point sqrt2 sigma_e t stays 40 inside."""
    if sigma_e <= 1:
        raise ValueError("sigma_e must exceed 1")
    return max(SQRT2 * t + 40.0 * sigma_e, SQRT2 * sigma_e * t + 40.0)


def solve_with_tails(offspring: OffspringDistribution, t_end: float, dx: float, sigma_e_list):
    """The front and every tail constant from one solve, on the grid the
    widest tail needs (which leaves the front unmoved), snapshotted at
    t_end/2.  Returns (state, {sigma_e: (estimate, diagnostic)}): each
    estimate is the tail value at t_end, and its diagnostic holds the
    value at t_end/2 and the change between them."""
    x_max = max((_tail_x_max(s, t_end) for s in sigma_e_list), default=None)
    state = solve_heaviside(offspring, t_end, x_max=x_max, dx=dx, snapshot_times=(t_end / 2.0,))
    tails = {}
    for sigma_e in sigma_e_list:
        estimate = _tail_value(state, sigma_e, t_end)
        at_half = _tail_value(state.snapshots[t_end / 2.0], sigma_e, t_end / 2.0)
        tails[sigma_e] = estimate, {"value_at_half_horizon": at_half, "abs_change": abs(estimate - at_half)}
    return state, tails


def tail_constant(offspring: OffspringDistribution, sigma_e: float, t: float, dx: float = 0.05):
    """Finite-t estimate of the front tail constant for end slope sigma_e.

    The double limit is approximated at the supplied horizon; the returned
    diagnostic compares against the value at t/2 (Richardson-style) rather
    than claiming convergence.
    """
    return solve_with_tails(offspring, t, dx, (sigma_e,))[1][sigma_e]
