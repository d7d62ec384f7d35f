"""F-KPP reaction-diffusion solver with the branching nonlinearity.

    du/dt = (1/2) d2u/dx2 + (1 - u) - sum_k p_k (1 - u)^k

with Heaviside initial data and boundary values u(x_min)=1, u(x_max)=0.
The reaction term is the exact polynomial u v g(v), v = 1 - u, with
g(v) = sum_j P(K >= j+2) v^j.  Time stepping is explicit Euler only: one
kernel, ``_ExplicitStep``, advances ``solve_heaviside`` as
u_i <- u_i P(u_i) + c (u_{i-1} + u_{i+1}).  Mean two
offspring give P in [1 - 2c, 1 + dt] with 1 - 2c >= 1/2 for a stable dt,
so both summands are non-negative and the far tail (u down to ~1e-300)
keeps full relative accuracy.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vsbbm.genealogy import OffspringDistribution

SQRT2 = math.sqrt(2.0)
_RANGE_TOL = 1e-9
# steps from one re-derivation of the stepped window to the next
WINDOW_EVERY = 32


class FrontTooCloseError(RuntimeError):
    """The front entered the right buffer zone; widen the grid."""


@dataclass(frozen=True, eq=False)
class FkppState:
    """Discretized solution u(t, x_i) on a uniform grid."""

    x: np.ndarray
    u: np.ndarray
    t: float


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
    """

    def __init__(self, u: np.ndarray, offspring: OffspringDistribution, dx: float, dt: float):
        self.c = 0.5 * dt / (dx * dx)
        g = offspring.reaction_coefficients.tolist()
        # dt sum_j g_j (1-u)^(j+1) = sum_k p_k u^k, then the constant 1 - 2c
        self.p = [dt * (-1) ** k * math.fsum(gj * math.comb(j + 1, k) for j, gj in enumerate(g))
                  for k in range(len(g) + 1)]
        self.p[0] += 1.0 - 2.0 * self.c
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

    def __call__(self) -> None:
        inner, r, w, p = self.inner, self.r, self.w, self.p
        np.multiply(inner, p[-1], out=r)
        for a in p[-2:0:-1]:
            r += a
            r *= inner
        r += p[0]
        np.add(self.left, self.right, out=w)
        w *= self.c
        inner *= r
        inner += w


def front_position(state: FkppState) -> float:
    """x where u crosses 1/2, by linear interpolation (u decreasing)."""
    u, x = state.u, state.x
    idx = np.nonzero(u >= 0.5)[0]
    if len(idx) == 0 or idx[-1] + 1 >= len(u):
        raise ValueError("front level not bracketed on the grid")
    i = idx[-1]
    frac = (u[i] - 0.5) / (u[i] - u[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def solve_heaviside(
    offspring: OffspringDistribution,
    t_end: float,
    x_min: float = -50.0,
    x_max: float | None = None,
    dx: float = 0.05,
    dt: float | None = None,
    front_buffer: float = 20.0,
    track_front: bool = False,
    snapshot_times=(),
):
    """Integrate from u(0, x) = 1_{x <= 0} to t_end by explicit Euler steps
    (dt = dx^2/4 unless given, then shrunk to land on t_end).

    Every ``WINDOW_EVERY``-th step re-derives the window of cells the
    step updates (``_ExplicitStep.rederive``); a range check whose clip
    changed a value resets it to the whole interior, since the clip may
    change cells outside it.  The result is bit for bit that of stepping
    every cell.

    Fails loudly (FrontTooCloseError) if the u=1/2 front comes within
    ``front_buffer`` of the right edge.  Returns the final state, or
    (state, front_track, snapshots) when tracking is requested; the front
    track is a list of (t, front position) pairs.
    """
    if t_end < 0:
        raise ValueError(f"t_end={t_end} is negative")
    if x_max is None:
        x_max = SQRT2 * t_end + 40.0
    x = np.arange(x_min, x_max + dx / 2, dx)
    u = (x <= 0.0).astype(np.float64)
    u[0], u[-1] = 1.0, 0.0
    if dt is None:
        dt = dx * dx / 4.0
    # at least one step for any t_end > 0; dt is re-derived to land on
    # t_end exactly, so the stability limit is checked on the new value
    n_steps = max(1, int(round(t_end / dt))) if t_end > 0 else 0
    if n_steps:
        dt = t_end / n_steps
    if dt > dx * dx / 2.0 + 1e-15:
        raise ValueError(f"explicit step dt={dt} exceeds stability limit dx^2/2={dx * dx / 2}")
    step = _ExplicitStep(u, offspring, dx, dt)

    buffer_idx = int((x_max - front_buffer - x_min) / dx)
    check_every = max(1, n_steps // 200)

    front_track = []
    snapshot_times = sorted(snapshot_times)
    snapshots = {}
    next_snap = 0
    t = 0.0
    for step_i in range(n_steps):
        if step_i % WINDOW_EVERY == 0:
            step.rederive()
        else:
            step()
        t = (step_i + 1) * dt
        if step_i % check_every == 0 or step_i == n_steps - 1:
            if _check_range(u):
                step.reset()
            if u[buffer_idx] > 1e-8:
                raise FrontTooCloseError(
                    f"front within {front_buffer} of x_max={x_max} at t={t:.3f}; widen the grid"
                )
            if track_front:
                front_track.append((t, front_position(FkppState(x=x, u=u, t=t))))
        while next_snap < len(snapshot_times) and t >= snapshot_times[next_snap] - dt / 2:
            snapshots[snapshot_times[next_snap]] = FkppState(x=x, u=u.copy(), t=t)
            next_snap += 1

    _check_range(u)
    state = FkppState(x=x, u=u, t=t_end)
    if track_front or snapshot_times:
        return state, front_track, snapshots
    return state


def _tail_value(state: FkppState, sigma_e: float, t: float) -> float:
    """sigma_e e^{sqrt2 x} e^{x^2/2t} sqrt(t) u(t, x + sqrt2 t) at the
    coupled point x = sqrt2 (sigma_e - 1) t, interpolating log u."""
    x_eval = SQRT2 * (sigma_e - 1.0) * t
    point = x_eval + SQRT2 * t
    if point < state.x[0] or point > state.x[-1] - 1.0:
        raise ValueError(f"evaluation point {point:.2f} outside the grid")
    i = int(np.searchsorted(state.x, point)) - 1
    u0, u1 = state.u[i], state.u[i + 1]
    if u0 <= 0 or u1 <= 0:
        raise ValueError("solution underflowed to zero at the evaluation point")
    frac = (point - state.x[i]) / (state.x[i + 1] - state.x[i])
    log_u = (1 - frac) * math.log(u0) + frac * math.log(u1)
    log_val = (
        math.log(sigma_e) + SQRT2 * x_eval + x_eval**2 / (2.0 * t) + 0.5 * math.log(t) + log_u
    )
    return math.exp(log_val)


def tail_x_max(sigma_e: float, t: float) -> float:
    """Right edge of a grid wide enough for the tail at end slope sigma_e
    and horizon t: the evaluation point sqrt2 sigma_e t stays 40 inside."""
    if sigma_e <= 1:
        raise ValueError("sigma_e must exceed 1")
    return max(SQRT2 * t + 40.0 * sigma_e, SQRT2 * sigma_e * t + 40.0)


def tail_estimate(
    state: FkppState, half: FkppState, sigma_e: float, t: float
) -> tuple[float, dict]:
    """Tail-constant estimate for end slope sigma_e from a solution at
    horizon t and its snapshot ``half`` at t/2, with the t/2 value as the
    diagnostic.  One solve serves every sigma_e its grid is wide enough for."""
    estimate = _tail_value(state, sigma_e, t)
    at_half = _tail_value(half, sigma_e, t / 2.0)
    return estimate, {"value_at_half_horizon": at_half, "abs_change": abs(estimate - at_half)}


def tail_constant(
    offspring: OffspringDistribution,
    sigma_e: float,
    t: float,
    dx: float = 0.05,
) -> tuple[float, dict]:
    """Finite-t estimate of the front tail constant for end slope sigma_e.

    The double limit is approximated at the supplied horizon; the returned
    diagnostic compares against the value at t/2 (Richardson-style) rather
    than claiming convergence.
    """
    x_max = tail_x_max(sigma_e, t)  # also rejects sigma_e <= 1
    state, _, snaps = solve_heaviside(offspring, t, x_max=x_max, dx=dx, snapshot_times=(t / 2.0,))
    return tail_estimate(state, snaps[t / 2.0], sigma_e, t)
