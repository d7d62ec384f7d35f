import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from vsbbm.fkpp import (
    FkppState,
    FrontTooCloseError,
    _ExplicitStep,
    fkpp_step,
    front_position,
    reaction,
    solve_heaviside,
    tail_constant,
)
from vsbbm.genealogy import OffspringDistribution
from vsbbm.runner import load_config, run

BINARY = OffspringDistribution.binary()
LAWS = {
    "binary": BINARY,
    "1,3": OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5])),
    "1,4": OffspringDistribution(np.array([1, 4]), np.array([2.0 / 3.0, 1.0 / 3.0])),
    "1,2,3": OffspringDistribution(np.array([1, 2, 3]), np.array([0.25, 0.5, 0.25])),
}
SQRT2 = math.sqrt(2.0)


def m_standard(t):
    return SQRT2 * t - 3.0 / (2.0 * SQRT2) * math.log(t)


def test_reaction_binary_values():
    u = np.array([0.0, 0.25, 0.5, 1.0])
    expected = np.array([0.0, 3.0 / 16.0, 0.25, 0.0])  # u(1-u)
    assert np.allclose(reaction(u, BINARY), expected, atol=1e-15)


def test_reaction_coefficients():
    assert np.array_equal(BINARY.reaction_coefficients, [1.0])
    assert np.array_equal(LAWS["1,3"].reaction_coefficients, [0.5, 0.5])
    assert np.allclose(LAWS["1,4"].reaction_coefficients, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)
    assert np.array_equal(LAWS["1,2,3"].reaction_coefficients, [0.75, 0.25])
    single_lineage = OffspringDistribution(np.array([1]), np.array([1.0]))
    assert np.array_equal(reaction(np.linspace(0.0, 1.0, 5), single_lineage), np.zeros(5))


def test_reaction_general_offspring():
    u = np.linspace(0.0, 1.0, 101)
    for off in LAWS.values():
        direct = (1 - u) - sum(p * (1 - u) ** k for k, p in zip(off.ks, off.ps))
        assert np.allclose(reaction(u, off), direct, rtol=0, atol=1e-14)
        ends = reaction(np.array([0.0, 1.0]), off)
        assert ends[0] == 0.0 and ends[1] == 0.0


def test_reaction_tiny_u_no_cancellation():
    # against the exact rational value of (1-u) - sum_k p_k (1-u)^k at the
    # same u, with the law's probabilities as the fractions they round
    u = np.array([1e-300, 1e-30, 1e-12])
    for off in LAWS.values():
        ps = [Fraction(p).limit_denominator(100) for p in off.ps.tolist()]
        out = reaction(u, off)
        for ui, got in zip(u.tolist(), out.tolist()):
            v = 1 - Fraction(ui)
            exact = v - sum(p * v**k for k, p in zip(off.ks.tolist(), ps))
            assert abs(Fraction(got) / exact - 1) < 1e-13


def test_reaction_out_buffers():
    off = LAWS["1,2,3"]
    u = np.linspace(0.0, 1.0, 7)
    out, work = np.empty_like(u), np.empty_like(u)
    assert reaction(u, off, out=out, work=work) is out
    assert np.array_equal(out, reaction(u, off))


def test_fixed_points():
    x = np.arange(0.0, 1.0 + 1e-9, 0.1)
    for const in (0.0, 1.0):
        state = FkppState(x=x, u=np.full_like(x, const), t=0.0, offspring=BINARY)
        stepped = fkpp_step(state, 0.004)
        inner = stepped.u[1:-1]
        assert np.allclose(inner, const, atol=1e-15)


def test_step_stability_guard():
    x = np.arange(0.0, 1.0 + 1e-9, 0.1)
    state = FkppState(x=x, u=(x <= 0.5).astype(float), t=0.0, offspring=BINARY)
    with pytest.raises(ValueError):
        fkpp_step(state, 0.01)  # dx^2/2 = 0.005


def test_stability_checked_after_dt_rederivation():
    # round(0.0124 / 0.005) = 2 steps of 0.0062 > dx^2/2 = 0.005
    with pytest.raises(ValueError, match="stability"):
        solve_heaviside(
            BINARY, 0.0124, x_min=-5.0, x_max=5.0, dx=0.1, dt=0.005, front_buffer=1.0
        )


def test_short_horizon_takes_one_step():
    # t_end far below dt = dx^2/4 still integrates, in one step of t_end
    kw = dict(x_min=-5.0, x_max=5.0, dx=0.05, front_buffer=1.0)
    t_end = 1e-4
    state = solve_heaviside(BINARY, t_end, **kw)
    start = solve_heaviside(BINARY, 0.0, **kw)
    assert state.t == t_end
    assert not np.array_equal(state.u, start.u)
    assert np.max(np.abs(state.u - fkpp_step(start, t_end).u)) <= 1e-15


@pytest.mark.parametrize("dt_over_dx2", [0.25, 0.5])
@pytest.mark.parametrize(
    "off",
    [BINARY, LAWS["1,3"], OffspringDistribution(np.array([1, 2, 6]), np.array([0.4, 0.5, 0.1]))],
    ids=["binary", "1,3", "1,2,6"],
)
def test_fused_step_matches_formula(off, dt_over_dx2):
    # one step equals u + c (u_- - 2u + u_+) + dt R(u) on every cell, to
    # relative rounding, from u = 1 - 1e-16 down to 1e-290
    dx = 0.05
    dt = dt_over_dx2 * dx * dx
    c = 0.5 * dt / (dx * dx)
    u = np.concatenate([[1.0], 1.0 - np.geomspace(1e-16, 0.5, 60), np.geomspace(0.4, 1e-290, 300), [0.0]])
    left, mid, right = u[:-2], u[1:-1], u[2:]
    expected = mid + c * (left - 2.0 * mid + right) + dt * reaction(mid, off)
    _ExplicitStep(u, off, dx, dt)()
    assert np.all(expected > 0.0)
    assert np.max(np.abs(u[1:-1] / expected - 1.0)) <= 1e-14


def test_negative_horizon_rejected():
    with pytest.raises(ValueError):
        solve_heaviside(BINARY, -1.0, x_min=-5.0, x_max=5.0, dx=0.1)


@pytest.mark.parametrize("law", ["binary", "1,3"])
def test_one_stepping_path(law):
    # k fkpp_step calls and one solve to k dt agree; dx = 1/8 makes the
    # grid, dt = dx^2/4 and k dt exact in binary
    off, dx, k = LAWS[law], 0.125, 40
    dt = dx * dx / 4.0
    kw = dict(x_min=-5.0, x_max=5.0, dx=dx, front_buffer=1.0)
    state = solve_heaviside(off, 0.0, **kw)
    for _ in range(k):
        state = fkpp_step(state, dt)
    solved = solve_heaviside(off, k * dt, dt=dt, **kw)
    assert state.t == solved.t
    assert np.max(np.abs(state.u - solved.u)) <= 1e-15
    assert 0.0 < state.u[len(state.u) // 2 + 5] < 1.0


def test_heaviside_t0():
    state = solve_heaviside(BINARY, 0.0, x_min=-5.0, x_max=5.0, dx=0.1)
    assert np.array_equal(state.u, (state.x <= 0.0).astype(float))


def test_solution_stays_in_range_and_monotone():
    state = solve_heaviside(BINARY, 5.0, x_min=-20.0, dx=0.1)
    assert state.u.min() >= 0.0 and state.u.max() <= 1.0
    assert np.all(np.diff(state.u) <= 1e-12)


def test_comparison_principle():
    x = np.arange(-10.0, 10.0 + 1e-9, 0.1)
    rng = np.random.default_rng(4)
    v = np.clip(np.sort(rng.uniform(0, 1, len(x)))[::-1], 0, 1)
    v[0], v[-1] = 1.0, 0.0
    u = np.clip(v + 0.2 * (1 - v) * v, 0, 1)  # u >= v, same endpoints
    su = FkppState(x=x, u=u, t=0.0, offspring=BINARY)
    sv = FkppState(x=x, u=v, t=0.0, offspring=BINARY)
    for _ in range(200):
        su = fkpp_step(su, 0.0025)
        sv = fkpp_step(sv, 0.0025)
    assert np.all(su.u >= sv.u - 1e-12)


def test_front_position_interpolation():
    x = np.arange(-1.0, 1.0 + 1e-9, 0.5)
    u = np.array([1.0, 1.0, 0.75, 0.25, 0.0])
    state = FkppState(x=x, u=u, t=0.0, offspring=BINARY)
    assert front_position(state) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        front_position(FkppState(x=x, u=np.ones_like(x), t=0.0, offspring=BINARY))


def test_front_speed_sqrt2():
    state, track, snaps = solve_heaviside(
        BINARY, 60.0, dx=0.05, track_front=True, snapshot_times=(30.0,)
    )
    f30 = front_position(snaps[30.0])
    f60 = front_position(state)
    speed = (f60 - f30) / 30.0
    assert abs(speed - SQRT2) < 0.05
    assert len(track) > 100
    ts, fs = zip(*track)
    assert all(b > a for a, b in zip(fs[50:], fs[51:]))  # front advances


def test_grid_refinement_stability():
    t = 25.0
    f_coarse = front_position(solve_heaviside(BINARY, t, dx=0.05))
    f_fine = front_position(solve_heaviside(BINARY, t, dx=0.025))
    assert abs(f_coarse - f_fine) < 0.1


def test_front_buffer_error():
    with pytest.raises(FrontTooCloseError):
        solve_heaviside(BINARY, 20.0, x_min=-10.0, x_max=15.0, dx=0.1)


def test_front_offset_from_log_corrected_centering():
    # the half-level front trails the log-corrected centering by a stable
    # O(1) wave shift; pin the measured window so regressions are visible
    t = 25.0
    offset = front_position(solve_heaviside(BINARY, t, dx=0.05)) - m_standard(t)
    assert -1.8 < offset < -1.3


def test_tail_constant_trend():
    t = 10.0
    ests = []
    for sig in (1.5, 2.0, 3.0):
        est, diag = tail_constant(BINARY, sig, t)
        assert est > 0.0
        assert est <= 1.0 / math.sqrt(4.0 * math.pi) + 0.05
        assert "value_at_half_horizon" in diag and "abs_change" in diag
        ests.append(est)
    assert ests[0] < ests[1] < ests[2]


def test_tail_constant_validation():
    with pytest.raises(ValueError):
        tail_constant(BINARY, 1.0, 10.0)


def test_export_csv(tmp_path):
    # the fkpp kind's snapshot.csv holds the final state, value for value
    cfg = tmp_path / "fkpp.ini"
    cfg.write_text(f"[experiment]\nkind = fkpp\nt_end = 2\ndx = 0.1\n\n[output]\ndir = {tmp_path / 'out'}\n")
    run(load_config(cfg))
    with open(tmp_path / "out" / "snapshot.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    state = solve_heaviside(BINARY, 2.0, dx=0.1)
    assert rows[0] == ["x", "u"]
    assert rows[1:] == [[repr(float(x)), repr(float(u))] for x, u in zip(state.x, state.u)]
