import csv
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from vsbbm import fkpp
from vsbbm.fkpp import (
    FkppState,
    FrontTooCloseError,
    _ExplicitStep,
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


def test_fixed_points():
    for const in (0.0, 1.0):
        u = np.full(11, const)
        _ExplicitStep(u, BINARY, 0.1, 0.004)()
        assert np.allclose(u[1:-1], const, atol=1e-15)


@pytest.mark.parametrize(
    "dx, t_end",
    [
        (0.1, 0.1),
        (0.1, 0.0124),
        (0.1, 1.4999 * 0.1 * 0.1 / 4.0),  # one step of nearly 1.5 dx^2/4, the worst case
        (0.05, 1.4999 * 0.05 * 0.05 / 4.0),
        (0.05, 1e-4),
    ],
    ids=["dx0.1_t0.1", "dx0.1_t0.0124", "worst_dx0.1", "worst_dx0.05", "one_short_step"],
)
def test_derived_step_is_stable(monkeypatch, dx, t_end):
    # dt = dx^2/4 shrunk to land on t_end keeps c = dt / (2 dx^2) <= 3/16,
    # inside the stability limit 1/4, so the solver needs no check of it
    cs = []
    init = _ExplicitStep.__init__

    def recorded(self, *args):
        init(self, *args)
        cs.append(self.c)

    monkeypatch.setattr(_ExplicitStep, "__init__", recorded)
    solve_heaviside(BINARY, t_end, dx=dx)
    assert len(cs) == 1 and 0.0 < cs[0] <= 3.0 / 16.0


def test_short_horizon_takes_one_step():
    # t_end far below dt = dx^2/4 still integrates, in one step of t_end
    kw = dict(x_max=40.0, dx=0.05)
    t_end = 1e-4
    state = solve_heaviside(BINARY, t_end, **kw)
    start = solve_heaviside(BINARY, 0.0, **kw)
    assert state.t == t_end
    assert not np.array_equal(state.u, start.u)
    u = start.u.copy()
    _ExplicitStep(u, BINARY, kw["dx"], t_end)()
    assert np.max(np.abs(state.u - u)) <= 1e-15


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
        solve_heaviside(BINARY, -1.0, dx=0.1)


def _full_grid_solve(off, t_end, x_max, dx, snapshot_times):
    """solve_heaviside's loop with every step over the whole interior: a
    fresh ``_ExplicitStep`` called again and again, ``_check_range`` at the
    same steps; its (state, front track, snapshots)."""
    x = np.arange(fkpp.X_MIN, x_max + dx / 2, dx)
    u = (x <= 0.0).astype(np.float64)
    u[0], u[-1] = 1.0, 0.0
    n_steps = max(1, int(round(t_end / (dx * dx / 4.0)))) if t_end > 0 else 0
    dt = t_end / n_steps if n_steps else dx * dx / 4.0
    step = _ExplicitStep(u, off, dx, dt)
    check_every = max(1, n_steps // 200)
    track, snaps, t = [], {}, 0.0
    pending = sorted(snapshot_times)
    for step_i in range(n_steps):
        step()
        t = (step_i + 1) * dt
        if step_i % check_every == 0 or step_i == n_steps - 1:
            fkpp._check_range(u)
            track.append((t, front_position(FkppState(x=x, u=u, t=t))))
        while pending and t >= pending[0] - dt / 2:
            snaps[pending.pop(0)] = u.copy()
    fkpp._check_range(u)
    return u, track, snaps


def _assert_window_is_exact(off, t_end, kw, between=lambda: None, snapshot_times=None):
    if snapshot_times is None:
        snapshot_times = (t_end / 3.0, t_end / 2.0) if t_end > 0 else ()
    u, track, snaps = _full_grid_solve(off, t_end, snapshot_times=snapshot_times, **kw)
    between()
    state = solve_heaviside(off, t_end, snapshot_times=snapshot_times, **kw)
    assert np.array_equal(state.u, u)
    assert state.track == track
    assert state.snapshots.keys() == snaps.keys() == set(snapshot_times)
    assert all(np.array_equal(state.snapshots[s].u, snaps[s]) for s in snaps)


@pytest.mark.parametrize(
    "law, t_end",
    [
        ("binary", 10.0),  # horizons where the window narrows on both sides
        ("1,3", 8.0),
        ("1,2,3", 6.0),
        ("binary", 0.05),  # 20 steps, fewer than one window period
        ("1,3", 2.5175),  # 1007 steps, not a multiple of it
        ("binary", 0.0),
    ],
)
def test_window_matches_full_grid_step(monkeypatch, law, t_end):
    # stepping only the window, in counted runs, is bit-identical to
    # stepping every cell one step at a time; the count of stepped cells
    # shows that the window did skip some
    off = LAWS[law]
    kw = dict(x_max=SQRT2 * t_end + 40.0, dx=0.1)
    stepped = []
    call = _ExplicitStep.__call__

    def counted(s, n=1):
        stepped.append((n, n * (s.hi - s.lo)))
        call(s, n)

    monkeypatch.setattr(_ExplicitStep, "__call__", counted)
    _assert_window_is_exact(off, t_end, kw)
    interior = round((kw["x_max"] - fkpp.X_MIN) / kw["dx"]) - 1
    n_steps = max(1, round(t_end / (kw["dx"] ** 2 / 4.0))) if t_end > 0 else 0
    full, windowed = stepped[:n_steps], stepped[n_steps:]
    assert all(c == (1, interior) for c in full)  # the full-grid loop
    assert sum(n for n, _ in windowed) == n_steps
    if t_end >= 1.0:
        assert sum(cells for _, cells in windowed) < 0.9 * n_steps * interior


@pytest.mark.parametrize(
    "law, t_end, snapshot_times",
    [
        ("binary", 2.0, (1.0, 1.0 + 0.1**2 / 16.0)),  # two snapshots on one step
        ("1,3", 2.0, (0.5, 0.5, 1.0 - 0.1**2 / 10.0, 1.0)),  # a repeated time, two on one step
        ("binary", 0.4, (0.0, 0.05, 0.4)),  # 160 steps: every step is checked
        ("1,3", 0.0825, (0.0825,)),  # 33 steps, the last a window re-derivation
    ],
)
def test_window_exact_at_every_stop(law, t_end, snapshot_times):
    # counted runs end at each snapshot, check and re-derivation step, also
    # where several fall on one step and where every step is a check
    _assert_window_is_exact(LAWS[law], t_end, dict(x_max=SQRT2 * t_end + 40.0, dx=0.1),
                            snapshot_times=snapshot_times)


CHAIN = OffspringDistribution(np.array([1]), np.array([1.0]))


@pytest.mark.parametrize(
    "off, t_end, x_max",
    [
        (LAWS["1,3"], 8.0, fkpp._tail_x_max(2.0, 8.0)),  # a wide tail grid
        (BINARY, 5.0, 100.0),  # u underflows to 0 near x = 88, inside the grid
        (CHAIN, 5.0, 40.0),  # P is p_0 everywhere: no cell needs Horner's rule
    ],
    ids=["1,3-tail-grid", "binary-underflow-edge", "chain"],
)
def test_window_exact_where_reaction_is_constant(off, t_end, x_max):
    # P evaluated only left of the cells where it rounds to p_0, on grids
    # whose far right holds u of every size down to exact zeros
    _assert_window_is_exact(off, t_end, dict(x_max=x_max, dx=0.1))


def test_reaction_is_evaluated_on_part_of_the_window(monkeypatch):
    # binary t = 10 on the sigma_e = 2 tail grid: P rounds to p_0 on about
    # 55% of the window's cell updates, and the runs skip it there
    horner, window = [0], [0]
    call = _ExplicitStep.__call__

    def counted(s, n=1):
        horner[0] += n * len(s.head)
        window[0] += n * (s.hi - s.lo)
        call(s, n)

    monkeypatch.setattr(_ExplicitStep, "__call__", counted)
    solve_heaviside(BINARY, 10.0, x_max=fkpp._tail_x_max(2.0, 10.0), dx=0.1)
    assert 0 < horner[0] < 0.7 * window[0]


@pytest.mark.parametrize("off", [*LAWS.values(), CHAIN], ids=[*LAWS, "chain"])
def test_reaction_below_the_flat_level_is_its_constant(off):
    # one step over u from 1 down to 0 leaves Horner's P(u) in the buffer:
    # exactly p_0 for every u up to U*, the bound that ``flat`` shrinks by
    # a run's growth (1 + 2 dt)^(WINDOW_EVERY + 1)
    dx, dt = 0.05, 0.05**2 / 4.0
    u = np.concatenate([[1.0], np.geomspace(1.0, 1e-320, 2000), [0.0, 0.0]])
    step = _ExplicitStep(u.copy(), off, dx, dt)
    u_star = step.flat * (1.0 + 2.0 * dt) ** (fkpp.WINDOW_EVERY + 1)
    step()
    flat = u[1:-1] <= u_star
    assert flat.any() and np.all(step.r[flat] == step.p[0])
    if off is not CHAIN:
        assert 1e-16 < step.flat < 1e-13 and not np.all(step.r == step.p[0])


@pytest.mark.parametrize(
    "kw, name",
    [
        (dict(t_end=-1.0), "t_end"),
        (dict(t_end=math.nan), "t_end"),
        (dict(t_end=math.inf), "t_end"),
        (dict(dx=0.0), "dx"),
        (dict(dx=-0.1), "dx"),
        (dict(dx=math.nan), "dx"),
        (dict(dx=math.inf), "dx"),
        (dict(x_max=-60.0), "x_max"),
        (dict(x_max=math.nan), "x_max"),
        (dict(x_max=0.01), "x_max"),  # the last grid point, at dx = 0.05, is 0
    ],
)
def test_bad_grid_arguments_rejected(kw, name):
    args = dict(t_end=1.0, dx=0.05) | kw
    with pytest.raises(ValueError, match=f"^{name}="):
        solve_heaviside(BINARY, **args)


@pytest.mark.parametrize("snapshot_times", [(11.0,), (-0.5,), (2.0, 10.0 + 1e-9), (1.0, math.nan, 2.0)])
def test_snapshot_outside_the_horizon_rejected(snapshot_times):
    with pytest.raises(ValueError, match=r"snapshot times .* must lie in \[0, t_end=10.0\]"):
        solve_heaviside(BINARY, 10.0, dx=0.1, snapshot_times=snapshot_times)


def test_snapshot_at_t0_is_the_initial_data():
    state = solve_heaviside(BINARY, 0.0, dx=0.1, snapshot_times=(0.0,))
    snap = state.snapshots[0.0]
    assert snap.t == 0.0 and np.array_equal(snap.u, state.u)


def test_window_resets_after_a_clip(monkeypatch):
    # a clip can change a cell outside the window (forced here: the cell
    # next to the left boundary, far behind the front, goes to -1e-10 on
    # the third range check); the window must then cover the whole
    # interior again
    check = fkpp._check_range
    calls = []

    def clipping_check(u):
        calls.append(u[1])
        if len(calls) == 3:
            u[1] = -1e-10
        return check(u)

    monkeypatch.setattr(fkpp, "_check_range", clipping_check)
    _assert_window_is_exact(BINARY, 5.0, dict(x_max=40.0, dx=0.1), between=calls.clear)
    # the cell was 1 before the clip and stepped back up after it
    assert calls[2] == 1.0 and 0.0 < calls[3] < 1.0


def test_heaviside_t0():
    state = solve_heaviside(BINARY, 0.0, dx=0.1)
    assert np.array_equal(state.u, (state.x <= 0.0).astype(float))


def test_solution_stays_in_range_and_monotone():
    state = solve_heaviside(BINARY, 5.0, dx=0.1)
    assert state.u.min() >= 0.0 and state.u.max() <= 1.0
    assert np.all(np.diff(state.u) <= 1e-12)


def test_comparison_principle():
    x = np.arange(-10.0, 10.0 + 1e-9, 0.1)
    rng = np.random.default_rng(4)
    v = np.clip(np.sort(rng.uniform(0, 1, len(x)))[::-1], 0, 1)
    v[0], v[-1] = 1.0, 0.0
    u = np.clip(v + 0.2 * (1 - v) * v, 0, 1)  # u >= v, same endpoints
    steps = [_ExplicitStep(w, BINARY, x[1] - x[0], 0.0025) for w in (u, v)]
    for _ in range(200):
        for step in steps:
            step()
    assert np.all(u >= v - 1e-12)


def test_front_position_interpolation():
    x = np.arange(-1.0, 1.0 + 1e-9, 0.5)
    u = np.array([1.0, 1.0, 0.75, 0.25, 0.0])
    state = FkppState(x=x, u=u, t=0.0)
    assert front_position(state) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        front_position(FkppState(x=x, u=np.ones_like(x), t=0.0))


def test_front_speed_sqrt2():
    state = solve_heaviside(BINARY, 60.0, dx=0.05, snapshot_times=(30.0,))
    f30 = front_position(state.snapshots[30.0])
    f60 = front_position(state)
    speed = (f60 - f30) / 30.0
    assert abs(speed - SQRT2) < 0.05
    assert len(state.track) > 100
    ts, fs = zip(*state.track)
    assert all(b > a for a, b in zip(fs[50:], fs[51:]))  # front advances


def test_grid_refinement_stability():
    t = 25.0
    f_coarse = front_position(solve_heaviside(BINARY, t, dx=0.05))
    f_fine = front_position(solve_heaviside(BINARY, t, dx=0.025))
    assert abs(f_coarse - f_fine) < 0.1


def test_front_buffer_error():
    # u at x = 20, FRONT_BUFFER = 20 inside x_max = 40, passes 1e-8 at
    # t = 8.5, well before t_end = 20
    with pytest.raises(FrontTooCloseError, match="front within 20.0 of x_max=40.0"):
        solve_heaviside(BINARY, 20.0, x_max=40.0, dx=0.1)


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
    # the values themselves, bit for bit
    assert ests == [0.1796301398639999, 0.2287790472993778, 0.28506119533566604]


def test_tail_constant_is_pinned():
    # law (1,3) at dx = 0.1: the value at t = 8 and its t/2 diagnostic,
    # which is the value at t = 4
    est, diag = tail_constant(LAWS["1,3"], 2.0, 8.0, dx=0.1)
    assert est == 0.17163332774036036
    assert diag["value_at_half_horizon"] == tail_constant(LAWS["1,3"], 2.0, 4.0, dx=0.1)[0] == 0.17544071963437913


def test_tail_constant_validation():
    with pytest.raises(ValueError):
        tail_constant(BINARY, 1.0, 10.0)


def test_tail_rejects_a_subnormal_u():
    # at t = 30, dx = 0.1 the evaluation point of sigma_e = 5 holds
    # u ~ 3.4e-313, a subnormal float whose log has lost its relative
    # accuracy (the estimate read 37.1, a hundred times the others)
    with pytest.raises(ValueError, match=r"u = .* sigma_e = 5.0, t = 30.0 .* smallest normal"):
        tail_constant(BINARY, 5.0, 30.0, dx=0.1)


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


def test_fkpp_artifacts_are_pinned(tmp_path):
    # sha256 of the fkpp kind's artifacts, computed with every step over
    # the whole interior; a change to the stepping, the front track or the
    # tail constants changes them
    pinned = {
        "t_end = 10\ndx = 0.1\n": {
            "front.csv": "d19400890a1a570b4e877a54e9705938cbd706bcb7bd73c2c6c69201327d8bdf",
            "snapshot.csv": "631e59cc05bbe8bde990d1c6c1ec5edc3fd619f69703bbccde0f28654c910a9a",
            "report.json": "9378771cb0cd148e9d2f99228a114a0751af535762ca69e3ea73f6bcc0abe0c3",
        },
        "t_end = 8\ndx = 0.1\nsigma_e_list = 2\n\n[offspring]\nks = 1 3\nps = 0.5 0.5\n": {
            "front.csv": "720b6aa885ace71a009b649f00dc0a8907daf69368bb4648cf30277ac2466444",
            "snapshot.csv": "035030917f79a1e04aca491cf17de508a0260eac4e8dc0102d794fb1c5c41459",
            "report.json": "4a92293a45f314fa7c5a239fbc705ac8a4dbf89ff83ae817c6cc9cd294fc2662",
        },
    }
    for i, (lines, digests) in enumerate(pinned.items()):
        out = tmp_path / f"out{i}"
        cfg = tmp_path / f"fkpp{i}.ini"
        cfg.write_text(f"[experiment]\nkind = fkpp\n{lines}\n[output]\ndir = {out}\n")
        run(load_config(cfg))
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
