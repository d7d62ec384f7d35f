import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from vsbbm.speed import (
    AssumptionError,
    SpeedProfile,
    build_envelopes,
    delta_thresholds,
    flat_initial_extent,
    from_table_csv,
    identity_profile,
    piecewise_linear,
    power_profile,
    sigma2,
    two_speed,
)


def test_endpoint_validation():
    with pytest.raises(AssumptionError):
        SpeedProfile(func=lambda x: x + 0.1, slope_at_0=1.0, slope_at_1=1.0)
    with pytest.raises(AssumptionError):
        SpeedProfile(func=lambda x: 0.5 * x, slope_at_0=0.5, slope_at_1=0.5)


def test_sigma2_identity():
    assert sigma2(identity_profile(), 3.7, 10.0) == pytest.approx(3.7, abs=1e-12)


def test_sigma2_two_speed_example():
    prof = two_speed(0.5, 2.0, 2.0 / 3.0)
    assert sigma2(prof, 5.0, 9.0) == pytest.approx(2.5, abs=1e-12)


def test_sigma2_endpoint_and_range():
    for prof in (identity_profile(), power_profile(2)):
        assert sigma2(prof, 8.0, 8.0) == pytest.approx(8.0, abs=1e-12)
        assert sigma2(prof, 0.0, 8.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        sigma2(identity_profile(), 9.0, 8.0)
    with pytest.raises(ValueError):
        sigma2(identity_profile(), -0.5, 8.0)
    with pytest.raises(ValueError, match=r"outside \[0, 8.0\]"):
        sigma2(identity_profile(), np.array([0.0, 8.5, 3.0]), 8.0)
    assert sigma2(identity_profile(), np.empty(0), 8.0).shape == (0,)


def test_sigma2_vectorized_monotone():
    s = np.linspace(0.0, 7.0, 200)
    vals = sigma2(power_profile(2), s, 7.0)
    assert np.all(np.diff(vals) >= 0)


def test_two_speed_normalization():
    prof = two_speed(0.5, 2.0, 2.0 / 3.0)
    assert float(prof(2.0 / 3.0)) == pytest.approx(1.0 / 3.0, abs=1e-12)
    with pytest.raises(AssumptionError):
        two_speed(0.5, 2.0, 0.5)  # 0.25 + 1.0 != 1
    with pytest.raises(AssumptionError):
        two_speed(0.5, 2.0, 1.5)  # kink outside (0,1)
    # off by 7.5e-12: past the endpoint tolerance, so the normalization
    # check names it rather than the A(1) = 1 check
    with pytest.raises(AssumptionError, match="normalization"):
        two_speed(0.25, 2.5, 0.66666666667)
    # NaN fails every comparison: a NaN slope past the kink used to pass
    with pytest.raises(AssumptionError):
        two_speed(0.5, math.nan, 2.0 / 3.0)


def test_two_speed_identity_case():
    prof = two_speed(1.0, 1.0, 0.4)
    x = np.linspace(0, 1, 50)
    assert np.allclose(prof(x), x, atol=1e-12)


def test_two_speed_flat_start():
    prof = two_speed(0.0, 2.0, 0.5)
    assert float(prof(0.3)) == 0.0
    assert float(prof(0.75)) == pytest.approx(0.5, abs=1e-12)
    x = np.linspace(0.5, 1, 20)
    assert np.allclose(prof(x), 2 * x - 1, atol=1e-12)


def _kink_grid(kink):
    # a dense grid with the kink and its two floating-point neighbours
    near = [kink, np.nextafter(kink, 0.0), np.nextafter(kink, 1.0)]
    return np.sort(np.concatenate([np.linspace(0.0, 1.0, 100_001), near]))


@pytest.mark.parametrize("s1, s2, b", [(0.5, 2.0, 2.0 / 3.0), (1.5, 0.5, 0.5)], ids=["convex", "concave"])
def test_two_speed_takes_the_line_of_each_side(s1, s2, b):
    x = _kink_grid(b)
    want = np.where(x <= b, s1 * x, s1 * b + s2 * (x - b))
    assert np.array_equal(two_speed(s1, s2, b)(x), want)


@pytest.mark.parametrize(
    "prof, want",
    [
        # a first segment of width 1e-7: a difference step of 1e-6 reads 1.90
        (piecewise_linear([0.0, 1e-7, 1.0], [0.0, 1e-6, 1.0]), (1e-6 / 1e-7, (1.0 - 1e-6) / (1.0 - 1e-7))),
        # a last segment of width 1e-7 and slope 1e4, of the stored floats
        (
            piecewise_linear([0.0, 0.5, 1.0 - 1e-7, 1.0], [0.0, 0.2, 1.0 - 1e-3, 1.0]),
            (0.2 / 0.5, (1.0 - (1.0 - 1e-3)) / (1.0 - (1.0 - 1e-7))),
        ),
        # the universality ladder's profile b has two_speed(0.5, 2, 2/3)'s
        # end slopes; a difference step of 1e-6 reads 2.0000000000575 at 1
        (piecewise_linear([0.0, 0.4, 0.8, 1.0], [0.0, 0.2, 0.6, 1.0]), (0.5, 2.0)),
        (power_profile(0.5), (math.inf, 0.5)),
        (power_profile(1), (1.0, 1.0)),
        (power_profile(2.5), (0.0, 2.5)),
    ],
    ids=["steep-first", "steep-last", "ladder-b", "power0.5", "power1", "power2.5"],
)
def test_end_slopes_are_exact(prof, want):
    assert (prof.slope_at_0, prof.slope_at_1) == pytest.approx(want, rel=1e-15)


def test_speed_profile_checks_fail_on_nan():
    with pytest.raises(AssumptionError, match="slope at 0"):
        SpeedProfile(func=np.asarray, slope_at_0=math.nan, slope_at_1=1.0)
    with pytest.raises(AssumptionError, match=r"A\(0\)=0"):
        SpeedProfile(func=lambda x: np.full_like(x, math.nan), slope_at_0=1.0, slope_at_1=1.0)
    # x^2 with a hole of NaN around 1/2
    holed = SpeedProfile(
        func=lambda x: np.where(np.abs(x - 0.5) < 1e-3, math.nan, x**2), slope_at_0=0.0, slope_at_1=2.0
    )
    with pytest.raises(AssumptionError, match="non-decreasing"):
        holed.check_monotone()
    with pytest.raises(AssumptionError, match="A1"):
        holed.check_below_diagonal()


def test_delta_thresholds_identity():
    d_less, d_greater = delta_thresholds(identity_profile(), 1000.0)
    assert d_less == pytest.approx(0.01, abs=1e-8)
    assert d_greater == pytest.approx(0.01, abs=1e-8)
    with pytest.raises(ValueError):
        delta_thresholds(identity_profile(), 1.0)


def test_delta_less_flat_piece():
    prof = piecewise_linear([0.0, 0.3, 1.0], [0.0, 0.0, 1.0])
    for t in (2.0, 100.0, 10**4):
        d_less, _ = delta_thresholds(prof, t)
        assert d_less >= 0.3
    assert flat_initial_extent(prof) == pytest.approx(0.3, abs=1e-8)


_PIECEWISE_KNOTS = ([0.0, 0.3, 0.9, 1.0], [0.0, 0.1, 0.5, 1.0])


@pytest.mark.parametrize(
    "prof, t, want",
    [
        (power_profile(2), 10.0, (0.464158883318305, 0.11424804205307737)),
        (power_profile(2), 50.0, (0.27144176163710654, 0.03754513349849731)),
        (piecewise_linear(*_PIECEWISE_KNOTS), 10.0, (0.4731652034679428, 0.04308869375381619)),
        (piecewise_linear(*_PIECEWISE_KNOTS), 50.0, (0.22104188986122608, 0.014736125944182277)),
    ],
    ids=["power2-t10", "power2-t50", "piecewise-t10", "piecewise-t50"],
)
def test_delta_thresholds_are_pinned(prof, t, want):
    # the bisection's bits, which the envelopes of compare are built from
    assert delta_thresholds(prof, t) == want


def test_delta_greater_shrinks_with_t():
    prof = power_profile(2)
    vals = [delta_thresholds(prof, t)[1] for t in (1e2, 1e3, 1e4)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] < 0.01


def test_build_envelopes_exact_two_speed():
    # zero corrections reproduce the input kink: (1-2)/(1/2-2) = 2/3
    prof = two_speed(0.5, 2.0, 2.0 / 3.0)
    pair = build_envelopes(prof, 50.0)
    assert pair.kink_upper == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert pair.kink_lower == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_lower_envelope_kink_is_where_it_leaves_zero():
    # the lower first slope, s_b - curvature/2 * delta_less = -0.114, is
    # floored at 0 before the kink is computed: the kink is where the lower
    # member leaves 0, 0.527, not where the unfloored lines cross, 0.432
    pair = build_envelopes(power_profile(2), 10.0)
    assert pair.lower.slope_at_0 == 0.0
    assert pair.kink_lower == pytest.approx(0.5270185994690895, rel=1e-12)
    assert float(pair.lower(pair.kink_lower - 1e-6)) == 0.0
    assert float(pair.lower(pair.kink_lower + 1e-6)) > 0.0


def test_envelope_continuity_and_endpoints():
    prof = power_profile(2)
    pair = build_envelopes(prof, 10.0)
    for member, kink in ((pair.upper, pair.kink_upper), (pair.lower, pair.kink_lower)):
        assert float(member(0.0)) == pytest.approx(0.0, abs=1e-10)
        assert float(member(1.0)) == pytest.approx(1.0, abs=1e-10)
        left = float(member(kink - 1e-9))
        right = float(member(kink + 1e-9))
        assert abs(left - right) < 1e-7
        member.check_monotone()
    assert 0 < pair.kink_upper <= 1
    assert 0 < pair.kink_lower <= 1


def test_envelope_sandwich_near_ends():
    t = 10.0
    for prof in (power_profile(2), power_profile(2.2)):
        pair = build_envelopes(prof, t)
        window = t ** (1.0 / 3.0)
        s_grid = np.linspace(0, t, 4000)
        sig = np.asarray(sigma2(prof, s_grid, t))
        grid = s_grid[(sig <= window) | (sig >= t - window)]
        up = np.asarray(sigma2(pair.upper, grid, t))
        lo = np.asarray(sigma2(pair.lower, grid, t))
        mid = np.asarray(sigma2(prof, grid, t))
        assert np.all(up >= mid - 1e-9)
        assert np.all(lo <= mid + 1e-9)


def test_power_profile_curvature():
    x = np.linspace(0.0, 1.0, 10**4 + 1)
    assert np.array_equal(power_profile(2)(x), x**2)
    assert power_profile(2.2).curvature == pytest.approx(2.64, rel=1e-15)
    # below exponent 2, A'' = p(p-1)x^(p-2) has no bound near 0
    assert power_profile(1.8).curvature == math.inf
    with pytest.raises(AssumptionError, match="curvature"):
        build_envelopes(power_profile(1.8), 10.0)


def test_envelope_flat_start_stays_flat():
    # persistent flat piece: the upper envelope first branch is identically 0
    prof = replace(piecewise_linear([0.0, 0.3, 0.9, 1.0], [0.0, 0.0, 0.6, 1.0]), curvature=1.0)
    pair = build_envelopes(prof, 20.0)
    assert pair.upper.slope_at_0 == 0.0
    d_less, _ = delta_thresholds(prof, 20.0)
    x = np.linspace(0, min(d_less, pair.kink_upper), 100)
    assert np.all(pair.upper(x) == 0.0)


def test_envelope_requires_finite_end_slope():
    prof = SpeedProfile(
        func=lambda x: np.asarray(x) / 2 + (1 - np.sqrt(1 - np.asarray(x) ** 2)) / 2,
        slope_at_0=0.5,
        slope_at_1=math.inf,
    )
    with pytest.raises(AssumptionError):
        build_envelopes(prof, 10.0)
    with pytest.raises(AssumptionError):
        build_envelopes(identity_profile(), 10.0)  # sigma_e^2 = 1, also (A1) fails


def test_envelopes_pure():
    prof = power_profile(2)
    a = build_envelopes(prof, 10.0)
    b = build_envelopes(prof, 10.0)
    x = np.linspace(0, 1, 777)
    assert np.array_equal(a.upper(x), b.upper(x))
    assert np.array_equal(a.lower(x), b.lower(x))
    assert a.kink_upper == b.kink_upper


def test_envelopes_pickle():
    # envelope profiles cross process pools (compare with workers > 1)
    pair = build_envelopes(power_profile(2), 10.0)
    again = pickle.loads(pickle.dumps(pair))
    x = np.linspace(0, 1, 777)
    assert np.array_equal(again.upper(x), pair.upper(x))
    assert np.array_equal(again.lower(x), pair.lower(x))


def test_monotonicity_check_rejects_wiggle():
    wiggly = SpeedProfile(
        func=lambda x: np.asarray(x) - 0.4 * np.sin(2 * np.pi * np.asarray(x)),
        slope_at_0=0.0,
        slope_at_1=0.0,
    )
    with pytest.raises(AssumptionError):
        wiggly.check_monotone()


def test_below_diagonal_check():
    power_profile(2).check_below_diagonal()
    with pytest.raises(AssumptionError):
        identity_profile().check_below_diagonal()


def test_from_table_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# x, A\n0,0\n0.5,0.25\n1,1\n")
    prof = from_table_csv(path)
    assert float(prof(0.25)) == pytest.approx(0.125, abs=1e-12)
    assert float(prof(0.75)) == pytest.approx(0.625, abs=1e-12)
