import math
import pickle

import numpy as np
import pytest

from vsbbm.speed import (
    AssumptionError,
    SpeedProfile,
    _kink_select,
    _one_kink_eval,
    build_envelopes,
    delta_thresholds,
    flat_initial_extent,
    from_function,
    from_table_csv,
    identity_profile,
    piecewise_linear,
    sigma2,
    two_speed,
)


def power2_profile():
    return from_function(
        lambda x: np.asarray(x) ** 2,
        slope_at_0=0.0,
        slope_at_1=2.0,
        k1_upper=2.0,
        k1_lower=2.0,
        k2_upper=2.0,
        k2_lower=2.0,
        label="power2",
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
    for prof in (identity_profile(), power2_profile()):
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
    vals = sigma2(power2_profile(), s, 7.0)
    assert np.all(np.diff(vals) >= 0)


def test_two_speed_normalization():
    prof = two_speed(0.5, 2.0, 2.0 / 3.0)
    assert float(prof(2.0 / 3.0)) == pytest.approx(1.0 / 3.0, abs=1e-12)
    with pytest.raises(AssumptionError):
        two_speed(0.5, 2.0, 0.5)  # 0.25 + 1.0 != 1
    with pytest.raises(AssumptionError):
        two_speed(0.5, 2.0, 1.5)  # kink outside (0,1)


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


@pytest.mark.parametrize("clamp", [False, True], ids=["raw", "clamped"])
@pytest.mark.parametrize(
    "slope0, slope1", [(-0.2, 2.0), (0.3, 2.0), (1.5, 0.5)], ids=["convex-dips", "convex", "concave"]
)
def test_one_kink_takes_the_line_of_each_side(slope0, slope1, clamp):
    kink = (1.0 - slope1) / (slope0 - slope1)
    x = _kink_grid(kink)
    want = np.where(x <= kink, slope0 * x, 1.0 + slope1 * (x - 1.0))
    if clamp:
        want = np.maximum(want, 0.0)
    got = _one_kink_eval(_kink_select(slope0, slope1), slope0, slope1, clamp, x)
    # the kink itself is rounded: only next to it may the lines differ, by an ulp
    far = np.abs(x - kink) > 1e-12
    assert np.array_equal(got[far], want[far])
    np.testing.assert_allclose(got, want, rtol=0, atol=np.spacing(1.0))


def test_delta_thresholds_identity():
    d_less, d_greater = delta_thresholds(identity_profile(), 1000.0)
    assert d_less == pytest.approx(0.01, abs=1e-8)
    assert d_greater == pytest.approx(0.01, abs=1e-8)
    with pytest.raises(ValueError):
        delta_thresholds(identity_profile(), 1.0)


def test_delta_less_flat_piece():
    prof = piecewise_linear([0.0, 0.3, 1.0], [0.0, 0.0, 1.0], slope_at_0=0.0)
    for t in (2.0, 100.0, 10**4):
        d_less, _ = delta_thresholds(prof, t)
        assert d_less >= 0.3
    assert flat_initial_extent(prof) == pytest.approx(0.3, abs=1e-8)


def test_delta_greater_shrinks_with_t():
    prof = power2_profile()
    vals = [delta_thresholds(prof, t)[1] for t in (1e2, 1e3, 1e4)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] < 0.01


def test_build_envelopes_exact_two_speed():
    # zero corrections reproduce the input kink: (1-2)/(1/2-2) = 2/3
    prof = two_speed(0.5, 2.0, 2.0 / 3.0)
    pair = build_envelopes(prof, 50.0)
    assert pair.kink_upper == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert pair.kink_lower == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_envelope_continuity_and_endpoints():
    prof = power2_profile()
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
    prof = power2_profile()
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


def test_envelope_flat_start_stays_flat():
    # persistent flat piece: the upper envelope first branch is identically 0
    prof = piecewise_linear(
        [0.0, 0.3, 0.9, 1.0],
        [0.0, 0.0, 0.6, 1.0],
        slope_at_0=0.0,
        slope_at_1=4.0,
        k1_upper=1.0,
        k2_upper=1.0,
    )
    pair = build_envelopes(prof, 20.0)
    assert pair.upper.slope_at_0 == 0.0
    d_less, _ = delta_thresholds(prof, 20.0)
    x = np.linspace(0, min(d_less, pair.kink_upper), 100)
    assert np.all(pair.upper(x) == 0.0)


def test_envelope_requires_finite_end_slope():
    prof = from_function(
        lambda x: np.asarray(x) / 2 + (1 - np.sqrt(1 - np.asarray(x) ** 2)) / 2,
        slope_at_0=0.5,
        slope_at_1=math.inf,
    )
    with pytest.raises(AssumptionError):
        build_envelopes(prof, 10.0)
    with pytest.raises(AssumptionError):
        build_envelopes(identity_profile(), 10.0)  # sigma_e^2 = 1, also (A1) fails


def test_envelopes_pure():
    prof = power2_profile()
    a = build_envelopes(prof, 10.0)
    b = build_envelopes(prof, 10.0)
    x = np.linspace(0, 1, 777)
    assert np.array_equal(a.upper(x), b.upper(x))
    assert np.array_equal(a.lower(x), b.lower(x))
    assert a.kink_upper == b.kink_upper


def test_envelopes_pickle():
    # envelope profiles cross process pools (compare with workers > 1)
    pair = build_envelopes(power2_profile(), 10.0)
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
    power2_profile().check_below_diagonal()
    with pytest.raises(AssumptionError):
        identity_profile().check_below_diagonal()


def test_declared_slope_mismatch():
    with pytest.raises(AssumptionError):
        from_function(lambda x: np.asarray(x) ** 2, slope_at_0=0.5, slope_at_1=2.0)


def test_from_table_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# x, A\n0,0\n0.5,0.25\n1,1\n")
    prof = from_table_csv(path)
    assert float(prof(0.25)) == pytest.approx(0.125, abs=1e-12)
    assert float(prof(0.75)) == pytest.approx(0.625, abs=1e-12)
