import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intercept import dubins
from intercept.core import PlanarPoint
from intercept.dubins import (
    DUBINS_CAR,
    DubinsRegion,
    _case,
    _cc_lengths,
    _cc_point,
    _cs,
    boundary_points,
    cc_cubic_roots,
    classify,
    distance,
    theta_cs,
)
from intercept.plants import (
    LEFT,
    SIMPLE_MOTIONS,
    InterceptionPath,
    arc,
    simple_distance,
    straight,
    wait,
)
from oracles import DubinsBoundaryOracle, reference_dubins_contains, reference_dubins_distance

times = st.floats(min_value=0, max_value=12, allow_nan=False)
coords = st.floats(min_value=-8, max_value=8, allow_nan=False)
points = st.builds(PlanarPoint, coords, coords)


class TestClassify:
    def test_origin(self):
        assert classify(PlanarPoint(0, 0)) is DubinsRegion.D_I

    def test_far_above(self):
        # alpha_cs = 9 > 0, alpha_cc = -5/4 <= -1
        assert classify(PlanarPoint(0, 3)) is DubinsRegion.D_II

    def test_inside_turning_disk(self):
        assert classify(PlanarPoint(0.5, 0.1)) is DubinsRegion.D_I

    def test_lune(self):
        assert classify(PlanarPoint(0, 0.5)) is DubinsRegion.D_III

    @given(points)
    def test_every_point_gets_exactly_one_region(self, p):
        assert classify(p) in (DubinsRegion.D_I, DubinsRegion.D_II, DubinsRegion.D_III)


class TestThetaCS:
    def test_straight_ahead_needs_no_turn(self):
        assert theta_cs(PlanarPoint(0, 2)) == 0.0

    def test_half_turn_to_the_side(self):
        assert theta_cs(PlanarPoint(2, 0)) == pytest.approx(math.pi)

    def test_far_above(self):
        assert theta_cs(PlanarPoint(0, 3)) == 0.0

    def test_undefined_inside_disks(self):
        with pytest.raises(ValueError):
            theta_cs(PlanarPoint(0.5, 0.1))

    @pytest.mark.parametrize(
        "x, y",
        [(1.192092896e-07, 1.5), (1.192092896e-07, 0.5625), (6.103515625e-05, 8.0), (5.960464477539063e-08, 2.0)],
    )
    def test_small_angle_path_ends_at_the_point(self, x, y):
        # an arccos of the cosine keeps half the digits of a tiny angle, and misses y
        theta, length = _cs(x, y, _case(x, y)[1])
        assert math.dist(dubins._cs_point(theta, length), PlanarPoint(x, y)) <= 1e-12


class TestVCS:
    """The CS path length, the second value of ``_cs`` on (|x|, y, alpha_cs)."""

    def test_straight_segment(self):
        assert _cs(0.0, 2.0, _case(0.0, 2.0)[1])[1] == 2.0

    def test_half_circle(self):
        assert _cs(2.0, 0.0, _case(2.0, 0.0)[1])[1] == pytest.approx(math.pi)

    def test_straight_far(self):
        assert _cs(0.0, 3.0, _case(0.0, 3.0)[1])[1] == 3.0

    def test_origin_allowed(self):
        assert _cs(0.0, 0.0, _case(0.0, 0.0)[1])[1] == 0.0

    def test_domain_error_on_d1(self):
        with pytest.raises(ValueError):
            _cs(0.5, 0.1, _case(0.5, 0.1)[1])


class TestVCC:
    """The CC path lengths (plus, minus) of ``_cc_lengths`` on (|x|, y, alpha_cc)."""

    def test_origin_full_circle(self):
        _, minus = _cc_lengths(0.0, 0.0, _case(0.0, 0.0)[2])
        assert minus == pytest.approx(2 * math.pi, abs=1e-12)

    def test_d1_point_has_only_minus(self):
        # no plus window: unreachable before the minus length, reachable from it on
        p = PlanarPoint(0.5, 0.1)
        _, minus = _cc_lengths(0.5, 0.1, _case(0.5, 0.1)[2])
        assert minus > 0
        assert all(distance(minus * k / 50, p) > 0.0 for k in range(50))
        assert all(distance(minus + k / 10, p) == 0.0 for k in range(50))

    @given(
        st.one_of(
            # the closed turning disk |(|x|, y) - (1, 0)| <= 1
            st.builds(
                lambda r, a: PlanarPoint(1.0 + r * math.cos(a), r * math.sin(a)),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=2.0 * math.pi),
            ),
            # within 1e-12 of the turning circle, inside and out
            st.builds(
                lambda a, d: PlanarPoint(1.0 + (1.0 + d) * math.cos(a), (1.0 + d) * math.sin(a)),
                st.floats(min_value=0.0, max_value=2.0 * math.pi),
                st.floats(min_value=-1e-12, max_value=1e-12),
            ),
        )
    )
    @example(PlanarPoint(0.0, 0.0))
    @example(PlanarPoint(-0.0, 0.0))
    @example(PlanarPoint(1e-300, 0.0))
    @example(PlanarPoint(math.nextafter(2.0, 0.0), 0.0))
    @example(PlanarPoint(1.0, math.nextafter(1.0, 0.0)))
    @example(PlanarPoint(1.0, -math.nextafter(1.0, 0.0)))
    @settings(max_examples=500)
    def test_d1_minus_is_at_least_pi(self, p):
        # distance skips the CC lengths of a D_I point while t < pi
        ax, yy = abs(p.x), p.y
        region, _, a_cc = _case(ax, yy)
        assume(region is DubinsRegion.D_I)
        assert _cc_lengths(ax, yy, a_cc)[1] >= math.pi

    def test_minus_matches_first_passage_of_turn_turn_curve(self):
        # the first time a D_I point becomes reachable, a left-right path of
        # that exact duration must pass through it
        p = PlanarPoint(0.5, 0.1)
        _, minus = _cc_lengths(0.5, 0.1, _case(0.5, 0.1)[2])
        taus = np.linspace(0.0, math.pi / 2, 4001)
        found = None
        for t in np.arange(0.005, 8.0, 0.005):
            xs = 2 * np.cos(taus) - np.cos(t - 2 * taus) - 1.0
            ys = 2 * np.sin(taus) + np.sin(t - 2 * taus)
            if math.sqrt(float(np.min((xs - p.x) ** 2 + (ys - p.y) ** 2))) < 0.01:
                found = t
                break
        assert found is not None
        assert found == pytest.approx(minus, abs=0.02)


class TestContains:
    """The car can occupy y at time t exactly where ``distance(t, y) == 0.0``."""

    def test_origin_at_time_zero(self):
        assert distance(0.0, PlanarPoint(0, 0)) == 0.0

    def test_origin_needs_a_full_loop(self):
        assert distance(1.0, PlanarPoint(0, 0)) > 0.0
        assert distance(2 * math.pi, PlanarPoint(0, 0)) == 0.0

    def test_boundary_case(self):
        assert distance(2.0, PlanarPoint(0, 2)) == 0.0

    def test_d1_point_not_yet_reachable(self):
        assert distance(1.0, PlanarPoint(0.5, 0.1)) > 0.0

    @given(times, points)
    @settings(max_examples=300, deadline=None)
    def test_membership_implies_zero_distance(self, t, p):
        # the path-length membership test the boundary oracle relies on
        if reference_dubins_contains(t, p):
            assert distance(t, p) == 0.0

    def test_membership_iff_small_distance_on_random_sample(self):
        # adversarially chosen points can sit within 1e-9 of the set without
        # belonging to it, but random ones do not
        rng = np.random.default_rng(3)
        for _ in range(2000):
            t = float(rng.uniform(0, 12))
            p = PlanarPoint(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
            assert reference_dubins_contains(t, p) == (distance(t, p) <= 1e-9)


class TestCubicRoots:
    def test_degenerate_leading_coefficient_from_geometry(self):
        # y-coordinate chosen so the cubic degrades to a quadratic
        t = math.pi
        p = PlanarPoint(0.0, -math.sin(t / 3))
        roots = cc_cubic_roots(t, p)
        # the quadratic's roots, then the root that the vanishing coefficient sends to infinity
        assert len(roots) <= 3 and roots[-1] == math.inf
        for xi in roots[:-1]:
            res = self._residual(t, p, xi)
            assert abs(res) < 1e-9

    @staticmethod
    def _coefficients(t, p):
        """(a, b, c, d) of the cubic, each float expression as cc_cubic_roots has it."""
        ax = abs(p.x)
        third = t / 3
        a = -(p.y + math.sin(third))
        b = 3 + 3 * ax + math.cos(third)
        c = 3 * p.y - math.sin(third)
        d = math.cos(third) - (1 + ax)
        return a, b, c, d

    @classmethod
    def _residual(cls, t, p, xi):
        a, b, c, d = cls._coefficients(t, p)
        return ((a * xi + b) * xi + c) * xi + d

    def test_random_roots_have_small_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(3000):
            t = rng.uniform(0, 12)
            p = PlanarPoint(rng.uniform(-8, 8), rng.uniform(-8, 8))
            scale = max(1.0, *map(abs, self._coefficients(t, p)))
            for xi in cc_cubic_roots(t, p):
                assert abs(self._residual(t, p, xi)) < 1e-9 * scale

    def test_random_roots_near_the_origin_are_accurate_to_their_spread(self):
        # Near the origin a = -(y + sin(t/3)) is small and one root runs off to about -b/a.
        # There acos sees an argument next to +-1 and keeps half the digits, so a root can
        # be 5e-4 off at a residual of 6e-6. The bound is the Newton correction |f/f'|
        # against the roots' spread 1 + |b/a|, which Viete's form meets to about sqrt(eps)
        rng = np.random.default_rng(7)
        for _ in range(3000):
            t = rng.uniform(0, 1)
            r, angle = rng.uniform(0, 1e-2), rng.uniform(0, 2 * math.pi)
            p = PlanarPoint(r * math.cos(angle), r * math.sin(angle))
            a, b, c, _ = self._coefficients(t, p)
            roots = cc_cubic_roots(t, p)
            assert len(roots) == 3 and all(map(math.isfinite, roots))
            for xi in roots:
                slope = (3 * a * xi + 2 * b) * xi + c
                assert abs(self._residual(t, p, xi)) <= 1e-8 * abs(slope) * (1 + abs(b / a))

    @given(
        st.one_of(
            st.tuples(st.floats(0, 1), st.floats(-1e-2, 1e-2), st.floats(-1e-2, 1e-2)),
            st.tuples(st.floats(0, 20), st.floats(-8, 8), st.floats(-8, 8)),
            st.tuples(st.floats(0, 20), st.floats(-1e30, 1e30), st.floats(-1e30, 1e30)),
        )
    )
    @settings(max_examples=600, deadline=None)
    def test_the_cubic_has_three_distinct_real_roots(self, query):
        # what Viete's form relies on, exactly for the float coefficients: b^2 > 3ac makes
        # the depressed form's p negative, and a positive discriminant makes the roots real
        t, x, y = query
        a, b, c, d = map(Fraction, self._coefficients(t, PlanarPoint(x, y)))
        assert b * b > 3 * a * c
        if a != 0:  # else the quadratic branch
            disc = 18 * a * b * c * d - 4 * b**3 * d + (b * c) ** 2 - 4 * a * c**3
            assert disc > 27 * (a * d) ** 2

    @pytest.mark.parametrize("t, x, y", [(0.0, 1e160, 3.0), (1.0, 1e200, 0.0), (1.0, -1e52, 3.0)])
    def test_a_huge_query_has_no_root_and_a_finite_distance(self, t, x, y):
        # (b/a)**3 passes 1.8e308 for the two points past 1e100, where float ** raises;
        # at 1e52 the three roots are finite
        roots = cc_cubic_roots(t, PlanarPoint(x, y))
        if abs(x) > 1e100:
            assert roots == []
        else:
            assert len(roots) == 3 and all(map(math.isfinite, roots))
        assert distance(t, PlanarPoint(x, y)) == math.hypot(x, y)


class TestDistance:
    def test_cs_branch(self):
        assert distance(1.0, PlanarPoint(0, 3)) == 2.0

    def test_boundary_membership(self):
        assert distance(3.0, PlanarPoint(0, 3)) == 0.0

    def test_matches_oracle_at_lune_point(self):
        p = PlanarPoint(0, 0.5)
        oracle = DubinsBoundaryOracle(0.5)
        assert abs(distance(0.5, p) - oracle.distance(p)) <= 1e-6

    def test_matches_oracle_on_random_batch(self):
        rng = np.random.default_rng(21)
        # points on the curve y = -sin(t/3) + delta, where the cubic's a = -(y + sin(t/3))
        # nearly vanishes and Viete's form keeps only part of two roots' digits
        near_a_zero = np.random.default_rng(27)
        for t in rng.uniform(0.05, 7.0, size=6):
            oracle = DubinsBoundaryOracle(float(t), n_per_branch=20_000)
            for _ in range(25):
                r = rng.uniform(0, 8)
                ang = rng.uniform(0, 2 * math.pi)
                p = PlanarPoint(r * math.cos(ang), r * math.sin(ang))
                assert abs(distance(float(t), p) - oracle.distance(p)) <= 1e-5
            for _ in range(34):
                delta = near_a_zero.choice((-1.0, 1.0)) * 10.0 ** near_a_zero.uniform(-12, -3)
                p = PlanarPoint(near_a_zero.uniform(-4, 4), -math.sin(t / 3) + delta)
                assert abs(distance(float(t), p) - oracle.distance(p)) <= 1e-5

    @given(times, points)
    @settings(max_examples=300, deadline=None)
    def test_mirror_symmetry_is_exact(self, t, p):
        assert distance(t, p) == distance(t, PlanarPoint(-p.x, p.y))

    @given(points, times, times)
    @settings(max_examples=300, deadline=None)
    def test_lipschitz_in_time(self, p, t1, t2):
        d = abs(distance(t1, p) - distance(t2, p))
        assert d <= abs(t1 - t2) + 1e-12

    @given(times, points, points)
    @example(4.0, PlanarPoint(2.00001, -2.0), PlanarPoint(2.00001, -1.8984375))  # theta_cs ~ pi
    @settings(max_examples=300, deadline=None)
    def test_lipschitz_in_space(self, t, p1, p2):
        d = abs(distance(t, p1) - distance(t, p2))
        assert d <= math.dist(p1, p2) + 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            distance(-1.0, PlanarPoint(0, 1))


# 50-digit references (mpmath) of the CS length minus t, where theta_cs is within
# 5e-6 of pi and an arccos of the cosine loses up to 1e-9
@pytest.mark.parametrize(
    "t, x, y, reference",
    [
        (4.0, 2.00001, -2.0, 1.1415926536147932176),
        (4.0, 2.00001, -1.8984375, 1.0400301536161306627),
        (4.0, 2.0000000996578073, -1.698277427170475, 0.83987008076027119158),
    ],
)
def test_cs_distance_next_to_a_half_turn_matches_a_50_digit_reference(t, x, y, reference):
    assert abs(distance(t, PlanarPoint(x, y)) - reference) <= 1e-15 * (1.0 + reference)


# 50-digit references (mpmath) of both CC lengths at points in D_I (y < 0) and D_III
@pytest.mark.parametrize(
    "ax, yy, plus, minus",
    [
        (0.937, -0.998, 2.4592686447020680933, 4.7754442564132417817),
        (0.283, -0.697, 1.7666118427388772090, 5.5119511752402548232),
        (0.239, 0.649, 0.70619130789983117272, 6.5420205893247091458),
        (1.46, 0.888, 2.0488726127997061108, 4.9271506725895981502),
    ],
)
def test_cc_lengths_match_a_50_digit_reference(ax, yy, plus, minus):
    got = _cc_lengths(ax, yy, _case(ax, yy)[2])
    assert abs(got[0] - plus) <= 1e-15 * (1.0 + plus)
    assert abs(got[1] - minus) <= 1e-15 * (1.0 + minus)


@pytest.mark.parametrize(
    "x, y", [(math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1), (0.5, math.inf), (0.5, -math.inf)]
)
def test_non_finite_point_is_a_value_error(x, y):
    with pytest.raises(ValueError, match="no finite CC distance"):
        distance(1.0, PlanarPoint(x, y))
    with pytest.raises(ValueError, match="no finite CC distance"):
        DUBINS_CAR.path(1.0, PlanarPoint(x, y), 0.1, 1.0)
    with pytest.raises(ValueError, match="point must be finite"):
        simple_distance(1.0, PlanarPoint(x, y))
    with pytest.raises(ValueError, match="point must be finite"):
        SIMPLE_MOTIONS.path(1.0, PlanarPoint(x, y), 0.1, 1.0)


def test_nan_time_is_a_value_error_on_both_plants():
    # an infinite time fails the same way as NaN
    p = PlanarPoint(0.5, 0.1)
    for t in (math.nan, math.inf):
        bad_time = f"time must be finite and >= 0, got {t}"
        for plant in (SIMPLE_MOTIONS, DUBINS_CAR):
            with pytest.raises(ValueError, match=bad_time):
                plant.distance(t, p)
            with pytest.raises(ValueError, match=bad_time):
                plant.path(t, p, 0.1, 1.0)
            with pytest.raises(ValueError, match=bad_time):
                plant.best_step(t, PlanarPoint(3.0, 4.0), 1.0, 0.5, 0.1)
        with pytest.raises(ValueError, match=bad_time):
            cc_cubic_roots(t, p)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_best_step_rejects_non_finite_input_on_both_plants(bad):
    for p in (PlanarPoint(bad, 0.1), PlanarPoint(0.5, -bad)):
        with pytest.raises(ValueError, match="point must be finite"):
            SIMPLE_MOTIONS.best_step(1.0, p, 2.0, 0.5, 0.1)
    with pytest.raises(ValueError, match="distance must be finite"):
        DUBINS_CAR.best_step(1.0, PlanarPoint(3.0, 4.0), bad, 0.5, 0.1)


def _outcome(fn, t, p):
    """The answer as ``float.hex`` (or the bool), or the type of the error raised."""
    try:
        value = fn(t, p)
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return type(exc)
    return value.hex() if isinstance(value, float) else value


def _assert_matches_reference(t, p):
    assert _outcome(distance, t, p) == _outcome(reference_dubins_distance, t, p)


def _signed_zero_x(y):
    return st.sampled_from([0.0, -0.0]).map(lambda x: PlanarPoint(x, y))


tiny = st.floats(min_value=-1e-12, max_value=1e-12, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
mirror = st.sampled_from([1.0, -1.0])
kernel_points = st.one_of(
    points,
    coords.flatmap(_signed_zero_x),
    st.sampled_from([PlanarPoint(0.0, 0.0), PlanarPoint(-0.0, 0.0), PlanarPoint(0.0, -0.0)]),
    # within 1e-12 of the turning circle |(|x|, y) - (1, 0)| = 1 (the D_I border)
    st.builds(
        lambda a, d, m: PlanarPoint(m * (1.0 + (1.0 + d) * math.cos(a)), (1.0 + d) * math.sin(a)),
        angles,
        tiny,
        mirror,
    ),
    # within 1e-12 of the circle |(|x|, y) + (1, 0)| = 3 above the axis (alpha_cc = -1)
    st.builds(
        lambda a, d, m: PlanarPoint(m * ((3.0 + d) * math.cos(a) - 1.0), (3.0 + d) * math.sin(a)),
        st.floats(min_value=0.0, max_value=math.acos(1.0 / 3.0), allow_nan=False),
        tiny,
        mirror,
    ),
    # within 1e-12 of the x-axis, the lower edge of D_III
    st.builds(PlanarPoint, coords, tiny),
)


class TestFloatKernel:
    """``distance`` equals the composed reference bit for bit."""

    @given(times, kernel_points)
    @settings(max_examples=600, deadline=None)
    def test_matches_the_composed_reference(self, t, p):
        _assert_matches_reference(t, p)

    @given(
        st.floats(min_value=0.01, max_value=12, allow_nan=False),
        st.integers(min_value=0, max_value=35),
        st.sampled_from([0.0, -1e-9, 1e-9, -0.25, 0.25]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_composed_reference_on_the_boundary(self, t, i, dt):
        # boundary samples (odd i: the mirror image) at their own time, and just around it
        p = boundary_points(t, 9)[i // 2]
        if i % 2:
            p = PlanarPoint(-p.x, p.y)
        _assert_matches_reference(max(t + dt, 0.0), p)

    @given(kernel_points, st.sampled_from([0, 1]), st.sampled_from([0.0, -1e-9, 1e-9]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_composed_reference_at_the_cs_times(self, p, which, dt):
        # at the CS angle (0) and length (1), where containment, the CS step
        # and the CC search meet
        ax, yy = abs(p.x), p.y
        a_cs = _case(ax, yy)[1]
        assume(a_cs >= 0.0)
        _assert_matches_reference(max(_cs(ax, yy, a_cs)[which] + dt, 0.0), p)


class TestBestEstimator:
    def test_cs_domain_step(self):
        p = PlanarPoint(0, 3)
        got = DUBINS_CAR.best_step(1.0, p, distance(1.0, p), 0.5, 0.1)
        assert got == pytest.approx(1 + (3 - 1 - 0.1) / 1.5, abs=1e-15)

    def test_stationary_straight_ahead(self):
        p = PlanarPoint(0, 3)
        assert DUBINS_CAR.best_step(0.0, p, distance(0.0, p), 0.0, 0.0) == 3.0

    def test_d1_fallback_equals_generic_step(self):
        p = PlanarPoint(0.3, 0.2)
        rho = distance(0.0, p)
        got = DUBINS_CAR.best_step(0.0, p, rho, 0.5, 0.01)
        assert got == 0.0 + (rho - 0.01) / 1.5

    def test_precondition(self):
        p = PlanarPoint(0, 3)
        with pytest.raises(ValueError):
            DUBINS_CAR.best_step(3.0, p, distance(3.0, p), 0.5, 0.1)

    @given(times, points)
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_distance_based_step_on_cs_domain(self, t, p):
        # where the turn+straight family is nearest, the distance is the
        # remaining path length, so the exact CS step length - t - ell and the
        # distance-based step are the same float expression
        ax, yy = abs(p.x), p.y
        region, a_cs, _ = _case(ax, yy)
        if region is DubinsRegion.D_I:
            return
        theta, length = _cs(ax, yy, a_cs)
        if not (theta <= t):
            return
        if region is DubinsRegion.D_III and not (length >= t):
            return
        rho = distance(t, p)
        if rho <= 0.1:
            return
        assert rho == length - t
        closed = DUBINS_CAR.best_step(t, p, rho, 0.5, 0.1)
        assert closed == t + (length - t - 0.1) / 1.5


class TestBoundary:
    def test_straight_ahead_sample(self):
        pts = boundary_points(2.0, 50)
        assert any(math.dist(p, PlanarPoint(0, 2)) < 1e-12 for p in pts)

    def test_half_circle_sample(self):
        pts = boundary_points(math.pi, 50)
        assert any(math.dist(p, PlanarPoint(2, 0)) < 1e-12 for p in pts)

    def test_count_and_mirroring(self):
        # the right half only; reachable_boundary adds the mirror image
        assert len(boundary_points(1.5, 33)) == 2 * 33

    def test_samples_are_reachable(self):
        for t in (0.3, 1.0, 2.5, math.pi, 5.0, 7.0):
            for p in boundary_points(t, 40):
                assert distance(t, p) <= 1e-6

    def test_families_join_where_the_arc_ends(self):
        for t in (0.5, 1.5, 3.0):
            junction = _cc_point(0.0, t)
            theta_end = min(t, 2 * math.pi)
            cs_end = PlanarPoint(
                (t - theta_end) * math.sin(theta_end) - math.cos(theta_end) + 1,
                (t - theta_end) * math.cos(theta_end) + math.sin(theta_end),
            )
            assert math.dist(junction, cs_end) < 1e-12

    def test_outline_is_a_closed_mirrored_loop_of_reachable_points(self):
        for t in (0.3, 1.0, 2.5, math.pi, 7.0):
            loop = DUBINS_CAR.reachable_boundary(t)
            assert len(loop) == 4 * 128 + 1
            assert loop[-1] == loop[0]
            # the left half retraces the right half's mirror image backwards
            assert loop[256:512] == [PlanarPoint(-p.x, p.y) for p in reversed(loop[:256])]
            assert loop[:256] == boundary_points(t, 128)
            assert all(distance(t, p) <= 1e-6 for p in loop[::8])

    def test_errors(self):
        with pytest.raises(ValueError):
            boundary_points(0.0, 10)
        with pytest.raises(ValueError):
            boundary_points(1.0, 1)


class TestPath:
    def test_pure_straight(self):
        path = DUBINS_CAR.path(2.0, PlanarPoint(0, 2), 0.0, 1e-6)
        kinds = [(s.kind, s.direction) for s in path.segments]
        assert kinds == [("arc", "right"), ("straight", None)]
        assert path.segments[0].duration == 0.0
        assert path.segments[1].duration == pytest.approx(2.0)
        assert math.dist(path.endpoint, PlanarPoint(0, 2)) < 1e-12

    def test_half_circle(self):
        path = DUBINS_CAR.path(math.pi, PlanarPoint(2, 0), 0.0, 1e-6)
        assert path.segments[0].kind == "arc"
        assert path.segments[0].direction == "right"
        assert path.segments[0].duration == pytest.approx(math.pi)
        assert path.segments[1].duration == pytest.approx(0.0, abs=1e-12)
        assert math.dist(path.endpoint, PlanarPoint(2, 0)) < 1e-12

    def test_turn_turn_case(self):
        # a point between the turning disks is reached by two opposite arcs
        target = PlanarPoint(0.3, 0.2)
        assert classify(target) is DubinsRegion.D_I
        lo, hi = 0.0, 8.0
        for _ in range(60):  # first time the point is within 0.05
            mid = 0.5 * (lo + hi)
            if distance(mid, target) <= 0.05:
                hi = mid
            else:
                lo = mid
        t_star = hi
        path = DUBINS_CAR.path(t_star, target, 0.05, 0.05)
        kinds = [(s.kind, s.direction) for s in path.segments]
        assert kinds == [("arc", "left"), ("arc", "right")]
        assert sum(s.duration for s in path.segments) == pytest.approx(t_star, abs=1e-9)
        assert math.dist(target, path.endpoint) == pytest.approx(0.05, abs=1e-6)
        flattened = DUBINS_CAR.sample_path(path)
        assert math.dist(flattened[-1], path.endpoint) < 1e-9

    def test_arcs_run_on_the_unit_circle(self):
        # heading +y, a quarter turn left about (-1, 0) ends at (-1, 1) heading -x
        segments = (arc(LEFT, math.pi / 2), straight(1.0), wait(2.0))
        points = DUBINS_CAR.sample_path(InterceptionPath(segments, PlanarPoint(-2.0, 1.0)))
        assert len(points) == 1 + math.ceil((math.pi / 2) / 0.05) + 1
        assert all(abs(math.dist(p, (-1.0, 0.0)) - 1.0) < 1e-15 for p in points[:-1])
        assert math.dist(points[-2], (-1.0, 1.0)) < 1e-15
        assert math.dist(points[-1], (-2.0, 1.0)) < 1e-15

    def test_left_half_plane_is_mirrored(self):
        path = DUBINS_CAR.path(math.pi, PlanarPoint(-2, 0), 0.0, 1e-6)
        assert path.segments[0].direction == "left"
        assert math.dist(path.endpoint, PlanarPoint(-2, 0)) < 1e-12

    def test_flattening_matches_endpoint(self):
        for target, t in ((PlanarPoint(1.2, 2.0), 3.0), (PlanarPoint(-0.4, -1.0), 4.0)):
            rho = distance(t, target)
            path = DUBINS_CAR.path(t, target, rho + 1e-9, rho + 1e-9)
            flattened = DUBINS_CAR.sample_path(path)
            assert math.dist(flattened[-1], path.endpoint) < 1e-9

    def test_precondition(self):
        with pytest.raises(ValueError):
            DUBINS_CAR.path(0.5, PlanarPoint(0, 5), 0.1, 0.1)

    @given(times, points)
    @example(1.0, PlanarPoint(5.960464477539063e-08, 2.0))  # a CS angle of 3e-8 rad
    @settings(max_examples=300, deadline=None)
    def test_exterior_path_ends_at_the_distance(self, t, p):
        # outside the set, the path reads the same nearest point as distance
        rho = distance(t, p)
        assume(rho > 0.0)
        path = DUBINS_CAR.path(t, p, 0.1, rho + 1e-9)
        assert sum(s.duration for s in path.segments) == pytest.approx(t, abs=1e-12)
        assert abs(math.dist(path.endpoint, p) - rho) <= 1e-9


class TestGeometryRecord:
    """Invariants of the per-point closed forms: region, CS and CC lengths."""

    @given(points)
    @settings(max_examples=300)
    def test_record_invariants(self, p):
        ax, yy = abs(p.x), p.y
        region, a_cs, a_cc = _case(ax, yy)
        assert region is classify(p)
        assert a_cs == pytest.approx((1 - ax) ** 2 + yy**2 - 1, abs=1e-12)
        at_origin = p.x == 0.0 and p.y == 0.0
        if region is not DubinsRegion.D_I or at_origin:
            theta, length = _cs(ax, yy, a_cs)
            assert theta == theta_cs(p)
            assert length >= theta - 1e-12
        else:
            with pytest.raises(ValueError):
                _cs(ax, yy, a_cs)
        if region is not DubinsRegion.D_II:
            assert min(_cc_lengths(ax, yy, a_cc)) >= 0

    def test_plus_absent_off_lune(self):
        # off D_III a point stays reachable once it is reached: no CC window
        for p in (PlanarPoint(0, 3), PlanarPoint(0.5, 0.1)):
            reached = [distance(k / 20, p) == 0.0 for k in range(200)]
            assert any(reached)
            assert reached == sorted(reached)
