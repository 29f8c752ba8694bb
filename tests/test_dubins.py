import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intercept import dubins
from intercept.core import PlanarPoint
from intercept.dubins import (
    DUBINS_CAR,
    DubinsRegion,
    alpha_cs,
    boundary_points,
    cc_cubic_roots,
    classify,
    contains,
    distance,
    dubins_path,
    theta_cs,
    v_cc,
    v_cs,
    x_lr,
    y_lr,
)
from oracles import DubinsBoundaryOracle

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


class TestVCS:
    def test_straight_segment(self):
        assert v_cs(PlanarPoint(0, 2)) == 2.0

    def test_half_circle(self):
        assert v_cs(PlanarPoint(2, 0)) == pytest.approx(math.pi)

    def test_straight_far(self):
        assert v_cs(PlanarPoint(0, 3)) == 3.0

    def test_origin_allowed(self):
        assert v_cs(PlanarPoint(0, 0)) == 0.0

    def test_domain_error_on_d1(self):
        with pytest.raises(ValueError):
            v_cs(PlanarPoint(0.5, 0.1))


class TestVCC:
    def test_origin_full_circle(self):
        plus, minus = v_cc(PlanarPoint(0, 0), DubinsRegion.D_I)
        assert plus is None
        assert minus == pytest.approx(2 * math.pi, abs=1e-12)

    def test_d1_point_has_only_minus(self):
        plus, minus = v_cc(PlanarPoint(0.5, 0.1), DubinsRegion.D_I)
        assert plus is None
        assert minus is not None and minus > 0

    def test_d2_has_neither(self):
        assert v_cc(PlanarPoint(0, 3), DubinsRegion.D_II) == (None, None)

    def test_minus_matches_first_passage_of_turn_turn_curve(self):
        # the first time a D_I point becomes reachable, a left-right path of
        # that exact duration must pass through it
        p = PlanarPoint(0.5, 0.1)
        _, minus = v_cc(p, classify(p))
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
    def test_origin_at_time_zero(self):
        assert contains(0.0, PlanarPoint(0, 0))

    def test_origin_needs_a_full_loop(self):
        assert not contains(1.0, PlanarPoint(0, 0))
        assert contains(2 * math.pi, PlanarPoint(0, 0))

    def test_boundary_case(self):
        assert contains(2.0, PlanarPoint(0, 2))

    def test_d1_point_not_yet_reachable(self):
        assert not contains(1.0, PlanarPoint(0.5, 0.1))

    @given(times, points)
    @settings(max_examples=300, deadline=None)
    def test_membership_implies_zero_distance(self, t, p):
        if contains(t, p):
            assert distance(t, p) == 0.0

    def test_membership_iff_small_distance_on_random_sample(self):
        # adversarially chosen points can sit within 1e-9 of the set without
        # belonging to it, but random ones do not
        rng = np.random.default_rng(3)
        for _ in range(2000):
            t = float(rng.uniform(0, 12))
            p = PlanarPoint(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
            assert contains(t, p) == (distance(t, p) <= 1e-9)


class TestCubicRoots:
    def test_degenerate_leading_coefficient_from_geometry(self):
        # y-coordinate chosen so the cubic degrades to a quadratic
        t = math.pi
        p = PlanarPoint(0.0, -math.sin(t / 3))
        roots = cc_cubic_roots(t, p)
        assert len(roots) <= 2
        for xi in roots:
            res = self._residual(t, p, xi)
            assert abs(res) < 1e-9

    @staticmethod
    def _residual(t, p, xi):
        ax = abs(p.x)
        third = t / 3
        a = -(p.y + math.sin(third))
        b = 3 + 3 * ax + math.cos(third)
        c = 3 * p.y - math.sin(third)
        d = math.cos(third) - (1 + ax)
        return ((a * xi + b) * xi + c) * xi + d

    def test_random_roots_have_small_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(3000):
            t = rng.uniform(0, 12)
            p = PlanarPoint(rng.uniform(-8, 8), rng.uniform(-8, 8))
            ax = abs(p.x)
            third = t / 3
            scale = max(
                1.0,
                abs(p.y + math.sin(third)),
                3 + 3 * ax + abs(math.cos(third)),
                abs(3 * p.y - math.sin(third)),
                abs(math.cos(third) - (1 + ax)),
            )
            for xi in cc_cubic_roots(t, p):
                assert abs(self._residual(t, p, xi)) < 1e-9 * scale

    def test_identically_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            dubins._real_cubic_roots(0.0, 0.0, 0.0, 0.0)

    def test_known_cubic(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        roots = sorted(dubins._real_cubic_roots(1.0, -6.0, 11.0, -6.0))
        assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)


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
        for t in rng.uniform(0.05, 7.0, size=6):
            oracle = DubinsBoundaryOracle(float(t), n_per_branch=20_000)
            for _ in range(25):
                r = rng.uniform(0, 8)
                ang = rng.uniform(0, 2 * math.pi)
                p = PlanarPoint(r * math.cos(ang), r * math.sin(ang))
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
    @settings(max_examples=300, deadline=None)
    def test_lipschitz_in_space(self, t, p1, p2):
        d = abs(distance(t, p1) - distance(t, p2))
        assert d <= p1.distance_to(p2) + 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            distance(-1.0, PlanarPoint(0, 1))


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
        # remaining path length, so the exact CS step v_cs - t - ell and the
        # distance-based step are the same float expression
        if classify(p) is DubinsRegion.D_I:
            return
        if not (theta_cs(p) <= t):
            return
        if classify(p) is DubinsRegion.D_III and not (v_cs(p) >= t):
            return
        rho = distance(t, p)
        if rho <= 0.1:
            return
        assert rho == v_cs(p) - t
        closed = DUBINS_CAR.best_step(t, p, rho, 0.5, 0.1)
        assert closed == t + (v_cs(p) - t - 0.1) / 1.5


class TestBoundary:
    def test_straight_ahead_sample(self):
        pts = boundary_points(2.0, 50)
        assert any(p.distance_to(PlanarPoint(0, 2)) < 1e-12 for p in pts)

    def test_half_circle_sample(self):
        pts = boundary_points(math.pi, 50)
        assert any(p.distance_to(PlanarPoint(2, 0)) < 1e-12 for p in pts)

    def test_count_and_mirroring(self):
        pts = boundary_points(1.5, 33)
        assert len(pts) == 4 * 33
        mirrored = {(round(-p.x, 12), round(p.y, 12)) for p in pts}
        original = {(round(p.x, 12), round(p.y, 12)) for p in pts}
        assert mirrored == original

    def test_samples_are_reachable(self):
        for t in (0.3, 1.0, 2.5, math.pi, 5.0, 7.0):
            for p in boundary_points(t, 40):
                assert distance(t, p) <= 1e-6

    def test_families_join_where_the_arc_ends(self):
        for t in (0.5, 1.5, 3.0):
            junction = PlanarPoint(x_lr(0.0, t), y_lr(0.0, t))
            theta_end = min(t, 2 * math.pi)
            cs_end = PlanarPoint(
                (t - theta_end) * math.sin(theta_end) - math.cos(theta_end) + 1,
                (t - theta_end) * math.cos(theta_end) + math.sin(theta_end),
            )
            assert junction.distance_to(cs_end) < 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            boundary_points(0.0, 10)
        with pytest.raises(ValueError):
            boundary_points(1.0, 1)


class TestPath:
    def test_pure_straight(self):
        path = dubins_path(2.0, PlanarPoint(0, 2), 0.0, 1e-6)
        kinds = [(s.kind, s.direction) for s in path.segments]
        assert kinds == [("arc", "right"), ("straight", None)]
        assert path.segments[0].duration == 0.0
        assert path.segments[1].duration == pytest.approx(2.0)
        assert path.endpoint.distance_to(PlanarPoint(0, 2)) < 1e-12

    def test_half_circle(self):
        path = dubins_path(math.pi, PlanarPoint(2, 0), 0.0, 1e-6)
        assert path.segments[0].kind == "arc"
        assert path.segments[0].direction == "right"
        assert path.segments[0].duration == pytest.approx(math.pi)
        assert path.segments[1].duration == pytest.approx(0.0, abs=1e-12)
        assert path.endpoint.distance_to(PlanarPoint(2, 0)) < 1e-12

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
        path = dubins_path(t_star, target, 0.05, 0.05)
        kinds = [(s.kind, s.direction) for s in path.segments]
        assert kinds == [("arc", "left"), ("arc", "right")]
        assert path.total_duration == pytest.approx(t_star, abs=1e-9)
        assert target.distance_to(path.endpoint) == pytest.approx(0.05, abs=1e-6)
        flattened = DUBINS_CAR.sample_path(path)
        assert flattened[-1].distance_to(path.endpoint) < 1e-9

    def test_left_half_plane_is_mirrored(self):
        path = dubins_path(math.pi, PlanarPoint(-2, 0), 0.0, 1e-6)
        assert path.segments[0].direction == "left"
        assert path.endpoint.distance_to(PlanarPoint(-2, 0)) < 1e-12

    def test_flattening_matches_endpoint(self):
        for target, t in ((PlanarPoint(1.2, 2.0), 3.0), (PlanarPoint(-0.4, -1.0), 4.0)):
            rho = distance(t, target)
            path = dubins_path(t, target, rho + 1e-9, rho + 1e-9)
            flattened = DUBINS_CAR.sample_path(path)
            assert flattened[-1].distance_to(path.endpoint) < 1e-9

    def test_precondition(self):
        with pytest.raises(ValueError):
            dubins_path(0.5, PlanarPoint(0, 5), 0.1, 0.1)


class TestGeometryRecord:
    """Invariants of the per-point closed forms: region, CS and CC lengths."""

    @given(points)
    @settings(max_examples=300)
    def test_record_invariants(self, p):
        region = classify(p)
        assert alpha_cs(p) == pytest.approx((1 - abs(p.x)) ** 2 + p.y**2 - 1, abs=1e-12)
        at_origin = p.x == 0.0 and p.y == 0.0
        if region is not DubinsRegion.D_I or at_origin:
            assert v_cs(p) >= theta_cs(p) - 1e-12
        else:
            with pytest.raises(ValueError):
                v_cs(p)
        plus, minus = v_cc(p, region)
        if plus is not None:
            assert plus >= 0
            assert region is DubinsRegion.D_III
        if minus is not None:
            assert minus >= 0
            assert region in (DubinsRegion.D_I, DubinsRegion.D_III)
        else:
            assert region is DubinsRegion.D_II

    def test_plus_absent_off_lune(self):
        for p in (PlanarPoint(0, 3), PlanarPoint(0.5, 0.1)):
            assert v_cc(p, classify(p))[0] is None
