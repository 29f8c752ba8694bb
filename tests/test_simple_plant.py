import math

import pytest
from hypothesis import given, strategies as st

from intercept.core import PlanarPoint
from intercept.plants import (
    SIMPLE_MOTIONS,
    STRAIGHT,
    WAIT,
    InterceptionPath,
    PathSegment,
    PlantModel,
    get_plant,
    simple_distance,
    wait,
)

times = st.floats(min_value=0, max_value=20, allow_nan=False)
coords = st.floats(min_value=-20, max_value=20, allow_nan=False)
points = st.builds(PlanarPoint, coords, coords)


class TestDistance:
    def test_outside(self):
        assert simple_distance(2.0, PlanarPoint(3, 4)) == 3.0

    def test_inside(self):
        assert simple_distance(6.0, PlanarPoint(3, 4)) == 0.0

    def test_origin_at_start(self):
        assert simple_distance(0.0, PlanarPoint(0, 0)) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            simple_distance(-0.1, PlanarPoint(1, 0))


class TestContains:
    """The reachable disk is where the distance is zero."""

    def test_boundary(self):
        assert simple_distance(1.0, PlanarPoint(0, 1)) == 0.0

    def test_outside(self):
        assert simple_distance(0.5, PlanarPoint(0, 1)) > 0.0

    def test_inside(self):
        assert simple_distance(1.2, PlanarPoint(1, 0)) == 0.0


def best_step(t, y, v, ell):
    return SIMPLE_MOTIONS.best_step(t, y, simple_distance(t, y), v, ell)


class TestBestEstimator:
    def test_step_from_zero(self):
        assert best_step(0.0, PlanarPoint(0, 1), 0.25, 0.1) == pytest.approx(0.72)

    def test_already_captured(self):
        assert best_step(5.0, PlanarPoint(0, 1), 0.25, 0.1) == 5.0

    def test_stationary_zero_radius(self):
        assert best_step(0.0, PlanarPoint(0, 1), 0.0, 0.0) == 1.0

    @given(times, points, st.floats(0, 3), st.floats(0, 1))
    def test_never_steps_backward(self, t, y, v, ell):
        assert best_step(t, y, v, ell) >= t

    @given(times, points, st.floats(0, 3), st.floats(0, 1))
    def test_strictly_forward_when_uncaptured(self, t, y, v, ell):
        if simple_distance(t, y) > ell:
            assert best_step(t, y, v, ell) > t


class TestLipschitz:
    @given(points, times, times)
    def test_in_time(self, y, t1, t2):
        d = abs(simple_distance(t1, y) - simple_distance(t2, y))
        assert d <= abs(t1 - t2) + 1e-12

    @given(times, points, points)
    def test_in_space(self, t, y1, y2):
        d = abs(simple_distance(t, y1) - simple_distance(t, y2))
        assert d <= math.dist(y1, y2) + 1e-12


class TestPath:
    def test_exact_capture(self):
        path = SIMPLE_MOTIONS.path(0.9, PlanarPoint(0, 1), 0.1, 0.1)
        assert [s.kind for s in path.segments] == [STRAIGHT]
        assert path.segments[0].duration == pytest.approx(0.9)
        assert path.endpoint.x == pytest.approx(0.0)
        assert path.endpoint.y == pytest.approx(0.9)

    def test_degenerate_at_origin(self):
        path = SIMPLE_MOTIONS.path(0.0, PlanarPoint(0, 0), 0.0, 0.0)
        assert sum(s.duration for s in path.segments) == 0.0
        assert path.endpoint == PlanarPoint(0.0, 0.0)

    def test_captured_at_start_pads_with_wait(self):
        path = SIMPLE_MOTIONS.path(2.0, PlanarPoint(1, 0), 1.0, 1.0)
        assert [s.kind for s in path.segments] == [STRAIGHT, WAIT]
        assert path.segments[0].duration == 0.0
        assert path.segments[1].duration == 2.0
        assert path.endpoint == PlanarPoint(0.0, 0.0)

    def test_precondition(self):
        with pytest.raises(ValueError):
            SIMPLE_MOTIONS.path(0.1, PlanarPoint(5, 0), 0.1, 0.1)

    @given(times, points, st.floats(0, 1))
    def test_path_invariants(self, t_star, y, ell):
        if simple_distance(t_star, y) > ell:
            return
        path = SIMPLE_MOTIONS.path(t_star, y, ell, ell)
        duration = sum(s.duration for s in path.segments)
        assert duration == pytest.approx(t_star, abs=1e-9)
        assert simple_distance(duration, path.endpoint) <= 1e-9

    def test_sample_path_reaches_endpoint(self):
        path = SIMPLE_MOTIONS.path(0.9, PlanarPoint(0, 1), 0.1, 0.1)
        pts = SIMPLE_MOTIONS.sample_path(path)
        assert pts[0] == PlanarPoint(0.0, 0.0)
        assert math.dist(pts[-1], path.endpoint) < 1e-12


def test_registry():
    assert get_plant("simple") is SIMPLE_MOTIONS
    assert get_plant("dubins").name == "dubins"
    with pytest.raises(ValueError):
        get_plant("rocket")


def test_reachable_boundary_is_the_disk_of_radius_t():
    assert SIMPLE_MOTIONS.reachable_boundary(2.5) == 2.5
    for k in range(64):
        a = 2 * math.pi * k / 64
        p = PlanarPoint(2.5 * math.cos(a), 2.5 * math.sin(a))
        assert simple_distance(2.5, p) == pytest.approx(0.0, abs=1e-12)
        assert simple_distance(2.5, p.scaled(1.01)) > 0.0


@pytest.mark.parametrize(
    "fields, message",
    [
        (("turn", 1.0), "unknown segment kind 'turn'"),
        (("straight", -0.5), "segment duration must be >= 0, got -0.5"),
        (("arc", 1.0), "arc direction must be left or right, got None"),
        (("arc", 1.0, "up"), "arc direction must be left or right, got 'up'"),
    ],
)
def test_path_segment_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        PathSegment(*fields)


def test_path_segment_rejects_a_duration_that_is_not_finite():
    with pytest.raises(ValueError, match="segment duration must be finite, got nan"):
        PathSegment("straight", math.nan)
    with pytest.raises(ValueError, match="segment duration must be finite, got inf"):
        wait(math.inf)
    with pytest.raises(ValueError, match="segment duration must be >= 0, got -inf"):
        PathSegment("arc", -math.inf, "left")
    segment = PathSegment("arc", 1.0, "left")
    with pytest.raises(ValueError, match="segment duration must be finite, got nan"):
        segment._replace(duration=math.nan)
    assert segment == ("arc", 1.0, "left")
    assert repr(segment) == "PathSegment(kind='arc', duration=1.0, direction='left')"


def test_a_distance_only_plant_cannot_draw():
    class DistanceOnly(PlantModel):
        name = "distance-only"

        def distance(self, t, y):
            return simple_distance(t, y)

    plant = DistanceOnly()
    with pytest.raises(NotImplementedError, match="distance-only cannot draw its reachable set"):
        plant.reachable_boundary(1.0)
    with pytest.raises(NotImplementedError, match="distance-only cannot draw its paths"):
        plant.sample_path(InterceptionPath((), PlanarPoint(0.0, 0.0)))
