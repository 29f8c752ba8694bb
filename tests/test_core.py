import math

import pytest
from hypothesis import given, strategies as st

from intercept.core import (
    CaptureSpec,
    PlanarPoint,
    SolveTrace,
    make_custom_trajectory,
    make_line_trajectory,
    make_lissajous_trajectory,
    make_piecewise_linear_trajectory,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_planar_point_norm():
    assert PlanarPoint(3.0, 4.0).norm() == 5.0
    assert PlanarPoint(0.0, 0.0).norm() == 0.0


@given(finite, finite)
def test_norm_zero_iff_origin(x, y):
    p = PlanarPoint(x, y)
    assert p.norm() >= 0.0
    assert (p.norm() == 0.0) == (x == 0.0 and y == 0.0)


def test_capture_spec_validation():
    CaptureSpec(0.0, 1e-9)  # zero radius is allowed
    with pytest.raises(ValueError):
        CaptureSpec(-0.1, 1e-6)
    with pytest.raises(ValueError):
        CaptureSpec(0.1, 0.0)
    with pytest.raises(ValueError):
        CaptureSpec(0.1, -1e-6)


class TestLineTrajectory:
    def test_start_point(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        assert traj.position(0.0) == PlanarPoint(0.0, 1.0)
        assert traj.speed_bound == 0.25

    def test_zero_speed_is_stationary(self):
        traj = make_line_trajectory(0, 1, 0, 0.0)
        assert traj.position(100.0) == PlanarPoint(0.0, 1.0)

    def test_direct_evaluation(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        assert traj.position(4.0) == PlanarPoint(1.0, 1.0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            make_line_trajectory(0, 1, 0, -0.5)


class TestLissajousTrajectory:
    def test_start_point(self):
        traj = make_lissajous_trajectory(1, 1, 1, math.sqrt(2), 0.5)
        assert traj.position(0.0) == PlanarPoint(1.0, 1.0)

    def test_zero_speed_is_stationary(self):
        traj = make_lissajous_trajectory(-1, -2, 1, math.sqrt(2), 0.0)
        for t in (0.0, 1.0, 7.3):
            assert traj.position(t) == PlanarPoint(-1.0, -2.0)

    def test_period_point(self):
        traj = make_lissajous_trajectory(0, -1, 2, 1, 2)
        p = traj.position(math.pi)
        assert p.x == pytest.approx(0.0, abs=1e-15)
        assert p.y == pytest.approx(-1.0, abs=1e-15)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            make_lissajous_trajectory(0, 0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_lissajous_trajectory(0, 0, 1.0, -2.0, 1.0)

    def test_default_bound_is_v_and_override_sticks(self):
        traj = make_lissajous_trajectory(0, 0, 1, 2, 1.5)
        assert traj.speed_bound == 1.5
        strict = make_lissajous_trajectory(0, 0, 1, 2, 1.5, speed_bound=1.5 * math.sqrt(2))
        assert strict.speed_bound == pytest.approx(1.5 * math.sqrt(2))


class TestPiecewiseLinearTrajectory:
    def test_midpoint(self):
        traj = make_piecewise_linear_trajectory(
            [(0.0, PlanarPoint(0, 0)), (1.0, PlanarPoint(1, 0))]
        )
        assert traj.position(0.5) == PlanarPoint(0.5, 0.0)

    def test_constant_extrapolation(self):
        traj = make_piecewise_linear_trajectory(
            [(0.0, PlanarPoint(0, 0)), (1.0, PlanarPoint(1, 0))]
        )
        assert traj.position(3.0) == PlanarPoint(1.0, 0.0)

    def test_speed_bound_is_max_segment_speed(self):
        traj = make_piecewise_linear_trajectory(
            [(0.0, PlanarPoint(0, 0)), (2.0, PlanarPoint(0, 4))]
        )
        assert traj.speed_bound == 2.0

    def test_single_sample(self):
        traj = make_piecewise_linear_trajectory([(0.0, PlanarPoint(2, 3))])
        assert traj.speed_bound == 0.0
        assert traj.position(5.0) == PlanarPoint(2, 3)

    def test_position_matches_linear_scan_bit_for_bit(self):
        pts = [
            (0.0, PlanarPoint(0.0, 0.0)),
            (0.5, PlanarPoint(1.0, -2.0)),
            (1.25, PlanarPoint(1.5, 0.25)),
            (3.0, PlanarPoint(-1.0, 3.0)),
        ]
        traj = make_piecewise_linear_trajectory(pts)

        def scan(t):
            if t <= pts[0][0]:
                return pts[0][1]
            if t >= pts[-1][0]:
                return pts[-1][1]
            i = next(i for i, (ti, _) in enumerate(pts) if ti > t)
            (t0, p0), (t1, p1) = pts[i - 1], pts[i]
            w = (t - t0) / (t1 - t0)
            return PlanarPoint(p0.x + w * (p1.x - p0.x), p0.y + w * (p1.y - p0.y))

        before = [-1.0, -1e-300]
        at = [t for t, _ in pts]
        between = [1e-300, 0.1, 0.5 + 1e-12, 1.0, 1.25 - 1e-12, 2.9999999999999996]
        after = [3.0 + 1e-12, 1e9]
        for t in before + at + between + after:
            assert traj.position(t) == scan(t), t

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_piecewise_linear_trajectory([])
        with pytest.raises(ValueError):
            make_piecewise_linear_trajectory([(1.0, PlanarPoint(0, 0))])
        with pytest.raises(ValueError):
            make_piecewise_linear_trajectory(
                [(0.0, PlanarPoint(0, 0)), (0.0, PlanarPoint(1, 0))]
            )


@st.composite
def trajectories(draw):
    kind = draw(st.sampled_from(["line", "lissajous", "piecewise"]))
    small = st.floats(min_value=-5, max_value=5, allow_nan=False)
    speed = st.floats(min_value=0, max_value=3, allow_nan=False)
    if kind == "line":
        traj = make_line_trajectory(
            draw(small), draw(small), draw(st.floats(0, 2 * math.pi)), draw(speed)
        )
        return traj, traj.speed_bound
    if kind == "lissajous":
        freq = st.floats(min_value=0.1, max_value=4, allow_nan=False)
        traj = make_lissajous_trajectory(
            draw(small), draw(small), draw(freq), draw(freq), draw(speed)
        )
        # the declared default bound is v; the curve's true bound is v*sqrt(2)
        return traj, traj.speed_bound * math.sqrt(2)
    n = draw(st.integers(min_value=1, max_value=6))
    times = [0.0]
    for _ in range(n - 1):
        times.append(times[-1] + draw(st.floats(min_value=0.1, max_value=2)))
    pts = [PlanarPoint(draw(small), draw(small)) for _ in range(n)]
    traj = make_piecewise_linear_trajectory(list(zip(times, pts)))
    return traj, traj.speed_bound


@given(
    trajectories(),
    st.floats(min_value=0, max_value=20),
    st.floats(min_value=0, max_value=20),
)
def test_trajectories_respect_their_speed_bound(traj_and_bound, t1, t2):
    traj, bound = traj_and_bound
    lo, hi = min(t1, t2), max(t1, t2)
    gap = traj.position(hi).distance_to(traj.position(lo))
    assert gap <= bound * (hi - lo) + 1e-9


@given(trajectories(), st.floats(min_value=0, max_value=20))
def test_evaluation_is_deterministic(traj_and_bound, t):
    traj, _ = traj_and_bound
    a = traj.position(t)
    b = traj.position(t)
    assert a.x == b.x and a.y == b.y


def test_custom_trajectory():
    traj = make_custom_trajectory(lambda t: PlanarPoint(math.sin(t), 0.0), 1.0)
    assert traj.position(0.0) == PlanarPoint(0.0, 0.0)
    assert traj.speed_bound == 1.0
    with pytest.raises(ValueError):
        make_custom_trajectory(lambda t: PlanarPoint(0, 0), -1.0)


def test_solve_trace_accessors():
    trace = SolveTrace(((0.0, 1.0), (0.9, 0.1)))
    assert trace.iteration_count == 1
    assert trace.final_time == 0.9
    assert trace.final_distance == 0.1
