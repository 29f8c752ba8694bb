import copy
import inspect
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from intercept.core import (
    CaptureSpec,
    PiecewiseLinearTrajectory,
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


def test_planar_point_repr_hash_equality_and_immutability():
    p = PlanarPoint(1.0, 2.0)
    assert repr(p) == "PlanarPoint(x=1.0, y=2.0)"
    assert p == PlanarPoint(1.0, 2.0) and p != PlanarPoint(1.0, -2.0)
    assert hash(p) == hash(PlanarPoint(1.0, 2.0))
    assert {p, PlanarPoint(1.0, 2.0)} == {p}
    assert (p.x, p.y) == (1.0, 2.0)
    for name in ("x", "y"):
        with pytest.raises(AttributeError):
            setattr(p, name, 3.0)
    assert p == PlanarPoint(1.0, 2.0)


def test_capture_spec_validation():
    CaptureSpec(0.0, 1e-9)  # zero radius is allowed
    with pytest.raises(ValueError):
        CaptureSpec(-0.1, 1e-6)
    with pytest.raises(ValueError):
        CaptureSpec(0.1, 0.0)
    with pytest.raises(ValueError):
        CaptureSpec(0.1, -1e-6)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_capture_spec_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        CaptureSpec(value, 1e-6)
    with pytest.raises(ValueError, match="finite"):
        CaptureSpec(0.1, value)


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

    def test_nan_frequency_rejected(self):
        for omegas in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="frequencies must be > 0"):
                make_lissajous_trajectory(0, 0, *omegas, 1.0)

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


_SHORT_TRACK = (
    [
        (0.0, PlanarPoint(0.0, 0.0)),
        (0.5, PlanarPoint(1.0, -2.0)),
        (1.25, PlanarPoint(1.5, 0.25)),
        (3.0, PlanarPoint(-1.0, 3.0)),
    ],
    [-1.0, -1e-300, 0.0, 0.5, 1.25, 3.0]
    + [1e-300, 0.1, 0.5 + 1e-12, 1.0, 1.25 - 1e-12, 2.9999999999999996]
    + [3.0 + 1e-12, 1e9],
)


def _recorded_track():
    """A seeded 5,000-sample walk with 4-decimal positions, and its query times.

    The queries are every sample time, seeded times in between, times before
    0 and times after the last sample.
    """
    rng = random.Random(5000)
    t, x, y = 0.0, rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)
    pts = [(t, PlanarPoint(round(x, 4), round(y, 4)))]
    for _ in range(4999):
        dt = rng.choice((0.05, 0.1, 0.2))
        t = round(t + dt, 3)
        x += rng.uniform(-0.8, 0.8) * dt
        y += rng.uniform(-0.8, 0.8) * dt
        pts.append((t, PlanarPoint(round(x, 4), round(y, 4))))
    end = pts[-1][0]
    between = [rng.uniform(0.0, end) for _ in range(5000)]
    between += [t0 + rng.random() * (t1 - t0) for (t0, _), (t1, _) in zip(pts, pts[1:])]
    outside = [-1e9, -1.0, -1e-300, -0.0, end + 1e-9, end + 1.0, 1e9, math.inf]
    return pts, [t for t, _ in pts] + between + outside


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

    def test_infinite_speed_rejected(self):
        # a finite jump in a subnormal time, and a jump whose length overflows
        for times, xs in (((0.0, 1e-300), (0.0, 1e300)), ((0.0, 1.0), (-1e308, 1e308))):
            with pytest.raises(ValueError, match="#0 to sample #1 is infinite"):
                PiecewiseLinearTrajectory(times, xs, (0.0, 0.0))

    def test_single_sample(self):
        traj = make_piecewise_linear_trajectory([(0.0, PlanarPoint(2, 3))])
        assert traj.speed_bound == 0.0
        assert traj.position(5.0) == PlanarPoint(2, 3)

    @pytest.mark.parametrize("track", ["short", "recorded"])
    def test_position_matches_linear_scan_bit_for_bit(self, track):
        pts, queries = _SHORT_TRACK if track == "short" else _recorded_track()
        traj = make_piecewise_linear_trajectory(pts)

        def scan(t):
            if t <= pts[0][0]:
                return pts[0][1]
            if t >= pts[-1][0]:
                return pts[-1][1]
            nonlocal i
            while pts[i][0] <= t:
                i += 1
            (t0, p0), (t1, p1) = pts[i - 1], pts[i]
            w = (t - t0) / (t1 - t0)
            return PlanarPoint(p0.x + w * (p1.x - p0.x), p0.y + w * (p1.y - p0.y))

        # the scan walks forward, so it takes the queries in time order
        i = 1
        for t in sorted(queries):
            assert repr(traj.position(t)) == repr(scan(t)), t
        bound = max(
            math.hypot(p1.x - p0.x, p1.y - p0.y) / (t1 - t0)
            for (t0, p0), (t1, p1) in zip(pts, pts[1:])
        )
        assert traj.speed_bound == bound

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_piecewise_linear_trajectory([])
        with pytest.raises(ValueError):
            make_piecewise_linear_trajectory([(1.0, PlanarPoint(0, 0))])
        with pytest.raises(ValueError):
            make_piecewise_linear_trajectory(
                [(0.0, PlanarPoint(0, 0)), (0.0, PlanarPoint(1, 0))]
            )
        # the columns are a public constructor: unequal lengths are an error
        unequal = [((0.0, 1.0), (0.0,), (0.0, 1.0)), ((0.0,), (0.0,), (0.0, 1.0)), ((), (0.0,), ())]
        for columns in unequal:
            with pytest.raises(ValueError, match="differ in length"):
                PiecewiseLinearTrajectory(*columns)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (((0.0, math.nan, 2.0), (0.0, 1.0, 30.0), (0.0, 0.0, 0.0)), "strictly increasing"),
            (((0.0, 1.0, 2.0), (0.0, math.nan, 30.0), (0.0, 0.0, 0.0)), "#0 to sample #1 is NaN"),
            (((0.0, 1.0, 2.0), (0.0, 1.0, 30.0), (0.0, 0.0, math.nan)), "#1 to sample #2 is NaN"),
        ],
    )
    def test_nan_samples_rejected(self, columns, message):
        # a NaN speed would drop out of max() and understate the bound
        with pytest.raises(ValueError, match=message):
            PiecewiseLinearTrajectory(*columns)

    @pytest.mark.parametrize(
        "columns",
        [
            ((0.0,), (math.nan,), (0.0,)),
            ((0.0,), (0.0,), (-math.inf,)),
            ((0.0, math.inf), (0.0, 1.0), (0.0, 0.0)),
            ((0.0, 1.0, math.inf), (0.0, 1.0, 2.0), (0.0, 0.0, 0.0)),
        ],
    )
    def test_non_finite_sample_without_a_speed_to_show_it_rejected(self, columns):
        # a lone sample has no segment, and a segment that ends at t = inf has speed 0
        last = len(columns[0]) - 1
        with pytest.raises(ValueError, match=f"sample #{last} must be finite"):
            PiecewiseLinearTrajectory(*columns)


@pytest.mark.parametrize(
    "make",
    [
        lambda b: make_line_trajectory(0, 1, 0, b),
        lambda b: make_lissajous_trajectory(0, 0, 1, 1, b),
        lambda b: make_lissajous_trajectory(0, 0, 1, 1, 0.5, speed_bound=b),
        lambda b: make_custom_trajectory(lambda t: PlanarPoint(0.0, 0.0), b),
    ],
    ids=["line.v", "lissajous.v", "lissajous.speed_bound", "custom.speed_bound"],
)
@pytest.mark.parametrize("bound", [-0.9, -1.0, math.nan, math.inf])
def test_speed_outside_zero_to_infinity_rejected(make, bound):
    # each step divides by 1 + bound: a negative or NaN one makes it unsound
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        make(bound)


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
    gap = math.dist(traj.position(hi), traj.position(lo))
    assert gap <= bound * (hi - lo) + 1e-9


@given(trajectories(), st.floats(min_value=0, max_value=20))
def test_evaluation_is_deterministic(traj_and_bound, t):
    traj, _ = traj_and_bound
    a = traj.position(t)
    b = traj.position(t)
    assert a.x == b.x and a.y == b.y


_REPLACED = [
    (make_line_trajectory(0.5, -1.0, 0.3, 0.7), {"phi": 2.1, "v": 0.9}),
    (make_lissajous_trajectory(1.0, 2.0, 0.5, 1.5, 0.6), {"omega_x": 1.7, "v": 0.4}),
    (
        make_lissajous_trajectory(1.0, 2.0, 0.5, 1.5, 0.6, speed_bound=2.0),
        {"omega_y": 0.3, "speed_bound": 1.0},
    ),
]


@pytest.mark.parametrize("traj, changes", _REPLACED)
def test_replace_recomputes_what_position_reads(traj, changes):
    # a rebuild from scenario_fields runs __init__, so the constants that
    # position reads, and a default speed bound, come from the new fields
    replaced = type(traj)(**{**traj.scenario_fields(), **changes})
    declared = traj.scenario_fields()
    fresh = type(traj)(*(changes.get(name, value) for name, value in declared.items()))
    for t in (0.0, 0.37, 1.0, 12.5, 1e3):
        got, want = replaced.position(t), fresh.position(t)
        assert (got.x.hex(), got.y.hex()) == (want.x.hex(), want.y.hex())
    assert replaced == fresh and hash(replaced) == hash(fresh)
    assert repr(replaced) == repr(fresh)
    assert replaced != traj
    assert replaced.speed_bound == changes.get("speed_bound", declared.get("speed_bound", replaced.v))


@pytest.mark.parametrize("traj, _", _REPLACED)
def test_only_the_declared_fields_show(traj, _):
    declared = list(inspect.signature(type(traj)).parameters)
    shown = ", ".join(f"{name}={getattr(traj, name)!r}" for name in declared)
    assert repr(traj) == f"{type(traj).__name__}({shown})"
    assert set(declared) - set(traj.scenario_fields()) <= {"speed_bound"}
    scenario_names = {"xi", "eta", "phi", "omega_x", "omega_y", "v", "speed_bound"}
    assert set(traj.scenario_fields()) <= scenario_names


def test_explicit_lissajous_bound_equal_to_v_is_kept():
    traj = make_lissajous_trajectory(0, 0, 1, 2, 0.5, speed_bound=0.5)
    assert traj.scenario_fields()["speed_bound"] == 0.5
    assert "speed_bound" not in make_lissajous_trajectory(0, 0, 1, 2, 0.5).scenario_fields()
    # a rebuild with a new v keeps a given bound and derives a default one anew
    assert type(traj)(**{**traj.scenario_fields(), "v": 0.9}).speed_bound == 0.5
    default = make_lissajous_trajectory(0, 0, 1, 2, 0.5)
    assert type(default)(**{**default.scenario_fields(), "v": 0.9}).speed_bound == 0.9


_KINDS = [
    make_line_trajectory(0.5, -1.0, 0.3, 0.7),
    make_lissajous_trajectory(1.0, 2.0, 0.5, 1.5, 0.6),
    make_lissajous_trajectory(1.0, 2.0, 0.5, 1.5, 0.6, speed_bound=2.0),
    make_piecewise_linear_trajectory([(0, PlanarPoint(1, 2)), (1, PlanarPoint(2, 2))]),
    make_custom_trajectory(math.hypot, 1.0),
]


@pytest.mark.parametrize("traj", _KINDS, ids=lambda traj: traj.kind)
def test_trajectories_are_immutable_values(traj):
    for name in (*traj.scenario_fields(), "speed_bound", "_cos", "other"):
        with pytest.raises(AttributeError):
            setattr(traj, name, 1.0)
    with pytest.raises(AttributeError):
        del traj.speed_bound
    twin = type(traj)(**traj.scenario_fields())
    assert twin == traj and hash(twin) == hash(traj) and twin is not traj
    # copies and pickles rebuild through the constructor
    for other in (copy.copy(traj), copy.deepcopy(traj), pickle.loads(pickle.dumps(traj))):
        assert other == traj and other.scenario_fields() == traj.scenario_fields()
        assert other.position(0.75) == traj.position(0.75)


def test_records_compare_equal_to_plain_tuples():
    assert CaptureSpec(0.1, 1e-6) == (0.1, 1e-6)
    assert SolveTrace(((0.0, 1.0),)) == (((0.0, 1.0),),)
    assert repr(CaptureSpec(ell=0.1, epsilon=1e-6)) == "CaptureSpec(ell=0.1, epsilon=1e-06)"


def test_capture_spec_replace_checks_too():
    spec = CaptureSpec(0.1, 1e-6)
    assert spec._replace(ell=0.2) == CaptureSpec(0.2, 1e-6)
    with pytest.raises(ValueError, match="capture radius"):
        spec._replace(ell=math.inf)
    with pytest.raises(ValueError, match="relative stopping error"):
        spec._replace(epsilon=0.0)


def test_custom_trajectory():
    traj = make_custom_trajectory(lambda t: PlanarPoint(math.sin(t), 0.0), 1.0)
    assert traj.position(0.0) == PlanarPoint(0.0, 0.0)
    assert traj.speed_bound == 1.0
    with pytest.raises(ValueError):
        make_custom_trajectory(lambda t: PlanarPoint(0, 0), -1.0)


def test_solve_trace_accessors():
    trace = SolveTrace(((0.0, 1.0), (0.9, 0.1)))
    assert trace.iteration_count == 1
    assert trace.final_distance == 0.1
