import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intercept.benchmarks import CAPTURE_RADIUS, PRECISIONS, benchmark_rows, iteration_counts
from intercept.core import (
    CaptureSpec,
    PlanarPoint,
    TargetTrajectory,
    make_custom_trajectory,
    make_line_trajectory,
    make_piecewise_linear_trajectory,
)
from intercept.dubins import DUBINS_CAR
from intercept.plants import (
    PLANT_NAMES,
    SIMPLE_MOTIONS,
    PlantModel,
    SimpleMotions,
    get_plant,
)
from intercept.scenario import emit_result
from intercept.solver import (
    EPSILON_ABS,
    ConvergenceError,
    EstimatorKind,
    SolveStatus,
    best_estimator,
    grid_oracle,
    refine_ground_truth,
    refine_iterates,
    simple_estimator,
    solve,
)
from oracles import line_interception_time

times = st.floats(min_value=0, max_value=10, allow_nan=False)
coords = st.floats(min_value=-8, max_value=8, allow_nan=False)
points = st.builds(PlanarPoint, coords, coords)
speeds = st.floats(min_value=0, max_value=2, allow_nan=False)
radii = st.floats(min_value=0, max_value=0.5, allow_nan=False)

# the two stop rules over the one fixed-point loop, on the same inputs
ENTRY_POINTS = {
    "solve": lambda plant, traj: solve(plant, traj, CaptureSpec(0.1, 1e-6)),
    "refine": lambda plant, traj: refine_ground_truth(plant, traj, 0.1),
}
entry_points = pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())


class HiddenStepPlant(PlantModel):
    """Simple motions without a closed-form step or path: the base methods apply."""

    name = "simple-no-step"

    def distance(self, t, y):
        return SIMPLE_MOTIONS.distance(t, y)


class NanAfterStartPlant(SimpleMotions):
    """Simple motions whose distance is NaN at every time after t = 0."""

    def distance(self, t, y):
        return super().distance(t, y) if t == 0.0 else math.nan


class NanAfterStartGenericPlant(PlantModel):
    """Like ``NanAfterStartPlant``, with the generic step search; counts its distances."""

    name = "nan-generic"

    def __init__(self):
        self.calls = 0

    def distance(self, t, y):
        self.calls += 1
        return SIMPLE_MOTIONS.distance(t, y) if t == 0.0 else math.nan


class DeclaredBoundTrajectory(TargetTrajectory):
    """A target at rest at (0, 5) that declares any speed bound, unchecked."""

    kind = "declared"

    def __init__(self, speed_bound):
        self.speed_bound = speed_bound

    def _at(self, t):
        return PlanarPoint(0.0, 5.0)


class TestSimpleEstimator:
    def test_worked_example(self):
        got = simple_estimator(SIMPLE_MOTIONS, 0.0, PlanarPoint(0, 1), 1.0, 0.25, 0.1)
        assert got == pytest.approx(0.72)

    def test_captured_branch_freezes(self):
        assert simple_estimator(SIMPLE_MOTIONS, 5.0, PlanarPoint(0, 1), 0.0, 0.25, 0.1) == 5.0

    def test_dubins_cs_example(self):
        y = PlanarPoint(0, 3)
        got = simple_estimator(DUBINS_CAR, 1.0, y, DUBINS_CAR.distance(1.0, y), 0.5, 0.1)
        assert got == pytest.approx(1 + (2 - 0.1) / 1.5, abs=1e-15)

    @given(times, points, speeds, radii)
    @example(t=1.136e-187, y=PlanarPoint(1.594e-222, 1.136e-187), v=0.0, ell=0.0)
    @settings(max_examples=200, deadline=None)
    def test_step_positive_when_uncaptured(self, t, y, v, ell):
        # a step below float resolution at t rounds away; solve then stalls
        # at t until its budget ends it
        for plant in (SIMPLE_MOTIONS, DUBINS_CAR):
            rho = plant.distance(t, y)
            if rho > ell:
                t_next = simple_estimator(plant, t, y, rho, v, ell)
                assert t_next >= t
                if (rho - ell) / (1.0 + v) >= math.ulp(t):
                    assert t_next > t


class TestBestEstimator:
    @given(times, points, speeds, radii)
    @settings(max_examples=200, deadline=None)
    def test_equals_simple_estimator_on_simple_motions(self, t, y, v, ell):
        rho = SIMPLE_MOTIONS.distance(t, y)
        if rho < ell:
            return
        a = best_estimator(SIMPLE_MOTIONS, t, y, rho, v, ell)
        b = simple_estimator(SIMPLE_MOTIONS, t, y, rho, v, ell)
        # same expression, different association: only ulp-level differences
        assert a == pytest.approx(b, abs=1e-12)

    def test_iterative_mode_matches_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            t = rng.uniform(0, 5)
            y = PlanarPoint(rng.uniform(-6, 6), rng.uniform(-6, 6))
            v = rng.uniform(0, 2)
            ell = rng.uniform(0, 0.3)
            rho = SIMPLE_MOTIONS.distance(t, y)
            if rho < ell:
                continue
            closed = best_estimator(SIMPLE_MOTIONS, t, y, rho, v, ell)
            iterated = PlantModel.best_step(SIMPLE_MOTIONS, t, y, rho, v, ell)
            assert iterated == pytest.approx(closed, abs=1e-10)

    def test_capability_fallback_uses_iteration(self):
        plant = HiddenStepPlant()
        got = best_estimator(plant, 0.0, PlanarPoint(0, 1), 1.0, 0.25, 0.1)
        assert got == pytest.approx(0.72, abs=1e-10)

    def test_iterative_dominates_distance_step_on_dubins(self):
        # the true largest safe step can only exceed the distance-based one
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = rng.uniform(0, 5)
            y = PlanarPoint(rng.uniform(-6, 6), rng.uniform(-6, 6))
            v = rng.uniform(0, 1.5)
            ell = 0.1
            rho = DUBINS_CAR.distance(t, y)
            if rho <= ell:
                continue
            true_best = PlantModel.best_step(DUBINS_CAR, t, y, rho, v, ell)
            step = best_estimator(DUBINS_CAR, t, y, rho, v, ell)
            assert true_best >= step - 1e-12

    def test_precondition(self):
        with pytest.raises(ValueError):
            best_estimator(SIMPLE_MOTIONS, 5.0, PlanarPoint(0, 1), 0.0, 0.25, 0.1)

    def test_at_exact_capture_distance_freezes(self):
        # distance(1.5, (0, 2)) = 0.5 exactly in floats
        assert best_estimator(SIMPLE_MOTIONS, 1.5, PlanarPoint(0, 2), 0.5, 0.25, 0.5) == 1.5


class TestSolve:
    def test_line_example(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6))
        assert result.status is SolveStatus.INTERCEPTED
        t_true = line_interception_time(0, 1, 0, 0.25, 0.1)
        assert t_true == pytest.approx(0.926473, abs=1e-6)
        assert result.t_star <= t_true + 1e-12
        assert result.t_star == pytest.approx(t_true, abs=1e-5)
        # five steps suffice for millimetre-scale precision
        t5 = result.trace.iterates[5][0]
        assert t_true - t5 < 1e-3

    def test_stationary_target_single_iteration(self):
        traj = make_line_trajectory(0, 1, 0, 0.0)
        result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6))
        assert result.status is SolveStatus.INTERCEPTED
        assert result.trace.iteration_count == 1
        assert result.t_star == pytest.approx(0.9, abs=1e-15)

    def test_dubins_line_example(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        t_ref = refine_ground_truth(DUBINS_CAR, traj, 0.1)
        result = solve(DUBINS_CAR, traj, CaptureSpec(0.1, 1e-9))
        assert result.status is SolveStatus.INTERCEPTED
        t5 = result.trace.iterates[5][0]
        assert t_ref - t5 < 1e-3

    def test_budget_on_fleeing_target(self):
        traj = make_line_trajectory(0, 1, math.pi / 2, 2.0)  # outruns the plant
        result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6), max_iterations=50)
        assert result.status is SolveStatus.BUDGET
        assert result.path is None
        assert result.trace.iteration_count == 50

    def test_zero_budget_takes_no_step(self):
        traj = make_line_trajectory(0, 1, math.pi / 2, 2.0)
        result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6), max_iterations=0)
        assert result.status is SolveStatus.BUDGET
        assert result.trace.iterates == ((0.0, 1.0),)

    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budget_is_rejected(self, budget):
        # it used to read as a budget of 0
        traj = make_line_trajectory(0, 1, math.pi / 2, 2.0)
        with pytest.raises(ValueError, match="max_iterations"):
            solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6), max_iterations=budget)

    @pytest.mark.parametrize("plant", [SIMPLE_MOTIONS, DUBINS_CAR], ids=["simple", "dubins"])
    def test_target_fleeing_to_infinity_is_unreachable(self, plant):
        # faster than the plant: t, then the target position, overflow; the
        # simple plant once read the NaN distance as a capture at t = inf and
        # the Dubins plant failed an assertion on the infinite position
        traj = make_line_trajectory(0, 1, math.pi / 2, 1.5)
        result = solve(plant, traj, CaptureSpec(0.1, 1e-6))
        assert result.status is SolveStatus.UNREACHABLE
        assert result.path is None
        assert all(math.isfinite(t) and math.isfinite(rho) for t, rho in result.trace.iterates)
        assert result.t_star == result.trace.iterates[-1][0]

    def test_distance_turning_nan_after_the_start_is_unreachable(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        result = solve(NanAfterStartPlant(), traj, CaptureSpec(0.1, 1e-6))
        assert result.status is SolveStatus.UNREACHABLE
        assert result.path is None
        assert result.trace.iterates == ((0.0, 1.0),)
        assert result.t_star == 0.0

    def test_generic_step_stops_on_a_nan_distance(self):
        # the start, the step search's first probe, and the loop's evaluation of
        # the step; the search once spun through its 1,000,000 probes on NaN
        plant = NanAfterStartGenericPlant()
        result = solve(plant, make_line_trajectory(0, 1, 0, 0.25), CaptureSpec(0.1, 1e-6))
        assert result.status is SolveStatus.UNREACHABLE
        assert result.trace.iterates == ((0.0, 1.0),)
        assert plant.calls == 3

    @pytest.mark.parametrize("plant", [SIMPLE_MOTIONS, DUBINS_CAR], ids=["simple", "dubins"])
    def test_fleeing_target_stops_at_the_horizon(self, plant):
        # iterate 19 is the first past t = 50; it is a lower bound on the
        # capture time, so there is no capture up to 50 and it is not evaluated;
        # it is the reported bound
        traj = make_line_trajectory(0, 1, math.pi / 2, 1.5)
        result = solve(plant, traj, CaptureSpec(0.1, 1e-6), horizon=50.0)
        assert result.status is SolveStatus.HORIZON
        assert result.path is None
        assert result.trace.iteration_count == 18
        unbounded = solve(plant, traj, CaptureSpec(0.1, 1e-6))
        assert unbounded.trace.iterates[:19] == result.trace.iterates
        assert result.t_star == unbounded.trace.iterates[19][0] > 50.0

    def test_horizon_stop_on_an_overflowing_step_reports_a_finite_bound(self):
        # the step from t = max overflows to inf, which passes the horizon
        class FarPlant(PlantModel):
            name = "far"

            def distance(self, t, y):
                return sys.float_info.max

        traj = make_line_trajectory(0, 0, 0, 0.0)
        capture = CaptureSpec(0.1, 1e-6)
        horizon = sys.float_info.max
        result = solve(FarPlant(), traj, capture, EstimatorKind.SIMPLE, horizon=horizon)
        assert result.status is SolveStatus.HORIZON
        assert result.trace.iterates[-1][0] == sys.float_info.max
        assert result.t_star == sys.float_info.max
        json.loads(emit_result(result))

    def test_horizon_at_the_capture_time_still_intercepts(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        capture = CaptureSpec(0.1, 1e-6)
        unbounded = solve(SIMPLE_MOTIONS, traj, capture)
        assert unbounded.status is SolveStatus.INTERCEPTED
        assert solve(SIMPLE_MOTIONS, traj, capture, horizon=unbounded.t_star) == unbounded

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_horizon_must_be_positive(self, horizon):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        with pytest.raises(ValueError, match="horizon"):
            solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6), horizon=horizon)

    @entry_points
    @pytest.mark.parametrize("plant", [SIMPLE_MOTIONS, DUBINS_CAR], ids=["simple", "dubins"])
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_start_is_rejected(self, entry, plant, x):
        # refine_ground_truth once raised ConvergenceError here
        traj = make_custom_trajectory(lambda t: PlanarPoint(x, 0.0), 1.0)
        with pytest.raises(ValueError, match="t = 0"):
            entry(plant, traj)

    @entry_points
    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_non_finite_distance_at_start_is_rejected(self, entry, rho):
        # a NaN distance once ended the solve as a capture at t = 0
        class BrokenPlant(PlantModel):
            def distance(self, t, y):
                return rho

        traj = make_line_trajectory(0, 1, 0, 0.5)
        with pytest.raises(ValueError, match="t = 0"):
            entry(BrokenPlant(), traj)

    @entry_points
    @pytest.mark.parametrize("plant", [SIMPLE_MOTIONS, DUBINS_CAR], ids=["simple", "dubins"])
    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_non_finite_speed_bound_is_rejected(self, entry, plant, bound):
        # refine_ground_truth once returned 0.0 here on the Dubins plant
        traj = DeclaredBoundTrajectory(bound)
        with pytest.raises(ValueError, match="speed bound"):
            entry(plant, traj)

    @pytest.mark.parametrize("plant", [SIMPLE_MOTIONS, DUBINS_CAR], ids=["simple", "dubins"])
    @pytest.mark.parametrize("bound", [-0.9, -1.0, -math.inf])
    def test_negative_speed_bound_is_rejected_by_every_scan(self, plant, bound):
        # steps over (1 + v) overshoot for v < 0; grid_oracle's scan checked nothing
        traj = DeclaredBoundTrajectory(bound)
        for entry in ENTRY_POINTS.values():
            with pytest.raises(ValueError, match="speed bound must be finite and >= 0"):
                entry(plant, traj)
        with pytest.raises(ValueError, match="speed bound must be finite and >= 0"):
            grid_oracle(plant, traj, 0.1, 10.0, 1e-3)

    @pytest.mark.parametrize(
        "scan",
        [
            lambda traj, ell: refine_ground_truth(SIMPLE_MOTIONS, traj, ell),
            lambda traj, ell: next(refine_iterates(SIMPLE_MOTIONS, traj, ell)),
            lambda traj, ell: grid_oracle(SIMPLE_MOTIONS, traj, ell, 10.0, 1e-3),
        ],
        ids=["refine_ground_truth", "refine_iterates", "grid_oracle"],
    )
    @pytest.mark.parametrize("ell", [math.nan, math.inf, -0.1])
    def test_invalid_capture_radius_is_rejected_by_every_scan(self, scan, ell):
        # NaN and inf once gave a capture at t = 0.0, and -1 a time past the true one
        traj = make_line_trajectory(0, 1, 0, 0.25)
        with pytest.raises(ValueError, match="capture radius must be finite and >= 0"):
            scan(traj, ell)

    def test_a_stall_ends_on_the_budget(self):
        # the margin ell*epsilon is below float resolution, so the distance
        # never reaches the threshold; the steps stay positive to the budget
        class FrozenDistancePlant(PlantModel):
            name = "frozen"

            def distance(self, t, y):
                return 1.0 + 3e-16

        traj = make_line_trajectory(0, 1, 0, 0.0)
        result = solve(
            FrozenDistancePlant(), traj, CaptureSpec(1.0, 1e-16), EstimatorKind.SIMPLE,
            max_iterations=50,
        )
        assert result.status is SolveStatus.BUDGET
        assert result.trace.iteration_count == 50
        times = [t for t, _ in result.trace.iterates]
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))
        assert result.t_star == times[-1]

    def test_zero_capture_radius_uses_absolute_threshold(self):
        traj = make_line_trajectory(0, 1, 0, 0.0)
        result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.0, 1e-6))
        assert result.status is SolveStatus.INTERCEPTED
        assert result.t_star == pytest.approx(1.0, abs=1e-8)
        assert result.trace.final_distance <= EPSILON_ABS < 1e-6

    def test_plant_without_path_reconstruction_has_no_path(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        result = solve(HiddenStepPlant(), traj, CaptureSpec(0.1, 1e-6))
        assert result.status is SolveStatus.INTERCEPTED
        assert result.path is None
        closed = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6))
        assert result.t_star == pytest.approx(closed.t_star, abs=1e-10)

    def test_captured_at_start(self):
        traj = make_line_trajectory(0.01, 0, 0, 0.5)
        result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6))
        assert result.status is SolveStatus.INTERCEPTED
        assert result.t_star == 0.0
        assert result.trace.iteration_count == 0
        assert result.path is not None

    @pytest.mark.parametrize("plant", [SIMPLE_MOTIONS, DUBINS_CAR], ids=["simple", "dubins"])
    def test_capture_between_ell_and_stopping_distance_has_a_path(self, plant):
        # ell * epsilon = 1e-3: the last distance lands above ell + 1e-6 but
        # below the stopping distance ell * (1 + epsilon)
        traj = make_line_trajectory(0, 3, 0, 0.5)
        result = solve(plant, traj, CaptureSpec(1.0, 1e-3))
        assert result.status is SolveStatus.INTERCEPTED
        assert 1.0 + 1e-6 < result.trace.final_distance <= 1.0 * (1 + 1e-3)
        assert result.path is not None
        duration = sum(s.duration for s in result.path.segments)
        assert duration == pytest.approx(result.t_star, abs=1e-12)
        assert plant.distance(result.t_star, result.path.endpoint) <= 1e-9
        gap = math.dist(traj.position(result.t_star), result.path.endpoint)
        assert gap <= 1.0 * (1 + 1e-3)

    @given(st.sampled_from(["simple", "dubins"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_trace_is_monotone_and_final_distance_within_threshold(self, plant_name, seed):
        rng = np.random.default_rng(seed)
        plant = SIMPLE_MOTIONS if plant_name == "simple" else DUBINS_CAR
        pts = [(0.0, PlanarPoint(rng.uniform(-3, 3), rng.uniform(-3, 3)))]
        for k in range(1, 5):
            prev_t, prev_p = pts[-1]
            dt = rng.uniform(0.2, 1.0)
            ang = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0, 0.8) * dt
            pts.append(
                (prev_t + dt, PlanarPoint(prev_p.x + r * math.cos(ang), prev_p.y + r * math.sin(ang)))
            )
        traj = make_piecewise_linear_trajectory(pts)
        capture = CaptureSpec(0.1, 1e-6)
        result = solve(plant, traj, capture)
        ts = [t for t, _ in result.trace.iterates]
        assert all(t2 >= t1 for t1, t2 in zip(ts, ts[1:]))
        if result.status is SolveStatus.INTERCEPTED:
            assert result.trace.final_distance <= 0.1 * (1 + 1e-6)
            assert result.path is not None
            duration = sum(s.duration for s in result.path.segments)
            assert duration == pytest.approx(result.t_star, abs=1e-9)

    def test_both_estimators_agree_on_these_plants(self):
        traj = make_line_trajectory(-1, -2, math.pi / 4, 0.5)
        for plant in (SIMPLE_MOTIONS, DUBINS_CAR):
            a = solve(plant, traj, CaptureSpec(0.1, 1e-6), EstimatorKind.SIMPLE)
            b = solve(plant, traj, CaptureSpec(0.1, 1e-6), EstimatorKind.BEST)
            assert a.t_star == b.t_star


    @given(coords, coords, st.floats(min_value=0, max_value=2 * math.pi), speeds,
           st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    @example(0.1, 0.1, 0.0, 0.0, 0.4)  # starts within ell: the oracle used to raise
    @example(0.1, 0.1, 0.0, 1.5, 0.4)  # and here returned 0.59 instead of 0
    def test_line_against_the_closed_form(self, xi, eta, phi, v, ell):
        capture = CaptureSpec(ell, 1e-6)
        result = solve(SIMPLE_MOTIONS, make_line_trajectory(xi, eta, phi, v), capture)
        try:
            # solve captures within ell*(1 + epsilon), so that is the radius with no root
            line_interception_time(xi, eta, phi, v, ell * (1 + capture.epsilon))
        except ValueError:
            assert result.status is not SolveStatus.INTERCEPTED
            return
        # near v = 1 the capture can take more than the 10,000 steps
        allowed = {SolveStatus.INTERCEPTED} | ({SolveStatus.BUDGET} if v >= 0.99 else set())
        assert result.status in allowed
        try:
            t_root = line_interception_time(xi, eta, phi, v, ell)
        except ValueError:
            return  # caught only within the epsilon margin
        if result.status is SolveStatus.INTERCEPTED:
            assert result.t_star <= t_root + 1e-9 * (1 + t_root)

    def test_dubins_lines_against_the_grid_oracle(self):
        # the oracle's crossing of ell*(1 + epsilon) is the earliest a solve may stop, and
        # with none up to the horizon no solve may report a capture
        rng = np.random.default_rng(24)
        res, horizon = 1e-7, 60.0
        statuses = set()
        for _ in range(3000):
            xi, eta = rng.uniform(-8, 8, size=2)
            traj = make_line_trajectory(xi, eta, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2))
            ell, eps = rng.uniform(0.05, 0.5), 10 ** rng.uniform(-9, -4)
            result = solve(DUBINS_CAR, traj, CaptureSpec(ell, eps), horizon=horizon)
            statuses.add(result.status)
            outer = grid_oracle(DUBINS_CAR, traj, ell * (1 + eps), horizon, res)
            if result.status is not SolveStatus.INTERCEPTED:
                assert outer is None
                continue
            t = result.t_star
            assert outer is not None and outer - res <= t
            inner = grid_oracle(DUBINS_CAR, traj, ell, horizon, res)
            assert inner is None or t <= inner + 1e-9 * (1 + t)
        assert statuses == {SolveStatus.INTERCEPTED, SolveStatus.HORIZON}

    @pytest.mark.parametrize(
        "line, capture, steps",
        [
            # steps below 1e-15*(1 + t) come well before the capture
            ((1e6, 0, math.pi / 2, 0.9), CaptureSpec(0.0, 1e-6), 312),
            (
                (2.7314282410580972, -1.9145410002964822, 5.1937708813661985, 0.9461167661262626),
                CaptureSpec(0.1, 1.1e-12),
                1122,
            ),
        ],
        ids=["far", "tight"],
    )
    def test_tiny_steps_still_reach_the_capture(self, line, capture, steps):
        result = solve(DUBINS_CAR, make_line_trajectory(*line), capture)
        assert result.status is SolveStatus.INTERCEPTED
        assert result.trace.iteration_count == steps

    def test_no_capturable_target_is_unreachable(self):
        # starts up to 1e7 away and margins ell*epsilon down to below float
        # resolution: every target is slower than the plant, so a solve ends
        # captured or on its budget, and on simple motions inside the closed form
        rng = random.Random(29)
        for plant in (SIMPLE_MOTIONS, DUBINS_CAR):
            for _ in range(150):
                start, bearing = 10 ** rng.uniform(0, 7), rng.uniform(0, 2 * math.pi)
                xi, eta = start * math.cos(bearing), start * math.sin(bearing)
                phi, v = rng.uniform(0, 2 * math.pi), rng.uniform(0, 0.95)
                ell = 0.0 if rng.random() < 1 / 3 else 10 ** rng.uniform(-2, 0)
                capture = CaptureSpec(ell, 10 ** rng.uniform(-13, -3))
                traj = make_line_trajectory(xi, eta, phi, v)
                result = solve(plant, traj, capture, max_iterations=2000)
                assert result.status in (SolveStatus.INTERCEPTED, SolveStatus.BUDGET)
                if plant is not SIMPLE_MOTIONS:
                    continue
                t = result.t_star
                tol = 1e-9 * (1 + t)
                assert t <= line_interception_time(xi, eta, phi, v, ell) + tol
                if result.status is SolveStatus.INTERCEPTED:
                    reach = ell * (1 + capture.epsilon) if ell > 0 else EPSILON_ABS
                    assert t >= line_interception_time(xi, eta, phi, v, reach) - tol


class TestRefineGroundTruth:
    def test_matches_quadratic_closed_form(self):
        for (xi, eta, phi, v) in [
            (0, 1, 0, 0.25),
            (1, 1, math.pi / 2, 0.5),
            (-1, -2, math.pi / 4, 0.75),
            (-2, 0, math.pi / 4, 1.0),
        ]:
            traj = make_line_trajectory(xi, eta, phi, v)
            got = refine_ground_truth(SIMPLE_MOTIONS, traj, 0.1)
            want = line_interception_time(xi, eta, phi, v, 0.1)
            assert got == pytest.approx(want, abs=1e-10)

    def test_stationary_target_exact(self):
        traj = make_line_trajectory(0, 1, 0, 0.0)
        assert refine_ground_truth(SIMPLE_MOTIONS, traj, 0.1) == 1.0 - 0.1

    def test_dubins_matches_grid_oracle(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        got = refine_ground_truth(DUBINS_CAR, traj, 0.1)
        scan = grid_oracle(DUBINS_CAR, traj, 0.1, horizon=10.0, resolution=1e-7)
        assert scan is not None
        assert abs(got - scan) <= 1e-6

    def test_nonconvergence_raises(self):
        traj = make_line_trajectory(0, 1, math.pi / 2, 2.0)
        with pytest.raises(ConvergenceError):
            refine_ground_truth(SIMPLE_MOTIONS, traj, 0.1, max_iterations=1000)
        # the budget allows max_iterations steps: t_0 and five more times
        times = []
        with pytest.raises(ConvergenceError, match="within 5 iterations"):
            times.extend(refine_iterates(SIMPLE_MOTIONS, traj, 0.1, max_iterations=5))
        assert len(times) == 6

    def test_iteration_counts_raise_when_a_precision_is_not_reached(self):
        # t_ref - t stays 0.5 >= 1e-3 at both iterates
        with pytest.raises(ConvergenceError, match="precision 0.001 not reached in 1 steps"):
            iteration_counts([0.0, 0.5], 1.0, (1e-3,))

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_budget_below_one_is_rejected(self, max_iterations):
        # the budget counts steps; one of none is rejected, even for a target already caught
        near = make_line_trajectory(0, 0.05, 0, 0.0)
        with pytest.raises(ValueError, match="max_iterations"):
            list(refine_iterates(SIMPLE_MOTIONS, near, 0.1, max_iterations=max_iterations))

    def test_distance_turning_nan_after_the_start_raises(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        # the step to 0.72 is finite; the distance there is not
        message = r"^the target position or distance at t = 0\.72 is not finite$"
        with pytest.raises(ConvergenceError, match=message):
            refine_ground_truth(NanAfterStartPlant(), traj, 0.1)

    @pytest.mark.parametrize(
        ("plant", "message"),
        [
            (SIMPLE_MOTIONS, r"^the step after t = \S+ is not finite \(t_next = inf\)$"),
            (
                DUBINS_CAR,
                r"^the target position or distance at t = 1\.367\d*e\+308 is not finite$",
            ),
        ],
        ids=["simple", "dubins"],
    )
    def test_target_fleeing_to_infinity_raises(self, plant, message):
        # t overflows first on the simple plant (once returned as t_ref = inf),
        # the target position first on the Dubins plant (once an AssertionError)
        traj = make_line_trajectory(0, 1, math.pi / 2, 1.5)
        times = []
        with pytest.raises(ConvergenceError, match=message):
            times.extend(refine_iterates(plant, traj, 0.1))
        assert len(times) > 1000
        assert all(math.isfinite(t) for t in times)


@pytest.mark.parametrize("plant_name", PLANT_NAMES)
def test_solve_iterates_are_a_prefix_of_refine_iterates(plant_name):
    # one fixed-point loop: solve and refine_iterates differ only in when they stop
    plant = get_plant(plant_name)
    for row in benchmark_rows():
        times = list(refine_iterates(plant, row.trajectory, CAPTURE_RADIUS))
        for epsilon in PRECISIONS:
            result = solve(plant, row.trajectory, CaptureSpec(CAPTURE_RADIUS, epsilon))
            assert result.status is SolveStatus.INTERCEPTED
            solved = [t for t, _ in result.trace.iterates]
            assert solved == times[: len(solved)], (row.label, epsilon)


@given(
    st.sampled_from(PLANT_NAMES),
    st.floats(-12, 12),
    st.floats(-12, 12),
    st.floats(0, 2 * math.pi),
    speeds,
    st.floats(0.05, 1.0),
    st.floats(0.5, 15.0),
)
@example("simple", 0.0, 1.0, math.pi / 2, 1.5, 0.1, 50.0)
@example("dubins", 0.0, 1.0, math.pi / 2, 1.5, 0.1, 50.0)
@settings(max_examples=60, deadline=None)
def test_horizon_stop_has_no_oracle_crossing_within_the_horizon(
    plant_name, xi, eta, phi, v, ell, horizon
):
    # every iterate is a lower bound on the capture time, so a solve that
    # stops at the horizon has proved that there is no capture up to it
    plant = get_plant(plant_name)
    traj = make_line_trajectory(xi, eta, phi, v)
    result = solve(plant, traj, CaptureSpec(ell, 1e-6), horizon=horizon)
    if result.status is SolveStatus.HORIZON:
        crossing = grid_oracle(plant, traj, ell, horizon, resolution=1e-3)
        assert crossing is None or crossing > horizon
        assert result.t_star > horizon
    elif result.status is SolveStatus.INTERCEPTED:
        assert result.t_star <= horizon


class TestGridOracle:
    def test_stationary(self):
        traj = make_line_trajectory(0, 1, 0, 0.0)
        got = grid_oracle(SIMPLE_MOTIONS, traj, 0.1, 10.0, 1e-6)
        assert got == pytest.approx(0.9, abs=1e-6)

    def test_line(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        got = grid_oracle(SIMPLE_MOTIONS, traj, 0.1, 10.0, 1e-6)
        assert got == pytest.approx(line_interception_time(0, 1, 0, 0.25, 0.1), abs=1e-6)

    def test_fleeing_radially_not_found(self):
        traj = make_custom_trajectory(
            lambda t: PlanarPoint(0.0, 1.0 + 2.0 * t), speed_bound=2.0
        )
        assert grid_oracle(SIMPLE_MOTIONS, traj, 0.1, 10.0, 1e-4) is None

    def test_captured_at_start(self):
        traj = make_line_trajectory(0, 0.05, 0, 0.0)
        assert grid_oracle(SIMPLE_MOTIONS, traj, 0.1, 10.0, 1e-6) == 0.0

    def test_validation(self):
        traj = make_line_trajectory(0, 1, 0, 0.0)
        with pytest.raises(ValueError):
            grid_oracle(SIMPLE_MOTIONS, traj, 0.1, 10.0, 0.0)
        with pytest.raises(ValueError):
            grid_oracle(SIMPLE_MOTIONS, traj, 0.1, -1.0, 1e-6)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_horizon_or_resolution_rejected(self, value):
        # an infinite horizon would scan forever for a target never caught
        traj = make_line_trajectory(0, 1, math.pi / 2, 2.0)
        with pytest.raises(ValueError, match="finite"):
            grid_oracle(SIMPLE_MOTIONS, traj, 0.1, value, 1e-6)
        with pytest.raises(ValueError, match="finite"):
            grid_oracle(SIMPLE_MOTIONS, traj, 0.1, 10.0, value)

    def test_lower_bound_safety_of_iterates(self):
        traj = make_line_trajectory(-1, -2, math.pi / 4, 0.5)
        for plant in (SIMPLE_MOTIONS, DUBINS_CAR):
            result = solve(plant, traj, CaptureSpec(0.1, 1e-6))
            crossing = grid_oracle(plant, traj, 0.1, 50.0, 1e-6)
            assert crossing is not None
            for t, _ in result.trace.iterates:
                assert t <= crossing + 1e-6
