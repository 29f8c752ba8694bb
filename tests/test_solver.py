import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intercept.core import (
    CaptureSpec,
    PlanarPoint,
    make_custom_trajectory,
    make_line_trajectory,
    make_piecewise_linear_trajectory,
)
from intercept.dubins import DUBINS_CAR
from intercept.plants import SIMPLE_MOTIONS, PlantModel
from intercept.solver import (
    EPSILON_ABS,
    ConvergenceError,
    EstimatorKind,
    SolveStatus,
    best_estimator,
    grid_oracle,
    refine_ground_truth,
    simple_estimator,
    solve,
)
from oracles import line_interception_time

times = st.floats(min_value=0, max_value=10, allow_nan=False)
coords = st.floats(min_value=-8, max_value=8, allow_nan=False)
points = st.builds(PlanarPoint, coords, coords)
speeds = st.floats(min_value=0, max_value=2, allow_nan=False)
radii = st.floats(min_value=0, max_value=0.5, allow_nan=False)


class HiddenStepPlant(PlantModel):
    """Simple motions without a closed-form step or path: the base methods apply."""

    name = "simple-no-step"

    def distance(self, t, y):
        return SIMPLE_MOTIONS.distance(t, y)


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
        # a step below float resolution at t rounds away; solve reports
        # repeated such steps as UNREACHABLE
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

    def test_step_underflow_flags_unreachable(self):
        class FrozenDistancePlant(PlantModel):
            name = "frozen"

            def distance(self, t, y):
                return 1.0 + 3e-16

        traj = make_line_trajectory(0, 1, 0, 0.0)
        result = solve(
            FrozenDistancePlant(), traj, CaptureSpec(1.0, 1e-16), EstimatorKind.SIMPLE
        )
        assert result.status is SolveStatus.UNREACHABLE

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
        assert result.path.total_duration == pytest.approx(result.t_star, abs=1e-12)
        assert plant.distance(result.t_star, result.path.endpoint) <= 1e-9
        gap = traj.position(result.t_star).distance_to(result.path.endpoint)
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
            assert result.path.total_duration == pytest.approx(result.t_star, abs=1e-9)

    def test_both_estimators_agree_on_these_plants(self):
        traj = make_line_trajectory(-1, -2, math.pi / 4, 0.5)
        for plant in (SIMPLE_MOTIONS, DUBINS_CAR):
            a = solve(plant, traj, CaptureSpec(0.1, 1e-6), EstimatorKind.SIMPLE)
            b = solve(plant, traj, CaptureSpec(0.1, 1e-6), EstimatorKind.BEST)
            assert a.t_star == b.t_star


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
