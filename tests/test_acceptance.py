"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here and not configurable.
"""

import math
import time
import xml.etree.ElementTree as ET

import numpy as np

from intercept.benchmarks import (
    CAPTURE_RADIUS,
    benchmark_rows,
    iteration_counts,
    run_table,
)
from intercept.core import (
    CaptureSpec,
    PlanarPoint,
    make_line_trajectory,
    make_lissajous_trajectory,
    make_piecewise_linear_trajectory,
)
from intercept.dubins import DUBINS_CAR, DubinsRegion, _case, _cs
from intercept.plants import SIMPLE_MOTIONS, get_plant
from intercept.scenario import Scenario, emit_scenario, parse_scenario
from intercept.solver import (
    EstimatorKind,
    SolveStatus,
    best_estimator,
    grid_oracle,
    refine_ground_truth,
    refine_iterates,
    simple_estimator,
    solve,
)
from intercept.svgplot import render_svg
from oracles import DubinsBoundaryOracle, line_interception_time

PLANTS = {"simple": SIMPLE_MOTIONS, "dubins": DUBINS_CAR}


def _random_piecewise(rng, v_max=0.9, n_points=8):
    v = rng.uniform(0.0, v_max)
    start_r = rng.uniform(0.5, 4.0)
    ang = rng.uniform(0, 2 * math.pi)
    pts = [(0.0, PlanarPoint(start_r * math.cos(ang), start_r * math.sin(ang)))]
    for _ in range(n_points - 1):
        t_prev, p_prev = pts[-1]
        dt = rng.uniform(0.3, 1.2)
        speed = rng.uniform(0.0, v) if v > 0 else 0.0
        direction = rng.uniform(0, 2 * math.pi)
        pts.append(
            (
                t_prev + dt,
                PlanarPoint(
                    p_prev.x + speed * dt * math.cos(direction),
                    p_prev.y + speed * dt * math.sin(direction),
                ),
            )
        )
    return make_piecewise_linear_trajectory(pts)


def test_criterion_1_benchmark_table_reproduction():
    start = time.perf_counter()
    results = run_table()
    elapsed = time.perf_counter() - start

    line_cells = [c for c in results if c.row_label.startswith("line")]
    lissajous_cells = [c for c in results if c.row_label.startswith("lissajous")]
    assert len(line_cells) == 24  # 12 rows x 2 plants, 3 precisions per cell

    for cell in line_cells:
        for computed, reference in zip(cell.counts, cell.reference):
            assert abs(computed - reference) <= 1, (
                f"{cell.row_label} [{cell.plant}]: {cell.counts} vs {cell.reference}"
            )

    flags = {
        (c.row_label, c.plant): c.matches for c in lissajous_cells
    }
    mismatched = {k: v for k, v in flags.items() if not all(v)}
    assert elapsed < 10.0, f"table took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 1 PASS: all {3 * len(line_cells)} line-trajectory counts within "
        f"+-1; {len(lissajous_cells) - len(mismatched)}/{len(lissajous_cells)} "
        f"lissajous cells match (speed bound taken as the parameter v); "
        f"table in {elapsed:.2f}s"
    )


def test_criterion_2_simple_motions_analytic_ground_truth():
    checked = 0
    for row in benchmark_rows():
        if not row.label.startswith("line"):
            continue
        p = row.trajectory
        want = line_interception_time(p.xi, p.eta, p.phi, p.v, CAPTURE_RADIUS)
        got = refine_ground_truth(SIMPLE_MOTIONS, row.trajectory, CAPTURE_RADIUS)
        assert abs(got - want) <= 1e-10, (row.label, got, want)
        checked += 1
    assert checked == 12
    print(f"ACCEPTANCE 2 PASS: {checked} line rows match the quadratic root within 1e-10")


def test_criterion_3_reachable_distance_vs_dense_boundary_oracle():
    rng = np.random.default_rng(2024)
    n_batches, per_batch = 100, 100
    worst = 0.0
    failures = 0
    for _ in range(n_batches):
        t = float(rng.uniform(0.0, 7.0))
        oracle = DubinsBoundaryOracle(t, n_per_branch=25_000)
        for _ in range(per_batch):
            r = float(rng.uniform(0.0, 8.0))
            ang = float(rng.uniform(0.0, 2 * math.pi))
            p = PlanarPoint(r * math.cos(ang), r * math.sin(ang))
            err = abs(DUBINS_CAR.distance(t, p) - oracle.distance(p))
            worst = max(worst, err)
            if err > 1e-5:
                failures += 1
    assert failures == 0, f"{failures} failures, worst error {worst:.2e}"
    print(
        f"ACCEPTANCE 3 PASS: {n_batches * per_batch} random queries vs dense boundary "
        f"oracle, zero failures, worst |error| = {worst:.2e}"
    )


def test_criterion_4_lipschitz_in_time_and_space():
    n = 100_000
    rng = np.random.default_rng(99)

    # simple motions, vectorized
    t1 = rng.uniform(0, 20, n)
    t2 = rng.uniform(0, 20, n)
    px = rng.uniform(-8, 8, n)
    py = rng.uniform(-8, 8, n)
    r = np.hypot(px, py)
    d1 = np.maximum(r - t1, 0.0)
    d2 = np.maximum(r - t2, 0.0)
    assert np.all(np.abs(d1 - d2) <= np.abs(t1 - t2) + 1e-12)
    qx = rng.uniform(-8, 8, n)
    qy = rng.uniform(-8, 8, n)
    t = rng.uniform(0, 20, n)
    da = np.maximum(np.hypot(px, py) - t, 0.0)
    db = np.maximum(np.hypot(qx, qy) - t, 0.0)
    assert np.all(np.abs(da - db) <= np.hypot(px - qx, py - qy) + 1e-12)

    # Dubins car, scalar kernel
    worst_t = worst_y = 0.0
    for i in range(n):
        tt1 = float(rng.uniform(0, 20))
        tt2 = float(rng.uniform(0, 20))
        p = PlanarPoint(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
        gap = abs(DUBINS_CAR.distance(tt1, p) - DUBINS_CAR.distance(tt2, p))
        worst_t = max(worst_t, gap - abs(tt1 - tt2))
        assert gap <= abs(tt1 - tt2) + 1e-12
    for i in range(n):
        tt = float(rng.uniform(0, 20))
        p1 = PlanarPoint(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
        p2 = PlanarPoint(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
        gap = abs(DUBINS_CAR.distance(tt, p1) - DUBINS_CAR.distance(tt, p2))
        worst_y = max(worst_y, gap - math.dist(p1, p2))
        assert gap <= math.dist(p1, p2) + 1e-12
    print(
        f"ACCEPTANCE 4 PASS: both 1-Lipschitz bounds hold on {n} pairs per plant "
        f"(dubins worst slack use: time {worst_t:.2e}, space {worst_y:.2e})"
    )


def test_criterion_5_solver_agrees_with_grid_oracle():
    resolution = 1e-6
    ell, eps = 0.1, 1e-6
    capture = CaptureSpec(ell, eps)
    rng = np.random.default_rng(7)
    per_plant = 100
    for plant_name, plant in PLANTS.items():
        solved = 0
        for _ in range(per_plant):
            traj = _random_piecewise(rng)
            crossing = grid_oracle(plant, traj, ell, horizon=50.0, resolution=resolution)
            assert crossing is not None, "random targets must be reachable in horizon"
            result = solve(plant, traj, capture)
            assert result.status is SolveStatus.INTERCEPTED
            tol = max(resolution, ell * eps / (1.0 + traj.speed_bound))
            assert abs(result.t_star - crossing) <= tol, (
                plant_name, result.t_star, crossing
            )
            for t_n, _ in result.trace.iterates:
                assert t_n <= crossing + resolution
            solved += 1
        assert solved == per_plant
    print(
        f"ACCEPTANCE 5 PASS: solve matches the Lipschitz-scan oracle within "
        f"max(1e-6, ell*eps/(1+v)) on {per_plant} random targets per plant, "
        f"all iterates below the oracle"
    )


def test_criterion_6_estimator_relations():
    rng = np.random.default_rng(13)
    n_per_plant = 50_000
    dominance_checked = 0
    simple_equal_checked = 0
    lemma_domain_checked = 0
    for plant_name, plant in PLANTS.items():
        checked = 0
        while checked < n_per_plant:
            t = float(rng.uniform(0, 10))
            p = PlanarPoint(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)))
            v = float(rng.uniform(0, 2))
            ell = float(rng.uniform(0, 0.5))
            rho = plant.distance(t, p)
            if rho < ell:
                continue  # estimator precondition; redraw
            checked += 1
            b = best_estimator(plant, t, p, rho, v, ell)
            s = simple_estimator(plant, t, p, rho, v, ell)
            assert b >= s - 1e-12
            dominance_checked += 1
            if plant_name == "simple":
                assert abs(b - s) <= 1e-12
                simple_equal_checked += 1
            else:
                region, a_cs, _ = _case(abs(p.x), p.y)
                on_lemma_domain = False
                if region is not DubinsRegion.D_I:
                    theta, length = _cs(abs(p.x), p.y, a_cs)
                    on_lemma_domain = theta <= t and (
                        region is DubinsRegion.D_II or length >= t
                    )
                if on_lemma_domain:
                    assert abs(b - s) <= 1e-12
                    lemma_domain_checked += 1
    assert dominance_checked == 2 * n_per_plant
    assert lemma_domain_checked > 1_000
    print(
        f"ACCEPTANCE 6 PASS: dominance on {dominance_checked} inputs; equality on "
        f"{simple_equal_checked} simple-motions inputs and {lemma_domain_checked} "
        f"turn+straight-domain inputs"
    )


def test_criterion_7_lissajous_caption_counts():
    traj = make_lissajous_trajectory(-1, -2, 1.0, math.sqrt(2.0), 1.0)
    simple_times = list(refine_iterates(SIMPLE_MOTIONS, traj, CAPTURE_RADIUS))
    n_simple = iteration_counts(simple_times, simple_times[-1], (1e-3,))[0]
    dubins_times = list(refine_iterates(DUBINS_CAR, traj, CAPTURE_RADIUS))
    n_dubins = iteration_counts(dubins_times, dubins_times[-1], (1e-3,))[0]
    assert n_simple == 9
    assert n_dubins == 6
    print(
        "ACCEPTANCE 7 PASS: the showcase lissajous target needs exactly 9 (simple) "
        "and 6 (dubins) iterations to 1e-3"
    )


def test_criterion_8_path_validity():
    capture = CaptureSpec(0.1, 1e-6)
    rng = np.random.default_rng(31)
    checked = 0
    cases = []
    for row in benchmark_rows():
        cases.append(row.trajectory)
    for _ in range(10):
        cases.append(_random_piecewise(rng))
    for traj in cases:
        for plant in PLANTS.values():
            result = solve(plant, traj, capture)
            if result.status is not SolveStatus.INTERCEPTED:
                continue
            assert result.path is not None
            duration = sum(seg.duration for seg in result.path.segments)
            assert abs(duration - result.t_star) <= 1e-9
            assert plant.distance(duration, result.path.endpoint) <= 1e-6
            checked += 1
    assert checked >= 70
    print(
        f"ACCEPTANCE 8 PASS: {checked} reconstructed paths end on the reachable "
        f"set (<= 1e-6) with durations equal to t_star (<= 1e-9)"
    )


def _random_scenario(rng) -> Scenario:
    plant = str(rng.choice(["simple", "dubins"]))
    kind = str(rng.choice(["line", "lissajous", "piecewise"]))
    if kind == "line":
        traj = make_line_trajectory(
            float(rng.uniform(-5, 5)),
            float(rng.uniform(-5, 5)),
            float(rng.uniform(0, 2 * math.pi)),
            float(rng.uniform(0, 2)),
        )
    elif kind == "lissajous":
        traj = make_lissajous_trajectory(
            float(rng.uniform(-5, 5)),
            float(rng.uniform(-5, 5)),
            float(rng.uniform(0.2, 3)),
            float(rng.uniform(0.2, 3)),
            float(rng.uniform(0, 2)),
            speed_bound=None if rng.uniform() < 0.5 else float(rng.uniform(2, 4)),
        )
    else:
        traj = _random_piecewise(rng)
    capture = CaptureSpec(float(rng.uniform(0, 1)), float(rng.uniform(1e-9, 1e-3)))
    estimator = EstimatorKind.BEST if rng.uniform() < 0.5 else EstimatorKind.SIMPLE
    horizon = float(rng.uniform(1, 100))
    return Scenario(plant, traj, capture, estimator, horizon)


def test_criterion_9_io_round_trip_and_svg():
    rng = np.random.default_rng(77)
    for _ in range(100):
        scenario = _random_scenario(rng)
        assert parse_scenario(emit_scenario(scenario)) == scenario

    rendered = 0
    svg_cases = [
        ("simple", make_line_trajectory(0, 1, 0, 0.25)),
        ("dubins", make_line_trajectory(0, 1, 0, 0.25)),
        ("simple", make_lissajous_trajectory(-1, -2, 1, math.sqrt(2), 1)),
        ("dubins", make_lissajous_trajectory(-1, -2, 1, math.sqrt(2), 1)),
        ("simple", _random_piecewise(rng)),
        ("dubins", _random_piecewise(rng)),
    ]
    for plant_name, traj in svg_cases:
        plant = get_plant(plant_name)
        result = solve(plant, traj, CaptureSpec(0.1, 1e-6))
        assert result.status is SolveStatus.INTERCEPTED
        times = [t for t, _ in result.trace.iterates if t > 0]
        svg = render_svg(plant, traj, result, times)
        root = ET.fromstring(svg)  # raises if malformed
        assert root.tag.endswith("svg")
        rendered += 1
    print(
        f"ACCEPTANCE 9 PASS: 100 scenarios survive parse(emit(.)) identically; "
        f"{rendered} rendered SVGs are well-formed XML"
    )
