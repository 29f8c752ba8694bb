"""Distance evaluations per solve on the shipped scenarios.

One solve should cost one distance evaluation per iterate. The simple
plant's path reconstruction adds one more as its guard; the Dubins path
reads its guard, family and first arc from the routine behind ``distance``
and adds none. One Dubins distance should run its case analysis once, on
floats, with one cubic solve per CC query. The counts are deterministic,
so these tests stop a refactor from silently re-evaluating the distance or
its case analysis.
Every trajectory kind is evaluated once per iterate through
``TargetTrajectory.position``.
"""

from __future__ import annotations

import math
import pathlib

import pytest

from intercept import (
    SIMPLE_MOTIONS,
    CaptureSpec,
    PlanarPoint,
    TargetTrajectory,
    dubins,
    get_plant,
    make_custom_trajectory,
    make_line_trajectory,
    make_lissajous_trajectory,
    make_piecewise_linear_trajectory,
    parse_scenario,
    plants,
    solve,
    solver,
)
from intercept.benchmarks import run_table

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _counting(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


@pytest.fixture
def distance_calls(monkeypatch):
    """Count calls of both plants' distance functions by plant name."""
    calls = {"simple": 0, "dubins": 0}
    monkeypatch.setattr(dubins, "distance", _counting(calls, "dubins", dubins.distance))
    monkeypatch.setattr(
        plants, "simple_distance", _counting(calls, "simple", plants.simple_distance)
    )
    return calls


def _solve(name):
    scenario = parse_scenario((SCENARIOS / name).read_text(encoding="utf-8"))
    plant = get_plant(scenario.plant)
    return scenario.plant, solve(plant, scenario.trajectory, scenario.capture, scenario.estimator)


def test_lissajous_dubins_evaluates_once_per_iterate(distance_calls, monkeypatch):
    cubic = {"cc_cubic_roots": 0}
    monkeypatch.setattr(
        dubins, "cc_cubic_roots", _counting(cubic, "cc_cubic_roots", dubins.cc_cubic_roots)
    )
    _, result = _solve("lissajous_dubins.json")
    assert result.trace.iteration_count == 9
    assert result.path is not None
    # 10 iterates; the path makes no distance call of its own
    assert distance_calls == {"simple": 0, "dubins": 10}
    # 3 of the 10 iterates are CC queries, and the path solves no cubic of its own
    assert cubic == {"cc_cubic_roots": 3}


# the path guard: one more simple distance, none on the Dubins plant
PATH_GUARD_CALLS = {"simple": 1, "dubins": 0}


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_shipped_scenarios_evaluate_at_most_iterations_plus_two(distance_calls, name):
    plant_name, result = _solve(name)
    assert result.path is not None
    # one evaluation per iterate (iteration_count + 1 of them) and the path guard
    expected = result.trace.iteration_count + 1 + PATH_GUARD_CALLS[plant_name]
    assert distance_calls[plant_name] == expected
    assert sum(distance_calls.values()) == distance_calls[plant_name]


def test_table_dubins_layer_counts(distance_calls, monkeypatch):
    # the distance runs its case analysis on floats: the PlanarPoint
    # wrappers classify and theta_cs are never called, and the CC branch
    # still calls cc_cubic_roots by name, once per CC query
    calls = {"cc_cubic_roots": 0, "classify": 0, "theta_cs": 0}
    for name in calls:
        monkeypatch.setattr(dubins, name, _counting(calls, name, getattr(dubins, name)))
    run_table()
    assert distance_calls["dubins"] == 1362
    assert calls == {"cc_cubic_roots": 428, "classify": 0, "theta_cs": 0}


@pytest.mark.parametrize(
    "traj",
    [
        make_line_trajectory(0, 1, 0, 0.25),
        make_lissajous_trajectory(1, 1, 1, 2, 0.5),
        make_piecewise_linear_trajectory([(0, PlanarPoint(2, 0.5)), (1, PlanarPoint(1.5, 1))]),
        make_custom_trajectory(lambda t: PlanarPoint(0.0, 1.0 + 0.5 * t), 0.5),
    ],
    ids=lambda traj: traj.kind,
)
def test_every_kind_is_evaluated_through_position(monkeypatch, traj):
    # layer tracers hook TargetTrajectory.position, so no kind may bypass it
    calls = 0
    original = TargetTrajectory.position

    def counting(self, t):
        nonlocal calls
        calls += 1
        return original(self, t)

    monkeypatch.setattr(TargetTrajectory, "position", counting)
    result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6))
    assert result.trace.iteration_count > 0
    assert calls == result.trace.iteration_count + 1  # one per iterate


def test_budget_stops_take_only_the_allowed_steps(distance_calls, monkeypatch):
    # a budget of n steps costs n steps: solve evaluates each time it stepped
    # to, refine_iterates yields its last time without evaluating it
    steps = 0
    original = solver.best_estimator

    def counting(*args):
        nonlocal steps
        steps += 1
        return original(*args)

    monkeypatch.setattr(solver, "best_estimator", counting)
    traj = make_line_trajectory(0, 1, math.pi / 2, 2.0)  # outruns the plant
    result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6), max_iterations=50)
    assert result.trace.iteration_count == 50
    assert (steps, distance_calls["simple"]) == (50, 51)

    steps = distance_calls["simple"] = 0
    with pytest.raises(solver.ConvergenceError):
        list(solver.refine_iterates(SIMPLE_MOTIONS, traj, 0.1, max_iterations=5))
    assert (steps, distance_calls["simple"]) == (5, 5)
