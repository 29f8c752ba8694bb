"""Distance evaluations per solve on the shipped scenarios.

One solve should cost one distance evaluation per iterate, plus the one
that guards path reconstruction, and one Dubins distance should classify
its query once. The counts are deterministic, so these tests stop a
refactor from silently re-evaluating the distance or its case analysis.
Every trajectory kind is evaluated once per iterate through
``TargetTrajectory.position``.
"""

from __future__ import annotations

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
)
from intercept.benchmarks import run_table

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def distance_calls(monkeypatch):
    """Count calls of both plants' distance functions by plant name."""
    calls = {"simple": 0, "dubins": 0}

    def counting(name, fn):
        def wrapper(t, y):
            calls[name] += 1
            return fn(t, y)

        return wrapper

    monkeypatch.setattr(dubins, "distance", counting("dubins", dubins.distance))
    monkeypatch.setattr(plants, "simple_distance", counting("simple", plants.simple_distance))
    return calls


def _solve(name):
    scenario = parse_scenario((SCENARIOS / name).read_text(encoding="utf-8"))
    plant = get_plant(scenario.plant)
    return scenario.plant, solve(plant, scenario.trajectory, scenario.capture, scenario.estimator)


def test_lissajous_dubins_evaluates_once_per_iterate(distance_calls):
    _, result = _solve("lissajous_dubins.json")
    assert result.trace.iteration_count == 9
    assert result.path is not None
    # 10 iterates and the path guard
    assert distance_calls == {"simple": 0, "dubins": 11}


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_shipped_scenarios_evaluate_at_most_iterations_plus_two(distance_calls, name):
    plant_name, result = _solve(name)
    assert distance_calls[plant_name] <= result.trace.iteration_count + 2
    assert sum(distance_calls.values()) == distance_calls[plant_name]


def test_table_classifies_each_dubins_query_once(distance_calls, monkeypatch):
    classify_calls = 0
    original = dubins.classify

    def counting(y):
        nonlocal classify_calls
        classify_calls += 1
        return original(y)

    monkeypatch.setattr(dubins, "classify", counting)
    run_table()
    assert distance_calls["dubins"] == 1362
    assert classify_calls <= distance_calls["dubins"]


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
