"""Minimum-time interception of a moving target via reachable-set distances.

The solver needs only two things from a plant: the distance from any point
to its time-t reachable positions, and the target's Lipschitz speed bound.
Two plants ship with the package: simple motions (unit-speed omnidirectional
point) and the Dubins car (unit speed, unit minimum turning radius).
"""

from .core import (
    CaptureSpec,
    CustomTrajectory,
    LineTrajectory,
    LissajousTrajectory,
    PiecewiseLinearTrajectory,
    PlanarPoint,
    SolveTrace,
    TargetTrajectory,
    make_custom_trajectory,
    make_line_trajectory,
    make_lissajous_trajectory,
    make_piecewise_linear_trajectory,
)
from .plants import (
    SIMPLE_MOTIONS,
    InterceptionPath,
    PathSegment,
    PlantModel,
    SimpleMotions,
    get_plant,
)
from .dubins import DUBINS_CAR, DubinsCar, DubinsRegion
from .solver import (
    ConvergenceError,
    EstimatorKind,
    SolveResult,
    SolveStatus,
    best_estimator,
    grid_oracle,
    refine_ground_truth,
    simple_estimator,
    solve,
)
from .scenario import (
    Scenario,
    ScenarioError,
    emit_result,
    emit_scenario,
    parse_result,
    parse_scenario,
)
from .svgplot import render_svg

__version__ = "0.1.0"

__all__ = [
    "CaptureSpec",
    "ConvergenceError",
    "CustomTrajectory",
    "DUBINS_CAR",
    "DubinsCar",
    "DubinsRegion",
    "EstimatorKind",
    "InterceptionPath",
    "LineTrajectory",
    "LissajousTrajectory",
    "PathSegment",
    "PiecewiseLinearTrajectory",
    "PlanarPoint",
    "PlantModel",
    "SIMPLE_MOTIONS",
    "Scenario",
    "ScenarioError",
    "SimpleMotions",
    "SolveResult",
    "SolveStatus",
    "SolveTrace",
    "TargetTrajectory",
    "best_estimator",
    "emit_result",
    "emit_scenario",
    "get_plant",
    "grid_oracle",
    "make_custom_trajectory",
    "make_line_trajectory",
    "make_lissajous_trajectory",
    "make_piecewise_linear_trajectory",
    "parse_result",
    "parse_scenario",
    "refine_ground_truth",
    "render_svg",
    "simple_estimator",
    "solve",
]
