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
from .dubins import DUBINS_CAR, DubinsCar
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

__version__ = "0.1.0"


def __getattr__(name: str):
    """The document and drawing names, imported on first use (PEP 562).

    ``import intercept`` loads only what a solve needs; ``scenario`` (and with
    it ``json``) and ``svgplot`` load when one of their names is first read.
    The value is then stored here, so later lookups do not come back.
    """
    if name in ("Scenario", "ScenarioError", "emit_result", "emit_scenario",
                "parse_result", "parse_scenario"):
        from .scenario import (
            Scenario,
            ScenarioError,
            emit_result,
            emit_scenario,
            parse_result,
            parse_scenario,
        )
    elif name == "render_svg":
        from .svgplot import render_svg
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = locals()[name]
    globals()[name] = value
    return value

__all__ = [
    "CaptureSpec",
    "ConvergenceError",
    "CustomTrajectory",
    "DUBINS_CAR",
    "DubinsCar",
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
