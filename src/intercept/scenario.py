"""Scenario and result documents (JSON).

A scenario pins down one solvable problem: plant, target trajectory,
capture spec, estimator choice and scan horizon. Parsing is strict -
unknown fields and malformed values are rejected with the offending field
named. Numbers survive a parse/emit round trip bit-exactly (they are
written with the shortest decimal form that reparses to the same double).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .core import (
    LISSAJOUS,
    PIECEWISE_LINEAR,
    LINE,
    CaptureSpec,
    PlanarPoint,
    SolveTrace,
    TargetTrajectory,
    make_line_trajectory,
    make_lissajous_trajectory,
    make_piecewise_linear_trajectory,
)
from .plants import ARC, InterceptionPath, PathSegment
from .solver import EstimatorKind, SolveResult, SolveStatus

PLANT_NAMES = ("simple", "dubins")
DEFAULT_HORIZON = 50.0

_TRAJECTORY_FIELDS = {
    LINE: {"kind", "xi", "eta", "phi", "v"},
    LISSAJOUS: {"kind", "xi", "eta", "omega_x", "omega_y", "v", "speed_bound"},
    PIECEWISE_LINEAR: {"kind"},
}


class ScenarioError(ValueError):
    """Scenario document is malformed; ``field`` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{message} (field '{field}')")


@dataclass(frozen=True)
class Scenario:
    plant: str
    trajectory: TargetTrajectory
    capture: CaptureSpec
    estimator: EstimatorKind
    horizon: float


def _number(doc: dict, key: str, context: str) -> float:
    if key not in doc:
        raise ScenarioError(f"missing required field '{key}'", field=f"{context}{key}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"'{key}' must be a number", field=f"{context}{key}")
    return float(value)


def _reject_unknown(doc: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ScenarioError(
            f"unknown field(s) {', '.join(repr(k) for k in unknown)}",
            field=f"{context}{unknown[0]}",
        )


def _parse_trajectory(doc: dict, samples_doc: Any) -> TargetTrajectory:
    if not isinstance(doc, dict):
        raise ScenarioError("'trajectory' must be an object", field="trajectory")
    kind = doc.get("kind")
    if kind not in _TRAJECTORY_FIELDS:
        raise ScenarioError(
            f"unknown trajectory kind {kind!r} (expected one of "
            f"{sorted(_TRAJECTORY_FIELDS)})",
            field="trajectory.kind",
        )
    _reject_unknown(doc, _TRAJECTORY_FIELDS[kind], "trajectory.")
    try:
        if kind == LINE:
            if samples_doc is not None:
                raise ScenarioError(
                    "'samples' is only valid for piecewise_linear trajectories",
                    field="samples",
                )
            return make_line_trajectory(
                _number(doc, "xi", "trajectory."),
                _number(doc, "eta", "trajectory."),
                _number(doc, "phi", "trajectory."),
                _number(doc, "v", "trajectory."),
            )
        if kind == LISSAJOUS:
            if samples_doc is not None:
                raise ScenarioError(
                    "'samples' is only valid for piecewise_linear trajectories",
                    field="samples",
                )
            bound = None
            if "speed_bound" in doc:
                bound = _number(doc, "speed_bound", "trajectory.")
            return make_lissajous_trajectory(
                _number(doc, "xi", "trajectory."),
                _number(doc, "eta", "trajectory."),
                _number(doc, "omega_x", "trajectory."),
                _number(doc, "omega_y", "trajectory."),
                _number(doc, "v", "trajectory."),
                speed_bound=bound,
            )
        # piecewise linear: points live in the top-level "samples" list
        if samples_doc is None:
            raise ScenarioError(
                "missing required field 'samples' for piecewise_linear",
                field="samples",
            )
        if not isinstance(samples_doc, list) or not samples_doc:
            raise ScenarioError("'samples' must be a non-empty list", field="samples")
        samples = []
        for i, entry in enumerate(samples_doc):
            ok = (
                isinstance(entry, list)
                and len(entry) == 2
                and isinstance(entry[0], (int, float))
                and not isinstance(entry[0], bool)
                and isinstance(entry[1], list)
                and len(entry[1]) == 2
                and all(
                    isinstance(c, (int, float)) and not isinstance(c, bool)
                    for c in entry[1]
                )
            )
            if not ok:
                raise ScenarioError(
                    f"sample #{i} must look like [t, [x, y]]", field=f"samples[{i}]"
                )
            samples.append(
                (float(entry[0]), PlanarPoint(float(entry[1][0]), float(entry[1][1])))
            )
        return make_piecewise_linear_trajectory(samples)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc), field="trajectory") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(
        doc, {"plant", "trajectory", "capture", "estimator", "horizon", "samples"}, ""
    )

    plant = doc.get("plant")
    if plant not in PLANT_NAMES:
        raise ScenarioError(
            f"unknown plant {plant!r} (expected one of {list(PLANT_NAMES)})",
            field="plant",
        )

    if "trajectory" not in doc:
        raise ScenarioError("missing required field 'trajectory'", field="trajectory")
    trajectory = _parse_trajectory(doc["trajectory"], doc.get("samples"))

    if "capture" not in doc:
        raise ScenarioError("missing required field 'capture'", field="capture")
    capture_doc = doc["capture"]
    if not isinstance(capture_doc, dict):
        raise ScenarioError("'capture' must be an object", field="capture")
    _reject_unknown(capture_doc, {"ell", "epsilon"}, "capture.")
    try:
        capture = CaptureSpec(
            _number(capture_doc, "ell", "capture."),
            _number(capture_doc, "epsilon", "capture."),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc), field="capture") from exc

    estimator_name = doc.get("estimator", "best")
    try:
        estimator = EstimatorKind(estimator_name)
    except ValueError as exc:
        raise ScenarioError(
            f"unknown estimator {estimator_name!r}", field="estimator"
        ) from exc

    horizon = DEFAULT_HORIZON
    if "horizon" in doc:
        horizon = _number(doc, "horizon", "")
        if horizon <= 0:
            raise ScenarioError("'horizon' must be > 0", field="horizon")

    return Scenario(plant, trajectory, capture, estimator, horizon)


def scenario_to_dict(scenario: Scenario) -> dict:
    traj = scenario.trajectory
    if traj.kind not in _TRAJECTORY_FIELDS:
        raise ValueError(f"{traj.kind} trajectories cannot be serialized")
    doc: dict[str, Any] = {"plant": scenario.plant}
    if traj.kind == PIECEWISE_LINEAR:
        doc["trajectory"] = {"kind": traj.kind}
        assert traj.samples is not None
        doc["samples"] = [[t, [p.x, p.y]] for t, p in traj.samples]
    else:
        doc["trajectory"] = {"kind": traj.kind, **traj.params}
    doc["capture"] = {"ell": scenario.capture.ell, "epsilon": scenario.capture.epsilon}
    doc["estimator"] = scenario.estimator.value
    doc["horizon"] = scenario.horizon
    return doc


def emit_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


def emit_result(result: SolveResult) -> str:
    """Serialize a solve result; trace numbers reparse bit-exactly."""
    doc: dict[str, Any] = {
        "status": result.status.value,
        "t_star": result.t_star,
        "iterations": result.trace.iteration_count,
        "trace": [[t, rho] for t, rho in result.trace.iterates],
    }
    if result.path is None:
        doc["path"] = None
    else:
        segments = []
        for seg in result.path.segments:
            entry: dict[str, Any] = {"kind": seg.kind, "duration": seg.duration}
            if seg.kind == ARC:
                entry["direction"] = seg.direction
            segments.append(entry)
        doc["path"] = {
            "segments": segments,
            "endpoint": [result.path.endpoint.x, result.path.endpoint.y],
        }
    return json.dumps(doc, indent=2) + "\n"


def parse_result(text: str) -> SolveResult:
    """Inverse of ``emit_result``; ignores the ``termination`` key of older documents."""
    doc = json.loads(text)
    trace = SolveTrace(tuple((t, rho) for t, rho in doc["trace"]))
    path = None
    if doc["path"] is not None:
        segments = tuple(
            PathSegment(s["kind"], s["duration"], s.get("direction"))
            for s in doc["path"]["segments"]
        )
        endpoint = PlanarPoint(*doc["path"]["endpoint"])
        path = InterceptionPath(segments, endpoint)
    return SolveResult(SolveStatus(doc["status"]), doc["t_star"], trace, path)
