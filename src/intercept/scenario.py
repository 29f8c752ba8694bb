"""Scenario and result documents (JSON).

A scenario pins down one solvable problem: plant, target trajectory,
capture spec, estimator choice and scan horizon. Parsing is strict -
unknown fields and malformed values are rejected with the offending field
named. Numbers survive a parse/emit round trip bit-exactly (they are
written with the shortest decimal form that reparses to the same double).
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Any

from .core import (
    CaptureSpec,
    LineTrajectory,
    LissajousTrajectory,
    PiecewiseLinearTrajectory,
    PlanarPoint,
    SolveTrace,
    TargetTrajectory,
)
from .plants import ARC, InterceptionPath, PathSegment
from .solver import EstimatorKind, SolveResult, SolveStatus

PLANT_NAMES = ("simple", "dubins")
DEFAULT_HORIZON = 50.0
_FLOAT_MAX = sys.float_info.max

TRAJECTORY_KINDS = {
    cls.kind: cls for cls in (LineTrajectory, LissajousTrajectory, PiecewiseLinearTrajectory)
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


def _finite(value: Any) -> float | None:
    """``value`` as a float if it is a finite JSON number (not a bool), else None."""
    # NaN, the infinities and integers beyond the float range fail the range test
    if type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    return None


def _number(doc: dict, key: str, context: str) -> float:
    if key not in doc:
        raise ScenarioError(f"missing required field '{key}'", field=f"{context}{key}")
    number = _finite(doc[key])
    if number is None:
        raise ScenarioError(f"'{key}' must be a finite number", field=f"{context}{key}")
    return number


def _reject_unknown(doc: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ScenarioError(
            f"unknown field(s) {', '.join(repr(k) for k in unknown)}",
            field=f"{context}{unknown[0]}",
        )


def _parse_samples(samples_doc: Any) -> list[tuple[float, PlanarPoint]]:
    if not isinstance(samples_doc, list) or not samples_doc:
        raise ScenarioError("'samples' must be a non-empty list", field="samples")
    samples = []
    for i, entry in enumerate(samples_doc):
        ok = isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)
        numbers = [_finite(v) for v in [entry[0], *entry[1]]] if ok else []
        if len(numbers) != 3 or None in numbers:
            raise ScenarioError(
                f"sample #{i} must look like [t, [x, y]] with finite numbers",
                field=f"samples[{i}]",
            )
        samples.append((numbers[0], PlanarPoint(numbers[1], numbers[2])))
    return samples


def _parse_trajectory(doc: dict, samples_doc: Any) -> TargetTrajectory:
    """Build the kind ``doc["kind"]`` names from its fields.

    A piecewise-linear target's ``samples`` live at the top level of the
    scenario; every other field sits in the trajectory object.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("'trajectory' must be an object", field="trajectory")
    kind = doc.get("kind")
    cls = TRAJECTORY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ScenarioError(
            f"unknown trajectory kind {kind!r} (expected one of "
            f"{sorted(TRAJECTORY_KINDS)})",
            field="trajectory.kind",
        )
    names = [f.name for f in fields(cls) if f.init]
    _reject_unknown(doc, {"kind", *names} - {"samples"}, "trajectory.")
    if ("samples" in names) != (samples_doc is not None):
        needed = "required" if samples_doc is None else "not valid"
        raise ScenarioError(f"'samples' is {needed} for {cls.kind} trajectories", field="samples")
    values = {}
    for f in fields(cls):
        if f.name == "samples":
            values["samples"] = _parse_samples(samples_doc)
        elif f.init and (f.name in doc or f.default is MISSING):
            values[f.name] = _number(doc, f.name, "trajectory.")
    try:
        return cls(**values)
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
    ell = _number(capture_doc, "ell", "capture.")
    epsilon = _number(capture_doc, "epsilon", "capture.")
    try:
        capture = CaptureSpec(ell, epsilon)
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
    if TRAJECTORY_KINDS.get(traj.kind) is not type(traj):
        raise ValueError(f"{traj.kind} trajectories cannot be serialized")
    values = traj.scenario_fields()
    samples = values.pop("samples", None)
    doc: dict[str, Any] = {"plant": scenario.plant, "trajectory": {"kind": traj.kind, **values}}
    if samples is not None:
        doc["samples"] = [[t, [p.x, p.y]] for t, p in samples]
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
