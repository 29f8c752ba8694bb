"""Scenario and result documents (JSON).

A scenario pins down one solvable problem: plant, target trajectory,
capture spec, estimator choice and scan horizon. Parsing is strict -
unknown fields and malformed values are rejected with the offending field
named. Numbers survive a parse/emit round trip bit-exactly (they are
written with the shortest decimal form that reparses to the same double).
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, NamedTuple

from .core import (
    CaptureSpec,
    LineTrajectory,
    LissajousTrajectory,
    PiecewiseLinearTrajectory,
    PlanarPoint,
    SolveTrace,
    TargetTrajectory,
)
from .plants import ARC, PLANT_NAMES, InterceptionPath, PathSegment
from .solver import EstimatorKind, SolveResult, SolveStatus

DEFAULT_HORIZON = 50.0
_MAX = sys.float_info.max

TRAJECTORY_KINDS = {
    cls.kind: cls for cls in (LineTrajectory, LissajousTrajectory, PiecewiseLinearTrajectory)
}


class ScenarioError(ValueError):
    """Scenario document is malformed; ``field`` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{message} (field '{field}')")


class Scenario(NamedTuple):
    plant: str
    trajectory: TargetTrajectory
    capture: CaptureSpec
    estimator: EstimatorKind
    horizon: float


def _number(doc: dict, key: str, context: str) -> float:
    if key not in doc:
        raise ScenarioError(f"missing required field '{key}'", field=f"{context}{key}")
    value = doc[key]
    # NaN, the infinities and integers beyond the float range fail the range test
    if type(value) not in (int, float) or not -_MAX <= value <= _MAX:
        raise ScenarioError(f"'{key}' must be a finite number", field=f"{context}{key}")
    return float(value)


def _reject_unknown(doc: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ScenarioError(
            f"unknown field(s) {', '.join(repr(k) for k in unknown)}",
            field=f"{context}{unknown[0]}",
        )


def _parse_samples(samples_doc: Any) -> list[list[float]]:
    """The ``times``, ``xs`` and ``ys`` columns of a track's samples.

    A valid track takes one pass: one loop fills the columns, and one type
    set and the column sums check them whole. Only where that fails does a
    second loop check sample by sample, to name the first bad one.
    """
    if not isinstance(samples_doc, list) or not samples_doc:
        raise ScenarioError("'samples' must be a non-empty list", field="samples")
    columns = times, xs, ys = [], [], []
    try:
        for t, (x, y) in samples_doc:
            times.append(t)
            xs.append(x)
            ys.append(y)
        kinds = {*map(type, times), *map(type, xs), *map(type, ys)}  # no bool, str or None
        # NaN and the infinities make a sum NaN or infinite. Ints are compared
        # exactly: huge ones of opposite signs cancel in a sum, and ``float``
        # rounds one just past the range to the largest float.
        if kinds <= {float, int} and math.isfinite(sum(map(sum, columns))) and (
            int not in kinds or max(max(map(abs, c)) for c in columns) <= _MAX
        ):
            return columns
    except (TypeError, ValueError, OverflowError):
        pass  # a malformed entry, or a sum past the float range
    # a bad sample, or finite ones whose sum overflows
    columns = times, xs, ys = [], [], []
    for i, entry in enumerate(samples_doc):
        try:
            t, (x, y) = entry
        except (TypeError, ValueError):
            t = x = y = None
        numbers = type(t) in (float, int) and type(x) in (float, int) and type(y) in (float, int)
        if not (numbers and -_MAX <= t <= _MAX and -_MAX <= x <= _MAX and -_MAX <= y <= _MAX):
            raise ScenarioError(
                f"sample #{i} must look like [t, [x, y]] with finite numbers",
                field=f"samples[{i}]",
            )
        times.append(t)
        xs.append(x)
        ys.append(y)
    return columns


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
    # a track's only fields are its sample columns, the top-level ``samples``
    track = cls is PiecewiseLinearTrajectory
    numbers = () if track else cls._fields
    _reject_unknown(doc, {"kind", *numbers}, "trajectory.")
    if track != (samples_doc is not None):
        needed = "required" if samples_doc is None else "not valid"
        raise ScenarioError(f"'samples' is {needed} for {cls.kind} trajectories", field="samples")
    columns = _parse_samples(samples_doc) if track else ()
    given = [name for name in numbers if name in doc or name not in cls._field_defaults]
    values = {name: _number(doc, name, "trajectory.") for name in given}
    try:
        return cls(*columns, **values)
    except ValueError as exc:
        raise ScenarioError(str(exc), field="samples" if track else "trajectory") from exc


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
    track = isinstance(traj, PiecewiseLinearTrajectory)
    values = {} if track else traj.scenario_fields()
    doc: dict[str, Any] = {"plant": scenario.plant, "trajectory": {"kind": traj.kind, **values}}
    if track:
        doc["samples"] = [[t, [x, y]] for t, x, y in zip(traj.times, traj.xs, traj.ys)]
    doc["capture"] = {"ell": scenario.capture.ell, "epsilon": scenario.capture.epsilon}
    doc["estimator"] = scenario.estimator.value
    doc["horizon"] = scenario.horizon
    return doc


def emit_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, allow_nan=False) + "\n"


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
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


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
