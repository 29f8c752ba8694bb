"""Fixed-point computation of the minimum interception time.

The capture time is the smallest root of g(t) = distance(t, target(t)) - ell.
Because g is (1 + v)-Lipschitz, the step (g / (1 + v)) can never jump over
the root, so the iteration t <- t + step converges to it monotonically from
below for every target path within the declared speed bound. One loop,
``_iterates``, runs it; ``solve`` and ``refine_iterates`` are two stop rules.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from typing import Iterator, NamedTuple

from .core import CaptureSpec, PlanarPoint, SolveTrace, TargetTrajectory, _check_nonnegative
from .plants import InterceptionPath, PlantModel


class ConvergenceError(RuntimeError):
    """Raised when an iteration cap is exhausted or an iterate leaves the float range."""


class EstimatorKind(enum.Enum):
    SIMPLE = "simple"
    BEST = "best"


class SolveStatus(enum.Enum):
    """Why the fixed-point loop stopped."""

    INTERCEPTED = "intercepted"
    UNREACHABLE = "unreachable"
    BUDGET = "budget"
    HORIZON = "horizon"


# stopping distance when ell = 0, where the relative threshold degenerates
EPSILON_ABS = 1e-9


class SolveResult(NamedTuple):
    status: SolveStatus
    t_star: float
    trace: SolveTrace
    path: InterceptionPath | None


def simple_estimator(
    plant: PlantModel, t: float, y: PlanarPoint, rho: float, v: float, ell: float
) -> float:
    """Distance-closing step: plant and target approach at combined speed 1 + v.

    ``rho`` is ``plant.distance(t, y)``, which the caller has already
    evaluated. The signature matches ``best_estimator`` so either can drive
    the same loop.
    """
    if rho > ell:
        return t + (rho - ell) / (1.0 + v)
    return t


def best_estimator(
    plant: PlantModel, t: float, y: PlanarPoint, rho: float, v: float, ell: float
) -> float:
    """Largest step that cannot overshoot the capture time of any valid target.

    ``rho`` is ``plant.distance(t, y)``, which the caller has already
    evaluated. The step is ``plant.best_step``: a closed form on both
    built-in plants, the generic iterative search of ``PlantModel`` otherwise.
    """
    if rho < ell:
        raise ValueError("estimator requires the point to be at least ell away")
    if rho == ell:
        return t
    return plant.best_step(t, y, rho, v, ell)


def _speed_bound(trajectory: TargetTrajectory) -> float:
    """The declared bound v: every step divides by 1 + v, safe only for 0 <= v < inf."""
    v = trajectory.speed_bound
    _check_nonnegative("trajectory speed bound", v)
    return v


def _iterates(plant, trajectory, ell, reach, step, max_steps):
    """Yield ``(t, y, rho, t_next)`` from t = 0; t_next is evaluated only when resumed.

    ``t_next`` is None once ``rho <= reach`` or after ``max_steps`` steps. Stops
    after the first non-finite step, target position or distance.
    """
    v = _speed_bound(trajectory)
    t = 0.0
    for n in itertools.count():
        y = trajectory.position(t)
        # a target that outruns the plant drives t, then its position, then
        # the distance to infinity or NaN: no capture, and no such iterate
        if not (math.isfinite(y.x) and math.isfinite(y.y)):
            if t == 0.0:
                raise ValueError(f"target position at t = 0 must be finite, got {y}")
            return
        rho = plant.distance(t, y)
        if not math.isfinite(rho):
            if t == 0.0:
                raise ValueError(f"plant distance at t = 0 must be finite, got {rho}")
            return
        t_next = step(plant, t, y, rho, v, ell) if rho > reach and n < max_steps else None
        yield t, y, rho, t_next
        if t_next is None or not math.isfinite(t_next):
            return
        t = t_next


def solve(
    plant: PlantModel,
    trajectory: TargetTrajectory,
    capture: CaptureSpec,
    estimator: EstimatorKind = EstimatorKind.BEST,
    max_iterations: int = 10_000,
    horizon: float = math.inf,
) -> SolveResult:
    """Iterate the chosen estimator from t = 0 until the target is captured.

    Stops when distance <= ell*(1 + epsilon), after ``max_iterations`` steps
    (status ``BUDGET``), before evaluating a time past ``horizon`` (status
    ``HORIZON``: every iterate is a lower bound on the capture time, so none
    exists up to the horizon, and ``t_star`` is that first iterate past it,
    or the largest float if the step overflowed), or when the step stays
    below 1e-15*(1 + t) for ten consecutive iterations (status
    ``UNREACHABLE`` - a heuristic, since an infinite capture time cannot be
    certified in finite time). A step to a non-finite time (unless +inf
    passes a finite horizon), target position or distance also ends the solve
    as ``UNREACHABLE``, at the last finite iterate; a speed bound outside [0, inf),
    a horizon that is not > 0, ``max_iterations < 0``, or a non-finite target
    position or distance at t = 0 raises ValueError. For
    ell = 0 the relative threshold degenerates, so ``EPSILON_ABS`` is used
    instead. An intercepted result carries the plant's path, or None if the
    plant builds none.
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be at least 0, got {max_iterations}")
    ell = capture.ell
    threshold = ell * (1.0 + capture.epsilon) if ell > 0 else EPSILON_ABS
    step = simple_estimator if estimator is EstimatorKind.SIMPLE else best_estimator

    iterates = []
    underflow_run = 0
    status = SolveStatus.UNREACHABLE
    for t, y, rho, t_next in _iterates(plant, trajectory, ell, threshold, step, max_iterations):
        iterates.append((t, rho))
        if underflow_run >= 10:
            break
        if t_next is None:
            status = SolveStatus.INTERCEPTED if rho <= threshold else SolveStatus.BUDGET
            break
        if t_next > horizon:
            # not evaluated, but a proven lower bound on the capture time
            status, t = SolveStatus.HORIZON, min(t_next, sys.float_info.max)
            break
        underflow_run = underflow_run + 1 if t_next - t < 1e-15 * (1.0 + t_next) else 0

    path = None
    if status is SolveStatus.INTERCEPTED:
        try:
            path = plant.path(t, y, ell, threshold)
        except NotImplementedError:
            pass
    return SolveResult(status, t, SolveTrace(tuple(iterates)), path)


def refine_iterates(
    plant: PlantModel,
    trajectory: TargetTrajectory,
    ell: float,
    *,
    max_iterations: int = 10_000_000,
) -> Iterator[float]:
    """Yield the iterate times t_0 = 0, t_1, ... of the best step until it underflows.

    Replaces the relative stopping rule with a step-size tolerance of
    ``1e-14 * (1 + t)`` so the last time is accurate to near machine
    precision for transversal approaches; it is the reference capture time,
    yielded unevaluated. Raises ValueError as ``solve`` does, for a capture
    radius outside [0, inf) or if ``max_iterations < 1``, and ConvergenceError
    after ``max_iterations`` steps or on a later non-finite step, target
    position or distance.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    _check_nonnegative("capture radius", ell)
    iterates = _iterates(plant, trajectory, ell, ell, best_estimator, max_iterations)
    for n, (t, _, _, t_next) in enumerate(iterates):
        if n == 0:
            yield t
        if t_next is None:
            return
        # inf - t <= 1e-14 * (1 + inf) holds: an infinite step would pass as converged
        if not math.isfinite(t_next):
            raise ConvergenceError(f"the step after t = {t} is not finite (t_next = {t_next})")
        yield t_next
        if t_next - t <= 1e-14 * (1.0 + t_next):
            return
        # before resuming, so the budget's last time is yielded but not evaluated
        if n + 1 >= max_iterations:
            raise ConvergenceError(f"no convergence within {max_iterations} iterations")
    raise ConvergenceError(f"the target position or distance at t = {t_next} is not finite")


def refine_ground_truth(
    plant: PlantModel,
    trajectory: TargetTrajectory,
    ell: float,
    *,
    max_iterations: int = 10_000_000,
) -> float:
    """Reference capture time: the last time ``refine_iterates`` yields."""
    for t in refine_iterates(plant, trajectory, ell, max_iterations=max_iterations):
        pass
    return t


def grid_oracle(
    plant: PlantModel,
    trajectory: TargetTrajectory,
    ell: float,
    horizon: float,
    resolution: float,
) -> float | None:
    """Brute-force first crossing of distance(t, target(t)) = ell.

    Scans from t = 0 with the Lipschitz-safe step max(resolution, g/(1+v)),
    which provably cannot skip a crossing by more than ``resolution``, then
    bisects the bracketing interval down to ``resolution``. Returns None if
    no crossing is found up to the horizon; checks the speed bound as ``solve``
    and the capture radius as ``CaptureSpec``.
    """
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    v = _speed_bound(trajectory)
    _check_nonnegative("capture radius", ell)

    def g(t: float) -> float:
        return plant.distance(t, trajectory.position(t)) - ell

    t = 0.0
    gt = g(t)
    if gt <= 0.0:
        return 0.0
    while t <= horizon:
        t_next = t + max(resolution, gt / (1.0 + v))
        g_next = g(t_next)
        if g_next <= 0.0:
            # bisect well below the requested width so the returned point
            # stays within `resolution` of the crossing with margin to spare
            lo, hi = t, t_next
            while hi - lo > 0.25 * resolution:
                mid = 0.5 * (lo + hi)
                if g(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            return hi
        t, gt = t_next, g_next
    return None
