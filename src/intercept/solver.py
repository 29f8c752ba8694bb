"""Fixed-point computation of the minimum interception time.

The capture time is the smallest root of g(t) = distance(t, target(t)) - ell.
Because g is (1 + v)-Lipschitz, the step (g / (1 + v)) can never jump over
the root, so the iteration t <- t + step converges to it monotonically from
below for every target path within the declared speed bound.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

from .core import CaptureSpec, PlanarPoint, SolveTrace, TargetTrajectory
from .plants import InterceptionPath, PlantModel


class ConvergenceError(RuntimeError):
    """Raised when an iteration cap is exhausted before convergence."""


class EstimatorKind(enum.Enum):
    SIMPLE = "simple"
    BEST = "best"


class SolveStatus(enum.Enum):
    """Why the fixed-point loop stopped."""

    INTERCEPTED = "intercepted"
    UNREACHABLE = "unreachable"
    BUDGET = "budget"


# stopping distance when ell = 0, where the relative threshold degenerates
EPSILON_ABS = 1e-9


@dataclass(frozen=True)
class SolveResult:
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


def solve(
    plant: PlantModel,
    trajectory: TargetTrajectory,
    capture: CaptureSpec,
    estimator: EstimatorKind = EstimatorKind.BEST,
    max_iterations: int = 10_000,
) -> SolveResult:
    """Iterate the chosen estimator from t = 0 until the target is captured.

    Stops when distance <= ell*(1 + epsilon), after ``max_iterations`` steps
    (status ``BUDGET``), or when the step stays below 1e-15*(1 + t) for ten
    consecutive iterations (status ``UNREACHABLE`` - a heuristic, since an
    infinite capture time cannot be certified in finite time). For ell = 0
    the relative threshold degenerates, so ``EPSILON_ABS`` is used instead.
    An intercepted result carries the plant's path, or None if the plant
    does not reconstruct paths.
    """
    v = trajectory.speed_bound
    if not math.isfinite(v):
        raise ValueError("trajectory speed bound must be finite")
    ell = capture.ell
    threshold = ell * (1.0 + capture.epsilon) if ell > 0 else EPSILON_ABS

    step_fn = simple_estimator if estimator is EstimatorKind.SIMPLE else best_estimator

    t = 0.0
    y = trajectory.position(t)
    rho = plant.distance(t, y)
    iterates = [(t, rho)]
    underflow_run = 0
    status = SolveStatus.INTERCEPTED
    while rho > threshold:
        if len(iterates) - 1 >= max_iterations:
            status = SolveStatus.BUDGET
            break
        t_next = step_fn(plant, t, y, rho, v, ell)
        if t_next - t < 1e-15 * (1.0 + t_next):
            underflow_run += 1
        else:
            underflow_run = 0
        t = t_next
        y = trajectory.position(t)
        rho = plant.distance(t, y)
        iterates.append((t, rho))
        if underflow_run >= 10:
            status = SolveStatus.UNREACHABLE
            break

    path = None
    # a NaN distance also ends the loop as INTERCEPTED; it gets no path
    if status is SolveStatus.INTERCEPTED and rho <= threshold:
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
    precision for transversal approaches; it is the reference capture time.
    """
    v = trajectory.speed_bound
    t = 0.0
    yield t
    for _ in range(max_iterations):
        y = trajectory.position(t)
        rho = plant.distance(t, y)
        if rho <= ell:
            return
        t_next = best_estimator(plant, t, y, rho, v, ell)
        yield t_next
        if t_next - t <= 1e-14 * (1.0 + t_next):
            return
        t = t_next
    raise ConvergenceError(
        f"no convergence within {max_iterations} iterations (capture may be unreachable)"
    )


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
    no crossing is found up to the horizon.
    """
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    v = trajectory.speed_bound

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
