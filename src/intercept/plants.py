"""Plant models: the reachable-set distance contract and simple motions.

A plant is represented purely by the distance from a query point to its
time-t reachable positions and a membership test; it may override the
estimator step, boundary sampling and path reconstruction. Both built-in
plants move with unit maximum speed.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

from .core import ORIGIN, PlanarPoint

ARC = "arc"
STRAIGHT = "straight"
WAIT = "wait"

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class PathSegment:
    """One motion primitive: a unit-circle arc, a straight run, or idling."""

    kind: str
    duration: float
    direction: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (ARC, STRAIGHT, WAIT):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.duration < 0:
            raise ValueError(f"segment duration must be >= 0, got {self.duration}")
        if self.kind == ARC and self.direction not in (LEFT, RIGHT):
            raise ValueError(f"arc direction must be left or right, got {self.direction!r}")


def arc(direction: str, duration: float) -> PathSegment:
    return PathSegment(ARC, duration, direction)


def straight(duration: float) -> PathSegment:
    return PathSegment(STRAIGHT, duration)


def wait(duration: float) -> PathSegment:
    return PathSegment(WAIT, duration)


@dataclass(frozen=True)
class InterceptionPath:
    """A reconstructed minimum-time path, ending at ``endpoint``."""

    segments: tuple[PathSegment, ...]
    endpoint: PlanarPoint

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)


class PlantModel(abc.ABC):
    """Contract every plant satisfies.

    ``distance(t, y)`` is nonnegative, zero exactly on the reachable set,
    and 1-Lipschitz in each argument separately.
    """

    name: str = "plant"

    @abc.abstractmethod
    def distance(self, t: float, y: PlanarPoint) -> float:
        """Euclidean distance from y to the set of positions reachable at time t."""

    @abc.abstractmethod
    def contains(self, t: float, y: PlanarPoint) -> bool:
        """Whether y is reachable at exactly time t."""

    def best_step(self, t: float, y: PlanarPoint, rho: float, v: float, ell: float) -> float:
        """Largest safe estimator step from (t, y), given rho = distance(t, y) >= ell.

        Finds the smallest s >= t with distance(s, y) = v*(s - t) + ell by the
        safe-step iteration applied to the frozen point y against an
        inflating capture margin, until the inner step drops below
        1e-15*(1 + s). Plants with a closed form override this.
        """
        s = t
        gap = rho - ell
        for _ in range(1_000_000):
            step = gap / (1.0 + v)
            s += step
            if step <= 1e-15 * (1.0 + s):
                return s
            gap = self.distance(s, y) - v * (s - t) - ell
            if gap <= 0.0:
                return s
        return s  # still a valid lower bound

    def boundary_points(self, t: float, n: int) -> list[PlanarPoint]:
        raise NotImplementedError(f"{self.name} has no boundary sampler")

    def path(
        self, t_star: float, y_target: PlanarPoint, ell: float, reach: float
    ) -> InterceptionPath:
        """Duration-t_star path that ends at a reachable point near y_target.

        The end is at most ``max(ell, distance(t_star, y_target))`` from
        y_target. Raises ValueError unless y_target is within ``reach`` of the
        time-t_star reachable set; ``solve`` passes its stopping distance.
        """
        raise NotImplementedError(f"{self.name} has no path reconstruction")

    def path_initial_heading(self, path: InterceptionPath) -> float:
        """Heading at the start of a reconstructed path, for flattening."""
        raise NotImplementedError

    def sample_path(self, path: InterceptionPath, max_arc_step: float = 0.05) -> list[PlanarPoint]:
        """Flatten a path into points; arcs are subdivided at <= max_arc_step rad."""
        x, y = 0.0, 0.0
        heading = self.path_initial_heading(path)
        points = [PlanarPoint(x, y)]
        for seg in path.segments:
            if seg.kind == WAIT or seg.duration == 0.0:
                continue
            if seg.kind == STRAIGHT:
                x += seg.duration * math.cos(heading)
                y += seg.duration * math.sin(heading)
                points.append(PlanarPoint(x, y))
                continue
            sign = 1.0 if seg.direction == LEFT else -1.0
            steps = max(1, math.ceil(seg.duration / max_arc_step))
            # unit turning circle, center one unit to the turning side
            cx = x + math.cos(heading + sign * math.pi / 2)
            cy = y + math.sin(heading + sign * math.pi / 2)
            start_angle = heading - sign * math.pi / 2
            for i in range(1, steps + 1):
                a = start_angle + sign * seg.duration * i / steps
                points.append(PlanarPoint(cx + math.cos(a), cy + math.sin(a)))
            x, y = points[-1].x, points[-1].y
            heading += sign * seg.duration
        return points


# --- simple motions: velocity bounded by 1 in any direction -----------------


def simple_distance(t: float, y: PlanarPoint) -> float:
    """Distance from y to the disk of radius t centered at the origin."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return max(y.norm() - t, 0.0)


def simple_contains(t: float, y: PlanarPoint) -> bool:
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return y.norm() <= t


def simple_best_estimator(t: float, y: PlanarPoint, v: float, ell: float) -> float:
    """Largest safe step toward the capture time; exact for this plant."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    r = y.norm()
    if r > t + ell:
        return (r + v * t - ell) / (1.0 + v)
    return t


def simple_path(
    t_star: float, y_target: PlanarPoint, ell: float, reach: float
) -> InterceptionPath:
    """Straight run toward the target point, idling once within ell of it.

    The target must be within ``reach`` of the disk of radius t_star.
    """
    if simple_distance(t_star, y_target) > reach:
        raise ValueError("target point is not capturable at the requested time")
    r = y_target.norm()
    run = min(max(r - ell, 0.0), t_star)
    if r > 0:
        endpoint = y_target.scaled(run / r)
    else:
        endpoint = PlanarPoint(run, 0.0)  # direction convention for a target at 0
    segments = [straight(run)]
    if t_star - run > 0:
        segments.append(wait(t_star - run))
    return InterceptionPath(tuple(segments), endpoint)


class SimpleMotions(PlantModel):
    """Plant that can move one unit of distance per unit time in any direction."""

    name = "simple"

    def distance(self, t: float, y: PlanarPoint) -> float:
        return simple_distance(t, y)

    def contains(self, t: float, y: PlanarPoint) -> bool:
        return simple_contains(t, y)

    def best_step(self, t: float, y: PlanarPoint, rho: float, v: float, ell: float) -> float:
        # (|y| + v*t - ell)/(1 + v) reads |y| directly; the same step written
        # through rho would round differently
        return simple_best_estimator(t, y, v, ell)

    def boundary_points(self, t: float, n: int) -> list[PlanarPoint]:
        if t <= 0:
            raise ValueError(f"time must be > 0, got {t}")
        return [
            PlanarPoint(t * math.cos(2 * math.pi * i / n), t * math.sin(2 * math.pi * i / n))
            for i in range(n)
        ]

    def path(
        self, t_star: float, y_target: PlanarPoint, ell: float, reach: float
    ) -> InterceptionPath:
        return simple_path(t_star, y_target, ell, reach)

    def path_initial_heading(self, path: InterceptionPath) -> float:
        if path.endpoint == ORIGIN:
            return 0.0
        return math.atan2(path.endpoint.y, path.endpoint.x)


SIMPLE_MOTIONS = SimpleMotions()


def get_plant(name: str) -> PlantModel:
    """Look up a built-in plant by its identifier."""
    if name == "simple":
        return SIMPLE_MOTIONS
    if name == "dubins":
        from .dubins import DUBINS_CAR

        return DUBINS_CAR
    raise ValueError(f"unknown plant {name!r}")
