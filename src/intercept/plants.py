"""Plant models: the reachable-set distance contract and simple motions.

A plant is represented purely by the distance from a query point to its
time-t reachable positions; it may override the estimator step, path
reconstruction, and the drawing of its reachable set and of its paths. Both
built-in plants move with unit maximum speed.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, NamedTuple

from .core import ORIGIN, PlanarPoint

ARC = "arc"
STRAIGHT = "straight"
WAIT = "wait"

LEFT = "left"
RIGHT = "right"


class _Segment(NamedTuple):
    kind: str
    duration: float
    direction: str | None = None


class PathSegment(_Segment):
    """One motion primitive: a unit-circle arc, a straight run, or idling."""

    __slots__ = ()

    def __new__(cls, kind: str, duration: float, direction: str | None = None) -> PathSegment:
        if kind not in (ARC, STRAIGHT, WAIT):
            raise ValueError(f"unknown segment kind {kind!r}")
        if not 0.0 <= duration < math.inf:
            need = ">= 0" if duration < 0 else "finite"  # NaN and inf are not finite
            raise ValueError(f"segment duration must be {need}, got {duration}")
        if kind == ARC and direction not in (LEFT, RIGHT):
            raise ValueError(f"arc direction must be left or right, got {direction!r}")
        return tuple.__new__(cls, (kind, duration, direction))

    @classmethod
    def _make(cls, values: Iterable) -> PathSegment:  # so that _replace checks too
        return cls(*values)


def sample_segments(segments: Iterable[PathSegment], heading: float) -> list[PlanarPoint]:
    """Points along segments driven from the origin at ``heading``, for drawing: each
    straight run's end, and a point every <= 0.05 rad of each arc's unit turning circle."""
    x, y = 0.0, 0.0
    points = [PlanarPoint(x, y)]
    for seg in segments:
        if seg.kind == WAIT or seg.duration == 0.0:
            continue
        if seg.kind == STRAIGHT:
            x += seg.duration * math.cos(heading)
            y += seg.duration * math.sin(heading)
            points.append(PlanarPoint(x, y))
            continue
        sign = 1.0 if seg.direction == LEFT else -1.0
        steps = max(1, math.ceil(seg.duration / 0.05))
        # unit turning circle, center one unit to the turning side
        cx = x + math.cos(heading + sign * math.pi / 2)
        cy = y + math.sin(heading + sign * math.pi / 2)
        start_angle = heading - sign * math.pi / 2
        for i in range(1, steps + 1):
            a = start_angle + sign * seg.duration * i / steps
            points.append(PlanarPoint(cx + math.cos(a), cy + math.sin(a)))
        x, y = points[-1]
        heading += sign * seg.duration
    return points


def arc(direction: str, duration: float) -> PathSegment:
    return PathSegment(ARC, duration, direction)


def straight(duration: float) -> PathSegment:
    return PathSegment(STRAIGHT, duration)


def wait(duration: float) -> PathSegment:
    return PathSegment(WAIT, duration)


class InterceptionPath(NamedTuple):
    """A reconstructed minimum-time path, ending at ``endpoint``."""

    segments: tuple[PathSegment, ...]
    endpoint: PlanarPoint


class PlantModel(abc.ABC):
    """Contract every plant satisfies.

    ``distance(t, y)`` is nonnegative, zero exactly on the reachable set,
    and 1-Lipschitz in each argument separately.
    """

    name: str = "plant"

    @abc.abstractmethod
    def distance(self, t: float, y: PlanarPoint) -> float:
        """Euclidean distance from y to the set of positions reachable at time t."""

    def best_step(self, t: float, y: PlanarPoint, rho: float, v: float, ell: float) -> float:
        """Largest safe estimator step from (t, y), given rho = distance(t, y) >= ell.

        Finds the smallest s >= t with distance(s, y) = v*(s - t) + ell by the
        safe-step iteration applied to the frozen point y against an
        inflating capture margin, until the inner step drops below
        1e-15*(1 + s) or the distance at s is not finite. Plants with a
        closed form override this.
        """
        s = t
        gap = rho - ell
        for _ in range(1_000_000):
            step = gap / (1.0 + v)
            s += step
            if step <= 1e-15 * (1.0 + s):
                return s
            gap = self.distance(s, y) - v * (s - t) - ell
            if gap <= 0.0 or not math.isfinite(gap):
                return s
        return s  # still a valid lower bound

    def reachable_boundary(self, t: float) -> float | list[PlanarPoint]:
        """Boundary of the positions reachable at time t > 0, for drawing.

        Either the radius of a disk centered at the origin, or a closed
        polyline (its last point repeats its first).
        """
        raise NotImplementedError(f"{self.name} cannot draw its reachable set")

    def path(
        self, t_star: float, y_target: PlanarPoint, ell: float, reach: float
    ) -> InterceptionPath:
        """Duration-t_star path that ends at a reachable point near y_target.

        Outside the time-t_star reachable set (every point ``solve`` passes), the end is at
        most ``max(ell, distance(t_star, y_target))`` from y_target. Raises ValueError unless
        y_target is within ``reach`` of the set; ``solve`` passes its stopping distance.
        """
        raise NotImplementedError(f"{self.name} has no path reconstruction")

    def sample_path(self, path: InterceptionPath) -> list[PlanarPoint]:
        """Points along a path from ``self.path``, starting at the origin, for drawing."""
        raise NotImplementedError(f"{self.name} cannot draw its paths")


# --- simple motions: velocity bounded by 1 in any direction -----------------


def simple_distance(t: float, y: PlanarPoint) -> float:
    """Distance from y to the disk of radius t centered at the origin."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    r = y.norm()
    if not r < math.inf:  # a NaN or an infinity in y
        raise ValueError(f"point must be finite, got {y}")
    return max(r - t, 0.0)


class SimpleMotions(PlantModel):
    """Plant that can move one unit of distance per unit time in any direction."""

    name = "simple"

    def distance(self, t: float, y: PlanarPoint) -> float:
        return simple_distance(t, y)

    def best_step(self, t: float, y: PlanarPoint, rho: float, v: float, ell: float) -> float:
        """Largest safe step toward the capture time; exact for this plant."""
        if not 0.0 <= t < math.inf:
            raise ValueError(f"time must be finite and >= 0, got {t}")
        # (|y| + v*t - ell)/(1 + v) reads |y| directly; the same step written
        # through rho would round differently
        r = y.norm()
        if not r < math.inf:  # a NaN or an infinity in y
            raise ValueError(f"point must be finite, got {y}")
        if r > t + ell:
            return (r + v * t - ell) / (1.0 + v)
        return t

    def reachable_boundary(self, t: float) -> float:
        if not 0.0 < t < math.inf:
            raise ValueError(f"time must be finite and > 0, got {t}")
        return t

    def path(
        self, t_star: float, y_target: PlanarPoint, ell: float, reach: float
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

    def sample_path(self, path: InterceptionPath) -> list[PlanarPoint]:
        """The origin and the end of the straight run toward ``path.endpoint``."""
        end = path.endpoint
        return sample_segments(path.segments, 0.0 if end == ORIGIN else math.atan2(end.y, end.x))


SIMPLE_MOTIONS = SimpleMotions()
PLANT_NAMES = ("simple", "dubins")


def get_plant(name: str) -> PlantModel:
    """Look up a built-in plant by its identifier, one of ``PLANT_NAMES``."""
    if name == "simple":
        return SIMPLE_MOTIONS
    if name == "dubins":
        from .dubins import DUBINS_CAR

        return DUBINS_CAR
    raise ValueError(f"unknown plant {name!r}")
