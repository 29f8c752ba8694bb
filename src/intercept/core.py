"""Planar geometry primitives and target-trajectory models.

A target trajectory is any map t -> R^2 together with a declared speed
bound v; the solver only ever uses the bound, never the functional form,
so every trajectory kind below is interchangeable from its point of view.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import Any, Callable, ClassVar


@dataclass(frozen=True)
class PlanarPoint:
    """A point of the plane with the Euclidean norm."""

    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "PlanarPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def __add__(self, other: "PlanarPoint") -> "PlanarPoint":
        return PlanarPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlanarPoint") -> "PlanarPoint":
        return PlanarPoint(self.x - other.x, self.y - other.y)

    def scaled(self, factor: float) -> "PlanarPoint":
        return PlanarPoint(self.x * factor, self.y * factor)


ORIGIN = PlanarPoint(0.0, 0.0)


@dataclass(frozen=True)
class CaptureSpec:
    """Capture radius and relative stopping error of the solver loop."""

    ell: float
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ell < math.inf:
            raise ValueError(f"capture radius must be finite and >= 0, got {self.ell}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(
                f"relative stopping error must be finite and > 0, got {self.epsilon}"
            )


class TargetTrajectory:
    """Evaluatable target path with a declared Lipschitz speed bound.

    Each kind is a frozen dataclass below whose fields are its scenario
    fields; ``kind`` names it in scenario documents. ``position`` is a pure
    function of t, so repeated evaluation at the same time is bit-identical.
    """

    kind: ClassVar[str]
    speed_bound: float

    def position(self, t: float) -> PlanarPoint:
        # the one entry point for every kind; each kind implements ``_at(t)``
        return self._at(t)

    def scenario_fields(self) -> dict[str, Any]:
        """The fields a scenario document spells out, by name."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}


def _check_speed(traj: LineTrajectory | LissajousTrajectory) -> None:
    """Reject a negative speed parameter v and store every number as a float."""
    if traj.v < 0:
        raise ValueError(f"target speed must be >= 0, got {traj.v}")
    for name, value in vars(traj).items():
        if value is not None:
            object.__setattr__(traj, name, float(value))


@dataclass(frozen=True)
class LineTrajectory(TargetTrajectory):
    """Target moving with constant velocity v in direction phi from (xi, eta)."""

    kind = "line"
    xi: float
    eta: float
    phi: float
    v: float

    def __post_init__(self) -> None:
        _check_speed(self)

    @property
    def speed_bound(self) -> float:
        return self.v

    def _at(self, t: float) -> PlanarPoint:
        return PlanarPoint(
            self.xi + self.v * t * math.cos(self.phi),
            self.eta + self.v * t * math.sin(self.phi),
        )


@dataclass(frozen=True)
class LissajousTrajectory(TargetTrajectory):
    """Target oscillating on a Lissajous figure centered at (xi, eta).

    The speed bound defaults to the amplitude parameter v, which is what the
    reference benchmark rows use; the Euclidean speed of the curve can reach
    v*sqrt(2), so pass ``speed_bound=v * math.sqrt(2)`` for a rigorous bound.
    """

    kind = "lissajous"
    xi: float
    eta: float
    omega_x: float
    omega_y: float
    v: float
    speed_bound: float | None = None

    def __post_init__(self) -> None:
        if self.omega_x <= 0 or self.omega_y <= 0:
            raise ValueError(f"frequencies must be > 0, got {self.omega_x}, {self.omega_y}")
        _check_speed(self)
        if self.speed_bound is None:
            object.__setattr__(self, "speed_bound", self.v)

    def scenario_fields(self) -> dict[str, Any]:
        doc = super().scenario_fields()
        if self.speed_bound == self.v:
            del doc["speed_bound"]  # the default
        return doc

    def _at(self, t: float) -> PlanarPoint:
        return PlanarPoint(
            self.xi + self.v / self.omega_x * math.sin(self.omega_x * t),
            self.eta + self.v / self.omega_y * math.sin(self.omega_y * t),
        )


@dataclass(frozen=True)
class PiecewiseLinearTrajectory(TargetTrajectory):
    """Linear interpolation through time-stamped points, constant after the last.

    Sample times must be strictly increasing and start at t = 0. The speed
    bound is the maximum segment speed (0 for a single sample).
    """

    kind = "piecewise_linear"
    samples: tuple[tuple[float, PlanarPoint], ...]
    speed_bound: float = field(init=False)

    def __post_init__(self) -> None:
        samples = tuple((float(t), p) for t, p in self.samples)
        if len(samples) == 0:
            raise ValueError("at least one sample is required")
        if samples[0][0] != 0.0:
            raise ValueError(f"sample #0 must be at t = 0, got t = {samples[0][0]}")
        bound = 0.0
        for i, ((t0, p0), (t1, p1)) in enumerate(zip(samples, samples[1:]), start=1):
            if t1 <= t0:
                raise ValueError(
                    f"sample times must be strictly increasing: sample #{i} is at "
                    f"t = {t1}, after t = {t0}"
                )
            bound = max(bound, p1.distance_to(p0) / (t1 - t0))
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "speed_bound", bound)

    def _at(self, t: float) -> PlanarPoint:
        samples = self.samples
        if t <= samples[0][0]:
            return samples[0][1]
        if t >= samples[-1][0]:
            # target stops after the last sample
            return samples[-1][1]
        i = bisect_right(samples, t, key=itemgetter(0))
        t0, p0 = samples[i - 1]
        t1, p1 = samples[i]
        w = (t - t0) / (t1 - t0)
        return PlanarPoint(p0.x + w * (p1.x - p0.x), p0.y + w * (p1.y - p0.y))


@dataclass(frozen=True)
class CustomTrajectory(TargetTrajectory):
    """An arbitrary pure function t -> point with a caller-declared bound."""

    kind = "custom"
    fn: Callable[[float], PlanarPoint]
    speed_bound: float

    def __post_init__(self) -> None:
        if self.speed_bound < 0:
            raise ValueError(f"speed bound must be >= 0, got {self.speed_bound}")

    def _at(self, t: float) -> PlanarPoint:
        return self.fn(t)


make_line_trajectory = LineTrajectory
make_lissajous_trajectory = LissajousTrajectory
make_piecewise_linear_trajectory = PiecewiseLinearTrajectory
make_custom_trajectory = CustomTrajectory


@dataclass(frozen=True)
class SolveTrace:
    """The iterate sequence of one solve: pairs (t_n, distance at t_n)."""

    iterates: tuple[tuple[float, float], ...]

    @property
    def iteration_count(self) -> int:
        return len(self.iterates) - 1

    @property
    def final_distance(self) -> float:
        return self.iterates[-1][1]
