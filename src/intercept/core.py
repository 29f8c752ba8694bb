"""Planar geometry primitives and target-trajectory models.

A target trajectory is any map t -> R^2 together with a declared speed
bound v; the solver only ever uses the bound, never the functional form,
so every trajectory kind below is interchangeable from its point of view.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Iterable, NamedTuple


class PlanarPoint(NamedTuple):
    """A point of the plane with the Euclidean norm; an immutable (x, y) tuple."""

    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

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
    """Reject a speed v or speed bound outside [0, inf), NaN too; store numbers as floats."""
    for name, value in (("target speed", traj.v), ("speed bound", traj.speed_bound)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
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
    # cos(phi) and sin(phi), computed once; not scenario fields
    _cos: float = field(init=False, repr=False, compare=False)
    _sin: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_speed(self)
        object.__setattr__(self, "_cos", math.cos(self.phi))
        object.__setattr__(self, "_sin", math.sin(self.phi))

    @property
    def speed_bound(self) -> float:
        return self.v

    def _at(self, t: float) -> PlanarPoint:
        return PlanarPoint(self.xi + self.v * t * self._cos, self.eta + self.v * t * self._sin)


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
    # the amplitudes v/omega_x and v/omega_y, computed once; not scenario fields
    _ax: float = field(init=False, repr=False, compare=False)
    _ay: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.omega_x > 0 and self.omega_y > 0):  # NaN fails too
            raise ValueError(f"frequencies must be > 0, got {self.omega_x}, {self.omega_y}")
        if self.speed_bound is None:
            object.__setattr__(self, "speed_bound", self.v)
        _check_speed(self)
        object.__setattr__(self, "_ax", self.v / self.omega_x)
        object.__setattr__(self, "_ay", self.v / self.omega_y)

    def scenario_fields(self) -> dict[str, Any]:
        doc = super().scenario_fields()
        if self.speed_bound == self.v:
            del doc["speed_bound"]  # the default
        return doc

    def _at(self, t: float) -> PlanarPoint:
        return PlanarPoint(
            self.xi + self._ax * math.sin(self.omega_x * t),
            self.eta + self._ay * math.sin(self.omega_y * t),
        )


@dataclass(frozen=True)
class PiecewiseLinearTrajectory(TargetTrajectory):
    """Linear interpolation through time-stamped points, constant after the last.

    The sample columns are ``times`` (from t = 0, strictly increasing), ``xs``
    and ``ys``. The speed bound is the maximum segment speed (0 for one sample).
    """

    kind = "piecewise_linear"
    times: tuple[float, ...]
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    speed_bound: float = field(init=False)

    def __post_init__(self) -> None:
        columns = times, xs, ys = [tuple(map(float, c)) for c in (self.times, self.xs, self.ys)]
        if not len(times) == len(xs) == len(ys):
            raise ValueError(f"sample columns differ in length: {[len(c) for c in columns]}")
        if len(times) == 0:
            raise ValueError("at least one sample is required")
        if times[0] != 0.0:
            raise ValueError(f"sample #0 must be at t = 0, got t = {times[0]}")
        speeds = [0.0]
        segments = zip(times, times[1:], xs, xs[1:], ys, ys[1:])
        for i, (t0, t1, x0, x1, y0, y1) in enumerate(segments, start=1):
            if not t1 > t0:
                raise ValueError(
                    f"sample times must be strictly increasing: sample #{i} is at "
                    f"t = {t1}, after t = {t0}"
                )
            speeds.append(math.hypot(x1 - x0, y1 - y0) / (t1 - t0))
        if math.isnan(sum(speeds)):  # speeds are >= 0: NaN only where one of them is
            i = next(i for i, speed in enumerate(speeds) if math.isnan(speed))
            raise ValueError(f"the speed from sample #{i - 1} to sample #{i} is NaN")
        if (bound := max(speeds)) == math.inf:  # a jump whose length or speed overflows
            i = speeds.index(bound)
            raise ValueError(f"the speed from sample #{i - 1} to sample #{i} is infinite")
        for name, value in zip(("times", "xs", "ys", "speed_bound"), (*columns, bound)):
            object.__setattr__(self, name, value)

    def _at(self, t: float) -> PlanarPoint:
        times, xs, ys = self.times, self.xs, self.ys
        if not times[0] < t < times[-1]:
            i = 0 if t <= times[0] else -1  # the target stops after the last sample
            return PlanarPoint(xs[i], ys[i])
        i = bisect_right(times, t)
        t0, x0, y0 = times[i - 1], xs[i - 1], ys[i - 1]
        w = (t - t0) / (times[i] - t0)
        return PlanarPoint(x0 + w * (xs[i] - x0), y0 + w * (ys[i] - y0))


@dataclass(frozen=True)
class CustomTrajectory(TargetTrajectory):
    """An arbitrary pure function t -> point with a caller-declared bound."""

    kind = "custom"
    fn: Callable[[float], PlanarPoint]
    speed_bound: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.speed_bound < math.inf:  # NaN fails too
            raise ValueError(f"speed bound must be finite and >= 0, got {self.speed_bound}")

    def _at(self, t: float) -> PlanarPoint:
        return self.fn(t)


make_line_trajectory = LineTrajectory
make_lissajous_trajectory = LissajousTrajectory
make_custom_trajectory = CustomTrajectory


def make_piecewise_linear_trajectory(samples: Iterable) -> PiecewiseLinearTrajectory:
    """The piecewise-linear target through ``(t, PlanarPoint)`` samples."""
    pairs = list(samples)
    times, points = [t for t, _ in pairs], [p for _, p in pairs]
    return PiecewiseLinearTrajectory(times, [p.x for p in points], [p.y for p in points])


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
