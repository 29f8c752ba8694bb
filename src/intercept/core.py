"""Planar geometry primitives and target-trajectory models.

A target trajectory is any map t -> R^2 together with a declared speed
bound v; the solver only ever uses the bound, never the functional form,
so every trajectory kind below is interchangeable from its point of view.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Sequence


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

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


ORIGIN = PlanarPoint(0.0, 0.0)


@dataclass(frozen=True)
class CaptureSpec:
    """Capture radius and relative stopping error of the solver loop."""

    ell: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (self.ell >= 0.0):
            raise ValueError(f"capture radius must be >= 0, got {self.ell}")
        if not (self.epsilon > 0.0):
            raise ValueError(f"relative stopping error must be > 0, got {self.epsilon}")


LINE = "line"
LISSAJOUS = "lissajous"
PIECEWISE_LINEAR = "piecewise_linear"
CUSTOM = "custom"


@dataclass(frozen=True)
class TargetTrajectory:
    """Evaluatable target path with a declared Lipschitz speed bound.

    Instances are immutable; ``position`` is a pure function of t, so
    repeated evaluation at the same time is bit-identical.
    """

    kind: str
    speed_bound: float
    params: dict = field(default_factory=dict)
    samples: tuple[tuple[float, PlanarPoint], ...] | None = None
    custom_fn: Callable[[float], PlanarPoint] | None = field(
        default=None, compare=False, repr=False
    )

    def position(self, t: float) -> PlanarPoint:
        if self.kind == LINE:
            p = self.params
            return PlanarPoint(
                p["xi"] + p["v"] * t * math.cos(p["phi"]),
                p["eta"] + p["v"] * t * math.sin(p["phi"]),
            )
        if self.kind == LISSAJOUS:
            p = self.params
            return PlanarPoint(
                p["xi"] + p["v"] / p["omega_x"] * math.sin(p["omega_x"] * t),
                p["eta"] + p["v"] / p["omega_y"] * math.sin(p["omega_y"] * t),
            )
        if self.kind == PIECEWISE_LINEAR:
            return self._interpolate(t)
        assert self.custom_fn is not None
        return self.custom_fn(t)

    def _interpolate(self, t: float) -> PlanarPoint:
        samples = self.samples
        assert samples is not None
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


def make_line_trajectory(xi: float, eta: float, phi: float, v: float) -> TargetTrajectory:
    """Target moving with constant velocity v in direction phi from (xi, eta)."""
    if v < 0:
        raise ValueError(f"target speed must be >= 0, got {v}")
    return TargetTrajectory(
        kind=LINE,
        speed_bound=v,
        params={"xi": float(xi), "eta": float(eta), "phi": float(phi), "v": float(v)},
    )


def make_lissajous_trajectory(
    xi: float,
    eta: float,
    omega_x: float,
    omega_y: float,
    v: float,
    speed_bound: float | None = None,
) -> TargetTrajectory:
    """Target oscillating on a Lissajous figure centered at (xi, eta).

    The default speed bound is the amplitude parameter v, which is what the
    reference benchmark rows use; the Euclidean speed of the curve can reach
    v*sqrt(2), so pass ``speed_bound=v * math.sqrt(2)`` for a rigorous bound.
    """
    if omega_x <= 0 or omega_y <= 0:
        raise ValueError(f"frequencies must be > 0, got {omega_x}, {omega_y}")
    if v < 0:
        raise ValueError(f"target speed must be >= 0, got {v}")
    params = {
        "xi": float(xi),
        "eta": float(eta),
        "omega_x": float(omega_x),
        "omega_y": float(omega_y),
        "v": float(v),
    }
    bound = float(v) if speed_bound is None else float(speed_bound)
    if speed_bound is not None:
        params["speed_bound"] = bound
    return TargetTrajectory(kind=LISSAJOUS, speed_bound=bound, params=params)


def make_piecewise_linear_trajectory(
    samples: Sequence[tuple[float, PlanarPoint]],
) -> TargetTrajectory:
    """Linear interpolation through time-stamped points, constant after the last.

    Sample times must be strictly increasing and start at t = 0. The speed
    bound is the maximum segment speed (0 for a single sample).
    """
    if len(samples) == 0:
        raise ValueError("at least one sample is required")
    if samples[0][0] != 0.0:
        raise ValueError(f"first sample must be at t = 0, got t = {samples[0][0]}")
    bound = 0.0
    for (t0, p0), (t1, p1) in zip(samples, samples[1:]):
        if t1 <= t0:
            raise ValueError(f"sample times must be strictly increasing at t = {t1}")
        bound = max(bound, p1.distance_to(p0) / (t1 - t0))
    frozen = tuple((float(t), p) for t, p in samples)
    return TargetTrajectory(kind=PIECEWISE_LINEAR, speed_bound=bound, samples=frozen)


def make_custom_trajectory(
    position: Callable[[float], PlanarPoint], speed_bound: float
) -> TargetTrajectory:
    """Wrap an arbitrary pure function t -> point with a caller-declared bound."""
    if speed_bound < 0:
        raise ValueError(f"speed bound must be >= 0, got {speed_bound}")
    return TargetTrajectory(kind=CUSTOM, speed_bound=float(speed_bound), custom_fn=position)


@dataclass(frozen=True)
class SolveTrace:
    """The iterate sequence of one solve: pairs (t_n, distance at t_n)."""

    iterates: tuple[tuple[float, float], ...]

    @property
    def iteration_count(self) -> int:
        return len(self.iterates) - 1

    @property
    def final_time(self) -> float:
        return self.iterates[-1][0]

    @property
    def final_distance(self) -> float:
        return self.iterates[-1][1]
