"""Planar geometry primitives and target-trajectory models.

A target trajectory is any map t -> R^2 together with a declared speed
bound v; the solver only ever uses the bound, never the functional form,
so every trajectory kind below is interchangeable from its point of view.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import lt, sub, truediv
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


def _check_nonnegative(name: str, value: float) -> None:
    """Reject a speed, speed bound or capture radius outside [0, inf), NaN too."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


class _Capture(NamedTuple):
    ell: float
    epsilon: float


class CaptureSpec(_Capture):
    """Capture radius and relative stopping error of the solver loop."""

    __slots__ = ()

    def __new__(cls, ell: float, epsilon: float) -> CaptureSpec:
        _check_nonnegative("capture radius", ell)
        if not 0.0 < epsilon < math.inf:
            raise ValueError(f"relative stopping error must be finite and > 0, got {epsilon}")
        return tuple.__new__(cls, (ell, epsilon))

    @classmethod
    def _make(cls, values: Iterable) -> CaptureSpec:  # so that _replace checks too
        return cls(*values)


class TargetTrajectory:
    """Evaluatable target path with a declared Lipschitz speed bound.

    ``position`` is a pure function of t, so repeated evaluation at the same
    time is bit-identical. A kind below names its constructor arguments, in
    order, in ``_fields``: they are its scenario fields. ``_field_defaults``
    maps those a document may leave out to their defaults, as on a named tuple.
    """

    __slots__ = ()
    kind: ClassVar[str]
    _fields: ClassVar[tuple[str, ...]] = ()
    _field_defaults: ClassVar[dict[str, Any]] = {}
    speed_bound: float

    def position(self, t: float) -> PlanarPoint:
        # the one entry point for every kind; each kind implements ``_at(t)``
        return self._at(t)

    def scenario_fields(self) -> dict[str, Any]:
        """The fields a scenario document spells out, by name."""
        return {name: getattr(self, name) for name in self._fields}


class _Frozen(TargetTrajectory):
    """A built-in kind: immutable; ``repr``, ``==`` and ``hash`` read ``scenario_fields()``."""

    __slots__ = ()

    def _set(self, **values: Any) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in self.scenario_fields().items())
        return f"{type(self).__name__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.scenario_fields() == other.scenario_fields()

    def __hash__(self) -> int:
        return hash(tuple(self.scenario_fields().values()))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through the constructor
        return type(self), tuple(self.scenario_fields().values())


class LineTrajectory(_Frozen):
    """Target moving with constant velocity v in direction phi from (xi, eta)."""

    kind = "line"
    _fields = ("xi", "eta", "phi", "v")
    # the bound v, and cos(phi) and sin(phi), computed once; not fields
    __slots__ = (*_fields, "speed_bound", "_cos", "_sin")

    def __init__(self, xi: float, eta: float, phi: float, v: float) -> None:
        _check_nonnegative("target speed", v)
        phi, v = float(phi), float(v)
        self._set(
            xi=float(xi), eta=float(eta), phi=phi, v=v,
            speed_bound=v, _cos=math.cos(phi), _sin=math.sin(phi),
        )

    def _at(self, t: float) -> PlanarPoint:
        return PlanarPoint(self.xi + self.v * t * self._cos, self.eta + self.v * t * self._sin)


class LissajousTrajectory(_Frozen):
    """Target oscillating on a Lissajous figure centered at (xi, eta).

    The speed bound defaults to the amplitude parameter v, which is what the
    reference benchmark rows use; the Euclidean speed of the curve can reach
    v*sqrt(2), so pass ``speed_bound=v * math.sqrt(2)`` for a rigorous bound.
    """

    kind = "lissajous"
    _fields = ("xi", "eta", "omega_x", "omega_y", "v", "speed_bound")
    _field_defaults = {"speed_bound": None}
    # the bound as given (None: derived from v), and the amplitudes v/omega_x
    # and v/omega_y, computed once
    __slots__ = (*_fields[:-1], "_bound", "_ax", "_ay")

    def __init__(
        self, xi: float, eta: float, omega_x: float, omega_y: float, v: float,
        speed_bound: float | None = None,
    ) -> None:
        if not (omega_x > 0 and omega_y > 0):  # NaN fails too
            raise ValueError(f"frequencies must be > 0, got {omega_x}, {omega_y}")
        _check_nonnegative("target speed", v)
        if speed_bound is not None:
            _check_nonnegative("speed bound", speed_bound)
            speed_bound = float(speed_bound)
        v, omega_x, omega_y = float(v), float(omega_x), float(omega_y)
        self._set(
            xi=float(xi), eta=float(eta), omega_x=omega_x, omega_y=omega_y, v=v,
            _bound=speed_bound, _ax=v / omega_x, _ay=v / omega_y,
        )

    @property
    def speed_bound(self) -> float:
        return self.v if self._bound is None else self._bound

    def scenario_fields(self) -> dict[str, Any]:
        doc = super().scenario_fields()
        if self._bound is None:
            del doc["speed_bound"]  # the default
        return doc

    def _at(self, t: float) -> PlanarPoint:
        return PlanarPoint(
            self.xi + self._ax * math.sin(self.omega_x * t),
            self.eta + self._ay * math.sin(self.omega_y * t),
        )


class PiecewiseLinearTrajectory(_Frozen):
    """Linear interpolation through time-stamped points, constant after the last.

    The sample columns are ``times`` (from t = 0, strictly increasing), ``xs``
    and ``ys``. The speed bound is the maximum segment speed (0 for one sample).
    """

    kind = "piecewise_linear"
    _fields = ("times", "xs", "ys")
    __slots__ = (*_fields, "speed_bound")

    def __init__(self, times: Iterable[float], xs: Iterable[float], ys: Iterable[float]) -> None:
        columns = times, xs, ys = [tuple(map(float, c)) for c in (times, xs, ys)]
        if not len(times) == len(xs) == len(ys):
            raise ValueError(f"sample columns differ in length: {[len(c) for c in columns]}")
        if len(times) == 0:
            raise ValueError("at least one sample is required")
        if times[0] != 0.0:
            raise ValueError(f"sample #0 must be at t = 0, got t = {times[0]}")
        if not all(map(lt, times, later := times[1:])):  # NaN fails too
            i = next(i for i, t1 in enumerate(later, 1) if not t1 > times[i - 1])
            order = f"sample #{i} is at t = {times[i]}, after t = {times[i - 1]}"
            raise ValueError(f"sample times must be strictly increasing: {order}")
        lengths = map(math.hypot, map(sub, xs[1:], xs), map(sub, ys[1:], ys))
        speeds = [0.0, *map(truediv, lengths, map(sub, later, times))]
        if math.isnan(sum(speeds)):  # speeds are >= 0: NaN only where one of them is
            i = next(i for i, speed in enumerate(speeds) if math.isnan(speed))
            raise ValueError(f"the speed from sample #{i - 1} to sample #{i} is NaN")
        if (bound := max(speeds)) == math.inf:  # a jump whose length or speed overflows
            i = speeds.index(bound)
            raise ValueError(f"the speed from sample #{i - 1} to sample #{i} is infinite")
        # a non-finite x or y makes a speed NaN or infinite; only the last t can be inf
        if not all(map(math.isfinite, last := (times[-1], xs[-1], ys[-1]))):
            raise ValueError(f"sample #{len(times) - 1} must be finite, got (t, x, y) = {last}")
        self._set(times=times, xs=xs, ys=ys, speed_bound=bound)

    def _at(self, t: float) -> PlanarPoint:
        times, xs, ys = self.times, self.xs, self.ys
        if not times[0] < t < times[-1]:
            i = 0 if t <= times[0] else -1  # the target stops after the last sample
            return PlanarPoint(xs[i], ys[i])
        i = bisect_right(times, t)
        t0, x0, y0 = times[i - 1], xs[i - 1], ys[i - 1]
        w = (t - t0) / (times[i] - t0)
        return PlanarPoint(x0 + w * (xs[i] - x0), y0 + w * (ys[i] - y0))


class CustomTrajectory(_Frozen):
    """An arbitrary pure function t -> point with a caller-declared bound."""

    kind = "custom"
    _fields = __slots__ = ("fn", "speed_bound")

    def __init__(self, fn: Callable[[float], PlanarPoint], speed_bound: float) -> None:
        _check_nonnegative("speed bound", speed_bound)
        self._set(fn=fn, speed_bound=speed_bound)

    def _at(self, t: float) -> PlanarPoint:
        return self.fn(t)


make_line_trajectory = LineTrajectory
make_lissajous_trajectory = LissajousTrajectory
make_custom_trajectory = CustomTrajectory


def make_piecewise_linear_trajectory(samples: Iterable) -> PiecewiseLinearTrajectory:
    """The piecewise-linear target through ``(t, PlanarPoint)`` samples."""
    times, points = [*zip(*samples, strict=True)] or ((), ())  # no samples: empty columns
    return PiecewiseLinearTrajectory(times, [p.x for p in points], [p.y for p in points])


class SolveTrace(NamedTuple):
    """The iterate sequence of one solve: pairs (t_n, distance at t_n)."""

    iterates: tuple[tuple[float, float], ...]

    @property
    def iteration_count(self) -> int:
        return len(self.iterates) - 1

    @property
    def final_distance(self) -> float:
        return self.iterates[-1][1]
