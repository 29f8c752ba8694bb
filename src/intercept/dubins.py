"""Analytic planar reachable set of the Dubins car.

The car starts at the origin heading along +y, drives at unit speed and
turns with radius >= 1. Everything below is closed-form geometry: the
plane splits into three regions (D_I near the turning disks, D_III a lune
above them, D_II the rest) that decide which path family - turn+straight
(CS) or turn+turn (CC) - realizes the shortest path to a point, and the
distance from a point to the time-t reachable positions follows from the
boundary parameterizations of those two families.

All formulas are expressed with |x|; the set is mirror-symmetric about
the y-axis, so queries are evaluated in the right half-plane.
"""

from __future__ import annotations

import enum
import math

from .core import PlanarPoint
from .plants import (
    LEFT,
    RIGHT,
    InterceptionPath,
    PlantModel,
    arc,
    straight,
)

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# tolerance for arccos arguments that round just outside [-1, 1]
_ACOS_SLACK = 1e-12
# leading coefficients smaller than this degrade the cubic's degree
_COEF_ZERO = 1e-12
# polished roots with an imaginary part below this count as real
_IMAG_TOL = 1e-10


class DubinsRegion(enum.Enum):
    D_I = "D_I"
    D_II = "D_II"
    D_III = "D_III"


def alpha_cs(y: PlanarPoint) -> float:
    """Discriminant of the CS family: negative inside the open turning disks.

    Evaluated as |x|(|x| - 2) + y^2, which is exact where the textbook form
    (1 - |x|)^2 + y^2 - 1 cancels catastrophically for tiny |x|.
    """
    ax = abs(y.x)
    return ax * (ax - 2.0) + y.y * y.y


def alpha_cc(y: PlanarPoint) -> float:
    """Cosine of the second-arc angle of the shortest CC path to y."""
    ax = abs(y.x)
    # 5 - (1 + |x|)^2 = 4 - |x|(2 + |x|), keeping the small-|x| contribution
    return (4.0 - ax * (2.0 + ax) - y.y * y.y) / 4.0


def classify(y: PlanarPoint) -> DubinsRegion:
    """Assign y to the region that decides its shortest-path family."""
    if (y.x == 0.0 and y.y == 0.0) or alpha_cs(y) < 0.0:
        return DubinsRegion.D_I
    if alpha_cc(y) > -1.0 and y.y > 0.0:
        return DubinsRegion.D_III
    return DubinsRegion.D_II


def _acos(u: float) -> float:
    if u > 1.0:
        if u - 1.0 > _ACOS_SLACK:
            raise ValueError(f"arccos argument {u} out of range")
        return 0.0
    if u < -1.0:
        if -1.0 - u > _ACOS_SLACK:
            raise ValueError(f"arccos argument {u} out of range")
        return math.pi
    return math.acos(u)


def theta_cs(y: PlanarPoint) -> float:
    """First-arc angle of the length-minimizing CS path to y, in [0, 2*pi)."""
    a = alpha_cs(y)
    if a < 0.0:
        raise ValueError("CS geometry undefined inside the open turning disks")
    ax = abs(y.x)
    root = math.sqrt(a)
    base = _acos((1.0 - ax + y.y * root) / (1.0 + a))
    # Branch test y >= (1 - |x|) * sqrt(a): squaring shows it is equivalent
    # to y >= 0 or |x| >= 2, which evaluates without the sqrt cancellation
    # that flips the comparison next to the locus (e.g. on the +y axis).
    if y.y >= 0.0 or ax >= 2.0:
        return base
    return TWO_PI - base


def v_cs(y: PlanarPoint) -> float:
    """Length of the shortest CS path to y (arc angle plus tangent length).

    Defined everywhere except inside the open turning disks (D_I away from
    the origin), where ``theta_cs`` raises.
    """
    return theta_cs(y) + math.sqrt(alpha_cs(y))


def _theta_cc_pair(y: PlanarPoint) -> tuple[float, float]:
    ax = abs(y.x)
    a = alpha_cc(y)
    s = math.sqrt(max(1.0 - a * a, 0.0))
    den = (1.0 + ax) ** 2 + y.y**2
    plus = _acos(((1.0 + ax) * (2.0 - a) + y.y * s) / den)
    minus = _acos(((1.0 + ax) * (2.0 - a) - y.y * s) / den)
    return plus, minus


def v_cc(y: PlanarPoint, region: DubinsRegion) -> tuple[float | None, float | None]:
    """Lengths of the two CC paths to y, where its region admits them.

    ``region`` is ``classify(y)``. Returns (plus, minus); the plus branch
    exists only on D_III, the minus branch on D_I and D_III, and neither on
    D_II.
    """
    if region is DubinsRegion.D_II:
        return None, None
    a = alpha_cc(y)
    theta_plus, theta_minus = _theta_cc_pair(y)
    acos_a = _acos(a)
    plus = theta_plus + acos_a if region is DubinsRegion.D_III else None
    minus = theta_minus + TWO_PI - acos_a
    return plus, minus


def _contains(
    t: float, y: PlanarPoint, region: DubinsRegion, length_cs: float | None
) -> bool:
    """``contains(t, y)`` given ``region = classify(y)`` and, off D_I, ``v_cs(y)``."""
    if region is DubinsRegion.D_II:
        return t >= length_cs
    if region is DubinsRegion.D_I:
        return t >= v_cc(y, region)[1] or (t == 0.0 and y.x == 0.0 and y.y == 0.0)
    # D_III: the CS length must be met, and the CC window must not exclude t
    if t < length_cs:
        return False
    plus, minus = v_cc(y, region)
    return t >= minus or plus >= t


def contains(t: float, y: PlanarPoint) -> bool:
    """Whether the car can occupy y at exactly time t."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    region = classify(y)
    length_cs = None if region is DubinsRegion.D_I else v_cs(y)
    return _contains(t, y, region, length_cs)


# --- boundary parameterizations ---------------------------------------------
#
# Right-half-plane boundary points come from two driven paths of total
# duration t: turn right by theta then go straight (CS), or turn left by
# tau then right for the rest (CC).


def _cs_point(theta: float, t: float) -> PlanarPoint:
    return PlanarPoint(
        (t - theta) * math.sin(theta) - math.cos(theta) + 1.0,
        (t - theta) * math.cos(theta) + math.sin(theta),
    )


def x_lr(tau: float, t: float) -> float:
    return 2.0 * math.cos(tau) - math.cos(t - 2.0 * tau) - 1.0


def y_lr(tau: float, t: float) -> float:
    return 2.0 * math.sin(tau) + math.sin(t - 2.0 * tau)


# --- cubic solver for the CC stationarity condition --------------------------


def _polish(x: float, a: float, b: float, c: float, d: float) -> float:
    # one Newton step, kept only if it does not increase the residual
    f = ((a * x + b) * x + c) * x + d
    df = (3.0 * a * x + 2.0 * b) * x + c
    if df != 0.0 and math.isfinite(f / df):
        x2 = x - f / df
        f2 = ((a * x2 + b) * x2 + c) * x2 + d
        if math.isfinite(x2) and abs(f2) <= abs(f):
            return x2
    return x


def _real_cubic_roots(a: float, b: float, c: float, d: float) -> list[float]:
    """Real roots of a*x^3 + b*x^2 + c*x + d, degrading degree as needed."""
    if abs(a) <= _COEF_ZERO:
        if abs(b) <= _COEF_ZERO:
            if abs(c) <= _COEF_ZERO:
                if abs(d) <= _COEF_ZERO:
                    raise ValueError("identically zero polynomial")
                return []
            return [-d / c]
        disc = c * c - 4.0 * b * d
        if disc < 0.0:
            return []
        q = -0.5 * (c + math.copysign(math.sqrt(disc), c))
        roots = [q / b]
        if q != 0.0:
            roots.append(d / q)
        return [_polish(r, 0.0, b, c, d) for r in roots]

    bn, cn, dn = b / a, c / a, d / a
    # depressed form z^3 + p z + q with x = z - bn/3
    p = cn - bn * bn / 3.0
    q = 2.0 * bn**3 / 27.0 - bn * cn / 3.0 + dn
    shift = -bn / 3.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    roots: list[float] = []
    if disc > 0.0:
        s = math.sqrt(disc)
        u = math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
        v = math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s)
        roots.append(u + v + shift)
        # the conjugate pair counts as real when it is nearly so
        imag = math.sqrt(3.0) / 2.0 * abs(u - v)
        if imag <= _IMAG_TOL:
            roots.append(-(u + v) / 2.0 + shift)
    elif disc == 0.0:
        if p == 0.0:
            roots.append(shift)
        else:
            roots.append(3.0 * q / p + shift)
            roots.append(-1.5 * q / p + shift)
    else:
        r = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * r))))
        for k in range(3):
            roots.append(r * math.cos((phi - TWO_PI * k) / 3.0) + shift)
    return [_polish(x, a, b, c, d) for x in roots]


def cc_cubic_roots(t: float, y: PlanarPoint) -> list[float]:
    """Real roots of the stationarity cubic for the CC distance at (t, y)."""
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    third = t / 3.0
    ax = abs(y.x)
    a = -(y.y + math.sin(third))
    b = 3.0 + 3.0 * ax + math.cos(third)
    c = 3.0 * y.y - math.sin(third)
    d = math.cos(third) - (1.0 + ax)
    return _real_cubic_roots(a, b, c, d)


def _cc_candidates(t: float, y: PlanarPoint) -> list[float]:
    """First-arc durations worth checking when minimizing the CC distance."""
    hi = min(t, HALF_PI)
    third = t / 3.0
    cands = [0.0, hi]
    for xi in cc_cubic_roots(t, y):
        cands.append((third - 2.0 * math.atan(xi)) % TWO_PI)
    if abs(y.y + math.sin(third)) <= _COEF_ZERO:
        # degenerate leading coefficient: the root at infinity maps here
        cands.append((third - math.pi) % TWO_PI)
    return [tau for tau in cands if 0.0 <= tau <= hi]


def _cc_nearest(t: float, y: PlanarPoint) -> tuple[float, PlanarPoint, float]:
    """Closest point on the CC family to y (queried with |x|)."""
    ax = abs(y.x)
    best_tau, best_point, best_dist = 0.0, None, math.inf
    for tau in _cc_candidates(t, y):
        point = PlanarPoint(x_lr(tau, t), y_lr(tau, t))
        dist = math.hypot(ax - point.x, y.y - point.y)
        if dist < best_dist:
            best_tau, best_point, best_dist = tau, point, dist
    assert best_point is not None
    return best_tau, best_point, best_dist


def distance(t: float, y: PlanarPoint) -> float:
    """Euclidean distance from y to the positions the car can reach at time t.

    One case analysis: the region, then (off D_I) the CS angle and length
    decide containment and whether the nearest boundary point lies on the
    CS family; otherwise it lies on the CC family.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    region = classify(y)
    if region is DubinsRegion.D_I:
        if _contains(t, y, region, None):
            return 0.0
        return _cc_nearest(t, y)[2]
    theta = theta_cs(y)
    length = theta + math.sqrt(alpha_cs(y))  # v_cs(y) without a second theta_cs
    if _contains(t, y, region, length):
        return 0.0
    if theta <= t and (region is DubinsRegion.D_II or length >= t):
        return length - t
    return _cc_nearest(t, y)[2]


def boundary_points(t: float, n: int) -> list[PlanarPoint]:
    """Sample both boundary families at n parameters each, plus mirror images."""
    if t <= 0:
        raise ValueError(f"time must be > 0, got {t}")
    if n < 2:
        raise ValueError(f"need at least 2 samples per branch, got {n}")
    out: list[PlanarPoint] = []
    theta_hi = min(t, TWO_PI)
    tau_hi = min(t, HALF_PI)
    for i in range(n):
        p = _cs_point(theta_hi * i / (n - 1), t)
        out.append(p)
        out.append(PlanarPoint(-p.x, p.y))
    for i in range(n):
        tau = tau_hi * i / (n - 1)
        p = PlanarPoint(x_lr(tau, t), y_lr(tau, t))
        out.append(p)
        out.append(PlanarPoint(-p.x, p.y))
    return out


def _mirror_segments(segments: list) -> list:
    flipped = []
    for seg in segments:
        if seg.kind == "arc":
            flipped.append(arc(LEFT if seg.direction == RIGHT else RIGHT, seg.duration))
        else:
            flipped.append(seg)
    return flipped


def dubins_path(
    t_star: float, y_target: PlanarPoint, ell: float, reach: float
) -> InterceptionPath:
    """Reconstruct the duration-t_star path ending nearest to the target point.

    The target must be within ``reach`` of the time-t_star reachable set;
    ``ell`` is accepted for the plant interface and does not shorten the path.
    """
    if distance(t_star, y_target) > reach:
        raise ValueError("target point is not capturable at the requested time")
    mirrored = PlanarPoint(abs(y_target.x), y_target.y)
    best = None  # (distance, segments, endpoint) in the right half-plane
    if alpha_cs(mirrored) >= 0.0:
        th = theta_cs(mirrored)
        if th <= t_star:
            endpoint = _cs_point(th, t_star)
            dist = endpoint.distance_to(mirrored)
            best = (dist, [arc(RIGHT, th), straight(t_star - th)], endpoint)
    tau, cc_endpoint, cc_dist = _cc_nearest(t_star, mirrored)
    if best is None or cc_dist < best[0]:
        best = (cc_dist, [arc(LEFT, tau), arc(RIGHT, t_star - tau)], cc_endpoint)
    _, segments, endpoint = best
    if y_target.x < 0.0:
        segments = _mirror_segments(segments)
        endpoint = PlanarPoint(-endpoint.x, endpoint.y)
    return InterceptionPath(tuple(segments), endpoint)


class DubinsCar(PlantModel):
    """Unit-speed car with unit minimum turning radius, initially heading +y."""

    name = "dubins"

    def distance(self, t: float, y: PlanarPoint) -> float:
        return distance(t, y)

    def best_step(self, t: float, y: PlanarPoint, rho: float, v: float, ell: float) -> float:
        """Largest known-safe step t + (rho - ell)/(1 + v), rho = distance(t, y).

        Exact where the CS family is nearest (rho is then the remaining CS
        length v_cs(y) - t); elsewhere the generic distance-closing step.
        """
        if rho <= ell:
            raise ValueError("point already within capture distance")
        return t + (rho - ell) / (1.0 + v)

    def boundary_points(self, t: float, n: int) -> list[PlanarPoint]:
        return boundary_points(t, n)

    def path(
        self, t_star: float, y_target: PlanarPoint, ell: float, reach: float
    ) -> InterceptionPath:
        return dubins_path(t_star, y_target, ell, reach)

    def path_initial_heading(self, path: InterceptionPath) -> float:
        return HALF_PI


DUBINS_CAR = DubinsCar()
