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
from .plants import LEFT, RIGHT, InterceptionPath, PlantModel, arc, sample_segments, straight

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# leading coefficients smaller than this degrade the cubic's degree
_COEF_ZERO = 1e-12


class DubinsRegion(enum.Enum):
    D_I = "D_I"
    D_II = "D_II"
    D_III = "D_III"


# looked up once: reading a member off an Enum class costs about 0.15 us
_D_I, _D_II, _D_III = DubinsRegion


# --- the case analysis on ax = |x| and yy = y, each float expression once ----
# ``_nearest``, behind ``distance`` and ``DubinsCar.path``, runs these on floats.


def _case(ax: float, yy: float) -> tuple[DubinsRegion, float, float]:
    """Region of (ax, yy), with its discriminants alpha_cs and alpha_cc."""
    # |x|(|x| - 2) + y^2, exact where (1 - |x|)^2 + y^2 - 1 cancels for tiny |x|
    a_cs = ax * (ax - 2.0) + yy * yy
    # 5 - (1 + |x|)^2 = 4 - |x|(2 + |x|), keeping the small-|x| contribution
    a_cc = (4.0 - ax * (2.0 + ax) - yy * yy) / 4.0
    if (ax == 0.0 and yy == 0.0) or a_cs < 0.0:
        return _D_I, a_cs, a_cc
    if a_cc > -1.0 and yy > 0.0:
        return _D_III, a_cs, a_cc
    return _D_II, a_cs, a_cc


def _cs(ax: float, yy: float, a_cs: float) -> tuple[float, float]:
    """First-arc angle in [0, 2*pi) and length of the shortest CS path, from alpha_cs."""
    if a_cs < 0.0:
        raise ValueError("CS geometry undefined inside the open turning disks")
    root = math.sqrt(a_cs)
    # sine and cosine over the same den: an overflowed a_cs gives inf/inf, a NaN angle
    den = 1.0 + a_cs
    theta = abs(math.atan2((yy + root * (ax - 1.0)) / den, (1.0 - ax + yy * root) / den))
    # Branch test y >= (1 - |x|) * sqrt(a): squaring shows it is equivalent
    # to y >= 0 or |x| >= 2, which evaluates without the sqrt cancellation
    # that flips the comparison next to the locus (e.g. on the +y axis).
    if not (yy >= 0.0 or ax >= 2.0):
        theta = TWO_PI - theta
    return theta, theta + root


def _cc_lengths(ax: float, yy: float, a_cc: float) -> tuple[float, float]:
    """Lengths (plus, minus) of the two CC paths, from alpha_cc.

    With s = sqrt(1 - alpha_cc^2), phi = atan2(y, 1 + |x|) and psi = atan2(s, 2 - alpha_cc),
    the first arcs are |phi -+ psi|, both in [0, pi]: since (2 - alpha_cc)^2 + s^2 equals
    (1 + |x|)^2 + y^2, cos(phi -+ psi) = ((1 + |x|)(2 - alpha_cc) +- y s) / ((1 + |x|)^2 + y^2).
    The second arc is atan2(s, alpha_cc) = acos(alpha_cc).
    """
    s = math.sqrt(max(1.0 - a_cc * a_cc, 0.0))
    phi = math.atan2(yy, 1.0 + ax)
    psi = math.atan2(s, 2.0 - a_cc)
    gamma = math.atan2(s, a_cc)
    return abs(phi - psi) + gamma, abs(phi + psi) + TWO_PI - gamma


# --- the same case analysis on PlanarPoint queries ---------------------------


def classify(y: PlanarPoint) -> DubinsRegion:
    """Assign y to the region that decides its shortest-path family."""
    return _case(abs(y.x), y.y)[0]


def theta_cs(y: PlanarPoint) -> float:
    """First-arc angle of the length-minimizing CS path to y, in [0, 2*pi)."""
    ax, yy = abs(y.x), y.y
    return _cs(ax, yy, _case(ax, yy)[1])[0]


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


def _cc_point(tau: float, t: float) -> PlanarPoint:
    return PlanarPoint(
        2.0 * math.cos(tau) - math.cos(t - 2.0 * tau) - 1.0,
        2.0 * math.sin(tau) + math.sin(t - 2.0 * tau),
    )


# --- the CC stationarity cubic ----------------------------------------------


def cc_cubic_roots(t: float, y: PlanarPoint) -> list[float]:
    """Real roots of the CC distance's stationarity cubic a x^3 + b x^2 + c x + d at (t, y):
    Viete's trigonometric form, then one Newton step per root.

    With C = cos(t/3) and S = sin(t/3), b^2 - 3ac = b^2 + (3y + S)^2 - 4S^2 >= 5(C + 0.6)^2
    + 3.2 > 0, so p < 0; the cubic always has three distinct real roots. Where a = -(y + S)
    is negligible: the quadratic's roots, then ``math.inf``, which a vanishing a makes of the
    third. No roots where (b/a)**3 overflows, which needs a query over about 2e90 away.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    third = t / 3.0
    sin3, cos3 = math.sin(third), math.cos(third)
    ax = abs(y.x)
    a = -(y.y + sin3)
    b = 3.0 + 3.0 * ax + cos3
    c = 3.0 * y.y - sin3
    d = cos3 - (1.0 + ax)
    if abs(a) <= _COEF_ZERO:
        # b >= 2 and d <= 0, so c^2 - 4bd >= 0: the quadratic has real roots
        q = -0.5 * (c + math.copysign(math.sqrt(c * c - 4.0 * b * d), c))
        roots = [q / b]
        if q != 0.0:
            roots.append(d / q)
        a = 0.0  # polished as the quadratic it is
    else:
        bn, cn, dn = b / a, c / a, d / a
        # depressed form z^3 + p z + q with x = z - bn/3
        p = cn - bn * bn / 3.0
        try:
            q = 2.0 * bn**3 / 27.0 - bn * cn / 3.0 + dn
        except OverflowError:  # float ** raises where * would give inf
            return []
        shift = -bn / 3.0
        r = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * r))))
        roots = []
        for k in range(3):  # a loop: a list comprehension builds a function per call
            roots.append(r * math.cos((phi - TWO_PI * k) / 3.0) + shift)
    # one Newton step per root, kept only if it does not increase the residual
    for i, x in enumerate(roots):
        f = ((a * x + b) * x + c) * x + d
        df = (3.0 * a * x + 2.0 * b) * x + c
        if df != 0.0 and math.isfinite(f / df):
            x2 = x - f / df
            f2 = ((a * x2 + b) * x2 + c) * x2 + d
            if math.isfinite(x2) and abs(f2) <= abs(f):
                roots[i] = x2
    return roots + [math.inf] if a == 0.0 else roots  # a == 0.0: the quadratic branch


def _nearest(t: float, y: PlanarPoint) -> tuple[float, float, bool]:
    """(distance, first arc, is CS) of the reachable point nearest y at time t.

    One pass over (|x|, y): off D_I, the CS angle and length may pick the CS family;
    else one CC search finds the first arc. Inside points get 0.0 and the same rule's family.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    ax, yy = abs(y.x), y.y
    region, a_cs, a_cc = _case(ax, yy)
    if region is _D_I:
        # reachable once the CC minus path fits, and the origin at t = 0. That length,
        # (|phi + psi| + 2 pi) - atan2(s, a_cc) with math.atan2 <= pi, rounds to at least
        # 2 pi - pi == pi (exact in floats), so no earlier time needs it
        inside = (t >= math.pi and t >= _cc_lengths(ax, yy, a_cc)[1]) or (
            t == 0.0 and ax == 0.0 and yy == 0.0
        )
    else:
        theta, length = _cs(ax, yy, a_cs)
        if theta <= t and (region is _D_II or length >= t):  # on D_II, t >= length is inside
            return (length - t if length > t else 0.0), theta, True
        inside = False
        if t >= length:  # D_III: reachable unless t falls inside the CC window (plus, minus)
            plus, minus = _cc_lengths(ax, yy, a_cc)
            inside = t >= minus or plus >= t
    # the CC family: the nearest of tau = 0, hi = min(t, pi/2) and, in that order, each
    # root's arc split in [0, hi]; _cc_point inline, twice to build no candidate list
    hi = min(t, HALF_PI)
    best_tau, best_dist = None, math.inf
    for tau in (0.0, hi):
        px = 2.0 * math.cos(tau) - math.cos(t - 2.0 * tau) - 1.0
        py = 2.0 * math.sin(tau) + math.sin(t - 2.0 * tau)
        dist = math.hypot(ax - px, yy - py)
        if dist < best_dist:
            best_tau, best_dist = tau, dist
    third = t / 3.0
    for xi in cc_cubic_roots(t, y):  # the root at infinity gives (t/3 - pi) % 2 pi
        tau = (third - 2.0 * math.atan(xi)) % TWO_PI  # in [0, 2 pi], or NaN
        if tau <= hi:
            px = 2.0 * math.cos(tau) - math.cos(t - 2.0 * tau) - 1.0
            py = 2.0 * math.sin(tau) + math.sin(t - 2.0 * tau)
            dist = math.hypot(ax - px, yy - py)
            if dist < best_dist:
                best_tau, best_dist = tau, dist
    if best_tau is None:  # a NaN or an infinity in the query
        raise ValueError(f"no finite CC distance to (|x|, y) = ({ax}, {yy}) at t = {t}")
    return (0.0 if inside else best_dist), best_tau, False


def distance(t: float, y: PlanarPoint) -> float:
    """Euclidean distance from y to the positions reachable at time t; 0.0 exactly on them."""
    return _nearest(t, y)[0]


def boundary_points(t: float, n: int) -> list[PlanarPoint]:
    """n samples of the CS family, then n of the CC family; their mirror image is the rest."""
    if t <= 0:
        raise ValueError(f"time must be > 0, got {t}")
    if n < 2:
        raise ValueError(f"need at least 2 samples per branch, got {n}")
    theta_hi, tau_hi = min(t, TWO_PI), min(t, HALF_PI)
    cs = [_cs_point(theta_hi * i / (n - 1), t) for i in range(n)]
    return cs + [_cc_point(tau_hi * i / (n - 1), t) for i in range(n)]


class DubinsCar(PlantModel):
    """Unit-speed car with unit minimum turning radius, initially heading +y."""

    name = "dubins"

    def distance(self, t: float, y: PlanarPoint) -> float:
        return distance(t, y)

    def best_step(self, t: float, y: PlanarPoint, rho: float, v: float, ell: float) -> float:
        """Largest known-safe step t + (rho - ell)/(1 + v), rho = distance(t, y).

        Exact where the CS family is nearest (rho is then the remaining CS
        path length); elsewhere the generic distance-closing step.
        """
        if not 0.0 <= t < math.inf:
            raise ValueError(f"time must be finite and >= 0, got {t}")
        if rho <= ell:
            raise ValueError("point already within capture distance")
        if not rho < math.inf:
            raise ValueError(f"distance must be finite, got {rho}")
        return t + (rho - ell) / (1.0 + v)

    def reachable_boundary(self, t: float) -> list[PlanarPoint]:
        """Closed polyline: CS then CC on the right (128 samples each), then the mirror."""
        right = boundary_points(t, 128)
        return right + [PlanarPoint(-x, y) for x, y in reversed(right)] + [right[0]]

    def path(
        self, t_star: float, y_target: PlanarPoint, ell: float, reach: float
    ) -> InterceptionPath:
        """Reconstruct the duration-t_star path of the family nearest the target point.

        The target must be within ``reach`` of the time-t_star reachable set; ``ell`` does
        not shorten the path. Outside the set (every point ``solve`` passes) the path ends at
        the reachable point nearest the target; inside, on the family ``distance`` picks, as
        no CS or CC path of duration t_star ends at an interior point.
        """
        dist, first, is_cs = _nearest(t_star, y_target)
        if dist > reach:
            raise ValueError("target point is not capturable at the requested time")
        # solved in the right half-plane; left of the axis, turns and endpoint mirror
        left = y_target.x < 0.0
        turn, other = (LEFT, RIGHT) if left else (RIGHT, LEFT)
        if is_cs:
            segments = (arc(turn, first), straight(t_star - first))
            endpoint = _cs_point(first, t_star)
        else:
            segments = (arc(other, first), arc(turn, t_star - first))
            endpoint = _cc_point(first, t_star)
        if left:
            endpoint = PlanarPoint(-endpoint.x, endpoint.y)
        return InterceptionPath(segments, endpoint)

    def sample_path(self, path: InterceptionPath) -> list[PlanarPoint]:
        """Integrate the path from the origin, heading +y; arcs every <= 0.05 rad."""
        return sample_segments(path.segments, HALF_PI)


DUBINS_CAR = DubinsCar()
