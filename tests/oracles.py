"""Independent reference computations used by the tests.

Everything here except ``reference_dubins_distance`` deliberately avoids
the code paths it is used to check: the line-interception time comes from a
quadratic in closed form, and the Dubins reference distance from dense
sampling of the boundary curves with local golden-section refinement.
``reference_dubins_distance`` is the other kind of reference: the Dubins
case analysis composed from ``classify``, ``theta_cs`` and the float helpers
``_case``, ``_cs`` and ``_cc_lengths``, which must agree with
``dubins.distance`` bit for bit. ``reference_samples`` is the per-sample
check of a track's samples that the one-pass parse must agree with.
"""

from __future__ import annotations

import math
import sys
from typing import Any

import numpy as np

from intercept import dubins
from intercept.core import PlanarPoint
from intercept.scenario import ScenarioError

_MAX = sys.float_info.max

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def line_interception_time(
    xi: float, eta: float, phi: float, v: float, ell: float
) -> float:
    """Smallest t >= 0 with ||y0 + v t d|| <= t + ell, for simple motions.

    A target that starts within ``ell`` is caught at t = 0. Otherwise the
    first capture is a root of ||y0 + v t d|| = t + ell; squaring gives
    (v^2 - 1) t^2 + 2 (v y0.d - ell) t + (||y0||^2 - ell^2) = 0, and every
    nonnegative root of the quadratic solves the original equation because
    t + ell >= 0. Raises ValueError if there is no capture.
    """
    dx, dy = math.cos(phi), math.sin(phi)
    y0_dot_d = xi * dx + eta * dy
    norm0_sq = xi * xi + eta * eta
    if norm0_sq <= ell * ell:
        return 0.0
    coeffs = [v * v - 1.0, 2.0 * (v * y0_dot_d - ell), norm0_sq - ell * ell]
    if abs(coeffs[0]) < 1e-300:
        coeffs = coeffs[1:]
    roots = np.roots(coeffs)
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-9 and r.real >= -1e-12]
    if not real:
        raise ValueError("no interception for these parameters")
    return max(min(real), 0.0)


def _golden_min(f, lo: float, hi: float, iters: int = 90) -> float:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return min(fc, fd)


class DubinsBoundaryOracle:
    """Brute-force distance to the reachable set at one fixed time.

    Densely samples the two boundary families (turn+straight and turn+turn,
    both mirrored), takes the closest sample, and refines with a golden
    search along the curve parameter whenever the raw minimum is small
    enough for the sampling error to matter.
    """

    def __init__(self, t: float, n_per_branch: int = 25_000):
        self.t = t
        self.n = n_per_branch
        th = np.linspace(0.0, min(t, 2.0 * math.pi), n_per_branch)
        cs_x = (t - th) * np.sin(th) - np.cos(th) + 1.0
        cs_y = (t - th) * np.cos(th) + np.sin(th)
        ta = np.linspace(0.0, min(t, math.pi / 2.0), n_per_branch)
        cc_x = 2.0 * np.cos(ta) - np.cos(t - 2.0 * ta) - 1.0
        cc_y = 2.0 * np.sin(ta) + np.sin(t - 2.0 * ta)
        self.families = [
            (th, cs_x, cs_y, self._cs_point),
            (th, -cs_x, cs_y, self._cs_point_mirror),
            (ta, cc_x, cc_y, self._cc_point),
            (ta, -cc_x, cc_y, self._cc_point_mirror),
        ]

    def _cs_point(self, s: float) -> tuple[float, float]:
        t = self.t
        return (t - s) * math.sin(s) - math.cos(s) + 1.0, (t - s) * math.cos(s) + math.sin(s)

    def _cs_point_mirror(self, s: float) -> tuple[float, float]:
        x, y = self._cs_point(s)
        return -x, y

    def _cc_point(self, s: float) -> tuple[float, float]:
        t = self.t
        return 2.0 * math.cos(s) - math.cos(t - 2.0 * s) - 1.0, 2.0 * math.sin(s) + math.sin(t - 2.0 * s)

    def _cc_point_mirror(self, s: float) -> tuple[float, float]:
        x, y = self._cc_point(s)
        return -x, y

    def distance(self, p: PlanarPoint, refine_below: float = 0.05) -> float:
        if reference_dubins_contains(self.t, p):
            return 0.0
        best = math.inf
        for params, xs, ys, point_fn in self.families:
            d2 = (xs - p.x) ** 2 + (ys - p.y) ** 2
            i = int(np.argmin(d2))
            raw = math.sqrt(float(d2[i]))
            if raw < refine_below:
                lo = float(params[max(0, i - 2)])
                hi = float(params[min(len(params) - 1, i + 2)])

                def f(s, fn=point_fn):
                    x, y = fn(s)
                    return math.hypot(x - p.x, y - p.y)

                raw = min(raw, _golden_min(f, lo, hi))
            best = min(best, raw)
        return best

    def distances(self, points: list[PlanarPoint], refine_below: float = 0.05) -> list[float]:
        return [self.distance(p, refine_below) for p in points]


def reference_dubins_distance(t: float, y: PlanarPoint) -> float:
    """``dubins.distance`` composed from ``classify``, ``theta_cs`` and the float helpers.

    The region, then (off D_I) the CS angle and length decide containment and
    whether the CS family is nearest; otherwise the nearest point of the CC
    family is searched over ``cc_cubic_roots`` with one PlanarPoint per
    candidate arc split. Each float expression matches the kernel's.
    """
    region = dubins.classify(y)
    if region is dubins.DubinsRegion.D_I:
        if reference_dubins_contains(t, y):
            return 0.0
        return _reference_cc_distance(t, y)
    ax, yy = abs(y.x), y.y
    theta, length = dubins.theta_cs(y), dubins._cs(ax, yy, dubins._case(ax, yy)[1])[1]
    if reference_dubins_contains(t, y):
        return 0.0
    if theta <= t and (region is dubins.DubinsRegion.D_II or length >= t):
        return length - t
    return _reference_cc_distance(t, y)


def reference_dubins_contains(t: float, y: PlanarPoint) -> bool:
    """Whether the car can occupy y at time t: the region, the CS length, the CC window."""
    ax, yy = abs(y.x), y.y
    _, a_cs, a_cc = dubins._case(ax, yy)
    region = dubins.classify(y)
    if region is dubins.DubinsRegion.D_II:
        return t >= dubins._cs(ax, yy, a_cs)[1]
    plus, minus = dubins._cc_lengths(ax, yy, a_cc)
    if region is dubins.DubinsRegion.D_I:
        return t >= minus or (t == 0.0 and y.x == 0.0 and y.y == 0.0)
    return t >= dubins._cs(ax, yy, a_cs)[1] and (t >= minus or plus >= t)


def _reference_cc_distance(t: float, y: PlanarPoint) -> float:
    mirrored = PlanarPoint(abs(y.x), y.y)
    hi = min(t, math.pi / 2.0)
    third = t / 3.0
    taus = [0.0, hi]
    taus += [(third - 2.0 * math.atan(xi)) % dubins.TWO_PI for xi in dubins.cc_cubic_roots(t, y)]
    # cc_cubic_roots ends in math.inf there too; added here so the reference does not rely on it
    if abs(y.y + math.sin(third)) <= 1e-12:
        taus.append((third - math.pi) % dubins.TWO_PI)
    best = math.inf
    for tau in taus:
        if 0.0 <= tau <= hi:
            point = dubins._cc_point(tau, t)
            best = min(best, math.hypot(mirrored.x - point.x, mirrored.y - point.y))
    return best


def reference_samples(samples_doc: Any) -> list[list[float]]:
    """``scenario._parse_samples`` as it was before its one-pass form: every
    sample checked on its own, in order, so the first bad one is the error."""
    if not isinstance(samples_doc, list) or not samples_doc:
        raise ScenarioError("'samples' must be a non-empty list", field="samples")
    columns = times, xs, ys = [], [], []
    for i, entry in enumerate(samples_doc):
        try:
            t, (x, y) = entry
        except (TypeError, ValueError):
            t = x = y = None
        numbers = type(t) in (float, int) and type(x) in (float, int) and type(y) in (float, int)
        if not (numbers and -_MAX <= t <= _MAX and -_MAX <= x <= _MAX and -_MAX <= y <= _MAX):
            raise ScenarioError(
                f"sample #{i} must look like [t, [x, y]] with finite numbers",
                field=f"samples[{i}]",
            )
        times.append(t)
        xs.append(x)
        ys.append(y)
    return columns
