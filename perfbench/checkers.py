"""Reference computations made apart from the intercept package.

Nothing here imports ``intercept``: every function works on plain floats and
tuples, so the benchmark can check the program's outputs against them.

Conventions shared with the paper: the simple-motions plant is a unit-speed
point starting at the origin, so a target at p is captured by time t with
radius r once |p| - t <= r; the Dubins car starts at the origin heading +y
with unit speed and unit turning radius.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)

# The paper's table: capture radius 1/10, iteration counts needed to pin the
# capture time to 1e-3 / 1e-6 / 1e-9 for the simple-motions plant and for
# the Dubins car. Line rows are (xi, eta, phi, v); Lissajous rows are
# (xi, eta, omega_x, omega_y, v) with the amplitude v as the speed bound.
PUBLISHED_ELL = 0.1
PUBLISHED_ROWS = (
    ("line", (0.0, 1.0, 0.0, 0.25), (5, 10, 15), (5, 10, 15)),
    ("line", (0.0, 1.0, 0.0, 0.5), (10, 19, 29), (11, 23, 34)),
    ("line", (0.0, 1.0, 0.0, 0.75), (22, 43, 65), (48, 93, 137)),
    ("line", (1.0, 1.0, math.pi / 2, 0.25), (8, 15, 21), (7, 14, 20)),
    ("line", (1.0, 1.0, math.pi / 2, 0.5), (17, 33, 48), (17, 32, 47)),
    ("line", (1.0, 1.0, math.pi / 2, 0.75), (49, 90, 131), (49, 89, 130)),
    ("line", (-1.0, -2.0, math.pi / 4, 0.5), (3, 5, 7), (11, 18, 25)),
    ("line", (-1.0, -2.0, math.pi / 4, 0.75), (3, 5, 8), (12, 20, 28)),
    ("line", (-1.0, -2.0, math.pi / 4, 1.0), (3, 6, 9), (14, 23, 33)),
    ("line", (-2.0, 0.0, math.pi / 4, 0.5), (5, 9, 13), (19, 25, 30)),
    ("line", (-2.0, 0.0, math.pi / 4, 0.75), (6, 12, 18), (12, 31, 51)),
    ("line", (-2.0, 0.0, math.pi / 4, 1.0), (9, 18, 27), (5, 10, 15)),
    ("lissajous", (1.0, 1.0, 1.0, SQRT2, 0.5), (5, 8, 11), (6, 9, 13)),
    ("lissajous", (1.0, 1.0, 1.0, SQRT2, 1.0), (5, 7, 9), (7, 11, 16)),
    ("lissajous", (1.0, 1.0, 1.0, SQRT2, 1.5), (5, 7, 8), (10, 20, 29)),
    ("lissajous", (1.0, 1.0, 1.0, SQRT2, 2.0), (5, 7, 9), (28, 46, 64)),
    ("lissajous", (-1.0, -2.0, 1.0, SQRT2, 0.5), (12, 26, 40), (5, 8, 11)),
    ("lissajous", (-1.0, -2.0, 1.0, SQRT2, 1.0), (9, 21, 33), (6, 8, 10)),
    ("lissajous", (-1.0, -2.0, 1.0, SQRT2, 1.5), (7, 17, 26), (7, 10, 12)),
    ("lissajous", (-1.0, -2.0, 1.0, SQRT2, 2.0), (8, 20, 33), (9, 13, 16)),
    ("lissajous", (-1.0, -2.0, 1.0, 2.0, 0.5), (11, 21, 30), (13, 23, 32)),
    ("lissajous", (-1.0, -2.0, 1.0, 2.0, 1.0), (16, 26, 36), (19, 29, 39)),
    ("lissajous", (-1.0, -2.0, 1.0, 2.0, 1.5), (18, 26, 33), (21, 28, 36)),
    ("lissajous", (-1.0, -2.0, 1.0, 2.0, 2.0), (20, 26, 31), (25, 31, 36)),
    ("lissajous", (0.0, -1.0, 2.0, 1.0, 0.5), (3, 6, 9), (9, 14, 18)),
    ("lissajous", (0.0, -1.0, 2.0, 1.0, 1.0), (6, 12, 19), (12, 17, 22)),
    ("lissajous", (0.0, -1.0, 2.0, 1.0, 1.5), (17, 37, 57), (17, 22, 27)),
    ("lissajous", (0.0, -1.0, 2.0, 1.0, 2.0), (21, 36, 51), (9, 16, 23)),
)


def line_position(xi, eta, phi, v, t):
    return (xi + v * t * math.cos(phi), eta + v * t * math.sin(phi))


def lissajous_position(xi, eta, omega_x, omega_y, v, t):
    return (
        xi + v / omega_x * math.sin(omega_x * t),
        eta + v / omega_y * math.sin(omega_y * t),
    )


def polyline_position(samples, t):
    """Linear interpolation through ((t, (x, y)), ...), constant outside."""
    if t <= samples[0][0]:
        return samples[0][1]
    for (t0, (x0, y0)), (t1, (x1, y1)) in zip(samples, samples[1:]):
        if t < t1:
            w = (t - t0) / (t1 - t0)
            return (x0 + w * (x1 - x0), y0 + w * (y1 - y0))
    return samples[-1][1]


def _segment_capture(p0, w, t0, t1, r):
    """Smallest t in [t0, t1] with |p0 + w (t - t0)| <= t + r, else None.

    With s = t - t0 and c = t0 + r >= 0, capture means
    f(s) = |p0 + w s|^2 - (c + s)^2 <= 0, a quadratic in s.
    """
    c = t0 + r
    a = w[0] * w[0] + w[1] * w[1] - 1.0
    b = 2.0 * (p0[0] * w[0] + p0[1] * w[1] - c)
    f0 = p0[0] * p0[0] + p0[1] * p0[1] - c * c
    if f0 <= 0.0:
        return t0
    if a == 0.0:
        roots = [-f0 / b] if b < 0.0 else []
    else:
        disc = b * b - 4.0 * a * f0
        if disc < 0.0:
            return None
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [q / a] + ([f0 / q] if q != 0.0 else [])
    positive = [s for s in roots if s >= 0.0]
    if not positive:
        return None
    s = min(positive)
    return t0 + s if t0 + s <= t1 else None


def polyline_capture_time(samples, r):
    """Exact simple-motions capture time of a piecewise-linear target.

    ``samples`` is ((t, (x, y)), ...) starting at t = 0; the target rests at
    its last sample afterwards. Returns None when it is never captured.
    """
    for (t0, p0), (t1, p1) in zip(samples, samples[1:]):
        w = ((p1[0] - p0[0]) / (t1 - t0), (p1[1] - p0[1]) / (t1 - t0))
        hit = _segment_capture(p0, w, t0, t1, r)
        if hit is not None:
            return hit
    t_last, p_last = samples[-1]
    return _segment_capture(p_last, (0.0, 0.0), t_last, math.inf, r)


def line_capture_time(xi, eta, phi, v, r):
    """Exact simple-motions capture time of a constant-velocity target."""
    w = (v * math.cos(phi), v * math.sin(phi))
    return _segment_capture((xi, eta), w, 0.0, math.inf, r)


def lipschitz_capture_lower_bound(position, speed_bound, r):
    """Lower bound on the simple-motions capture time of any bounded-speed target.

    g(t) = |y(t)| - t - r changes by at most 1 + speed_bound per unit time,
    so the step g / (1 + speed_bound) never passes its first root. The scan
    stops once g is within 1e-13 (1 + t) of zero; every iterate, including
    one cut off by the step cap, is a lower bound on the root.
    """
    lip = 1.0 + speed_bound
    t = 0.0
    for _ in range(1_000_000):
        x, y = position(t)
        g = math.hypot(x, y) - t - r
        if g <= 1e-13 * (1.0 + t):
            break
        t += g / lip
    return t


def integrate_path(segments):
    """Endpoint and duration of a unicycle path with unit turning radius.

    ``segments`` is ((kind, duration, direction), ...) with kind "arc",
    "straight" or "wait"; arcs turn "left" or "right". The vehicle starts at
    the origin heading +y.
    """
    x, y, heading, total = 0.0, 0.0, math.pi / 2, 0.0
    for kind, duration, direction in segments:
        total += duration
        if kind == "straight":
            x += duration * math.cos(heading)
            y += duration * math.sin(heading)
        elif kind == "arc":
            side = 1.0 if direction == "left" else -1.0
            # centre of the unit turning circle lies one unit to that side
            cx = x - side * math.sin(heading)
            cy = y + side * math.cos(heading)
            heading += side * duration
            x = cx + side * math.sin(heading)
            y = cy - side * math.cos(heading)
        elif kind != "wait":
            raise ValueError(f"unknown segment kind {kind!r}")
    return (x, y), total
