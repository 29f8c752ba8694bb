"""The benchmark's workloads: seeded inputs, one operation each, checks.

A workload is a list of operations that is run as one round, again and
again; each operation is a closure that calls the intercept package only
through its public entry points, looked up on the package at call time.
``check`` verifies one operation's output against the reference
computations in ``checkers`` and returns (failed, problems): ``failed``
marks the known fault of a capture reported without a path, ``problems``
lists anything else that is wrong.
"""

from __future__ import annotations

import json
import math
import random
import xml.parsers.expat

import checkers

SPEED_MAX = 0.9  # every target is slower than the unit-speed plant
EPSILON_ABS = 1e-9  # the solver's stopping distance when ell = 0


def _threshold(ell: float, epsilon: float) -> float:
    return ell * (1.0 + epsilon) if ell > 0.0 else EPSILON_ABS


def _tol(t: float) -> float:
    return 1e-9 * (1.0 + abs(t))


def _latin(rng: random.Random, n: int) -> list[float]:
    """n stratified uniforms in [0, 1), one per stratum, in random order."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [(k + rng.random()) / n for k in strata]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _capture_draw(u_ell: float, u_eps: float) -> tuple[float, float]:
    """ell in {0} (one draw in ten) or log-uniform [0.02, 0.5]; epsilon
    log-uniform from 1e-9 up to where ell * epsilon reaches 1e-6.

    Above that product a capture can be reported without a path (see the
    README); whether it is depends on where the last iterate lands, so such
    draws would fail on some seeds only. The fixed inputs of each workload
    hit that fault on every run instead.
    """
    if u_ell < 0.1:
        return 0.0, _log_uniform(u_eps, 1e-9, 1e-2)
    ell = _log_uniform((u_ell - 0.1) / 0.9, 0.02, 0.5)
    return ell, _log_uniform(u_eps, 1e-9, 1e-6 / ell)


def _check_result(api, result, ell, epsilon, target_at, dubins):
    """Checks shared by every solve: status, trace, path duration and end.

    Returns (failed, problems) as ``check`` does.
    """
    threshold = _threshold(ell, epsilon)
    problems = []
    if result.status is not api.SolveStatus.INTERCEPTED:
        return False, [f"status {result.status.value}"]
    iterates = result.trace.iterates
    t_star = result.t_star
    if t_star != iterates[-1][0]:
        problems.append("t_star is not the last iterate")
    if any(t1 < t0 for (t0, _), (t1, _) in zip(iterates, iterates[1:])):
        problems.append("iterates go backwards")
    if any(rho <= ell for _, rho in iterates[:-1]):
        problems.append("an iterate before the last is within the capture radius")
    if not iterates[-1][1] <= threshold:
        problems.append("last iterate is not within the capture distance")
    path = result.path
    if path is None:
        if ell * epsilon <= 1e-6 or result.trace.final_distance <= ell + 1e-6:
            problems.append("captured without a path outside the known fault")
        return True, problems
    segments = [(s.kind, s.duration, s.direction) for s in path.segments]
    end, duration = checkers.integrate_path(segments)
    if abs(duration - t_star) > _tol(t_star):
        problems.append(f"path lasts {duration!r}, t_star is {t_star!r}")
    if dubins:
        if math.dist(end, (path.endpoint.x, path.endpoint.y)) > _tol(t_star):
            problems.append("integrated path does not end at the reported endpoint")
    else:
        # straight run then idle: the run is no longer than its duration
        run = sum(d for kind, d, _ in segments if kind == "straight")
        if math.hypot(path.endpoint.x, path.endpoint.y) > run + _tol(t_star):
            problems.append("endpoint farther than the straight run reaches")
        end = (path.endpoint.x, path.endpoint.y)
    gap = math.dist(end, target_at(t_star))
    if gap > threshold + _tol(t_star):
        problems.append(f"path ends {gap!r} from the target, above {threshold!r}")
    return False, problems


# --- paper_table ------------------------------------------------------------


class PaperTable:
    """One operation is one ``run_table()``: the paper's 56-cell experiment.

    It has no inputs, so the seed changes nothing.
    """

    def __init__(self, api, seed: int) -> None:
        del seed
        self.ops = [lambda: api.benchmarks.run_table()]
        line_rows = [
            (i, params)
            for i, (kind, params, _, _) in enumerate(checkers.PUBLISHED_ROWS)
            if kind == "line"
        ]
        self.line_times = {
            i: checkers.line_capture_time(*params, checkers.PUBLISHED_ELL)
            for i, params in line_rows
        }

    def check(self, index, cells, api):
        del index, api
        problems = []
        rows = checkers.PUBLISHED_ROWS
        if len(cells) != 2 * len(rows):
            return False, [f"{len(cells)} cells, expected {2 * len(rows)}"]
        for k, cell in enumerate(cells):
            row, plant = divmod(k, 2)
            plant_name = ("simple", "dubins")[plant]
            published = rows[row][2 + plant]
            if cell.plant != plant_name:
                problems.append(f"cell {k} is for {cell.plant}, expected {plant_name}")
            if len(cell.counts) != 3 or any(
                abs(c - p) > 1 for c, p in zip(cell.counts, published)
            ):
                problems.append(f"cell {k} counts {cell.counts}, published {published}")
            if plant_name == "simple" and row in self.line_times:
                exact = self.line_times[row]
                if abs(cell.t_ref - exact) > 1e-10:
                    problems.append(f"cell {k} t_ref {cell.t_ref!r}, quadratic {exact!r}")
        return False, problems


# --- dubins_intercepts ------------------------------------------------------


def _random_track(rng, start, n_samples, dt_range, speed_max, decimals=None):
    """A bounded-speed walk through (t, (x, y)) samples starting at ``start``."""
    x, y = start
    heading = rng.uniform(0.0, 2.0 * math.pi)
    speed = rng.uniform(0.2, speed_max)
    samples = [(0.0, (x, y))]
    t = 0.0
    for _ in range(n_samples - 1):
        dt = rng.uniform(*dt_range)
        heading += rng.gauss(0.0, 0.3)
        speed = min(speed_max, max(0.05, speed + rng.gauss(0.0, 0.05)))
        t += dt
        x += speed * dt * math.cos(heading)
        y += speed * dt * math.sin(heading)
        if decimals is not None:
            t, x, y = round(t, 3), round(x, decimals), round(y, decimals)
        samples.append((t, (x, y)))
    return samples


class _Problem:
    """A target given both to the program and to the reference checkers."""

    def __init__(self, kind, params, ell, epsilon):
        self.kind, self.params, self.ell, self.epsilon = kind, params, ell, epsilon

    def trajectory(self, api):
        if self.kind == "line":
            return api.make_line_trajectory(*self.params)
        if self.kind == "lissajous":
            xi, eta, wx, wy, v = self.params
            return api.make_lissajous_trajectory(
                xi, eta, wx, wy, v, speed_bound=v * math.sqrt(2.0)
            )
        return api.make_piecewise_linear_trajectory(
            [(t, api.PlanarPoint(x, y)) for t, (x, y) in self.params]
        )

    def position(self, t):
        if self.kind == "line":
            return checkers.line_position(*self.params, t)
        if self.kind == "lissajous":
            return checkers.lissajous_position(*self.params, t)
        return checkers.polyline_position(self.params, t)

    def simple_capture_lower_bound(self, radius):
        """No earlier than this can any unit-speed plant come within radius."""
        if self.kind == "line":
            return checkers.line_capture_time(*self.params, radius)
        if self.kind == "lissajous":
            v = self.params[-1]
            return checkers.lipschitz_capture_lower_bound(
                self.position, v * math.sqrt(2.0), radius
            )
        return checkers.polyline_capture_time(self.params, radius)


# Seed-independent inputs on which the solver stops with ell * epsilon above
# 1e-6 and a last distance above ell + 1e-6: reported captured, no path.
_MISSING_PATH_DUBINS = (
    _Problem("line", (0.0, 3.0, 0.0, 0.5), 1.0, 1e-3),
    _Problem("line", (-2.0, -2.0, 1.0, 0.25), 0.5, 1e-2),
    _Problem("lissajous", (2.0, -1.0, 1.0, 1.5, 0.5), 0.5, 1e-2),
    _Problem(
        "piecewise_linear",
        ((0.0, (3.0, 1.0)), (2.0, (3.5, 2.0)), (4.0, (2.5, 3.0))),
        1.0,
        1e-2,
    ),
)


class DubinsIntercepts:
    """One operation is one Dubins ``solve`` (best estimator, with path).

    A round is 1,500 seeded problems, a third each of lines, Lissajous curves
    with the rigorous bound v*sqrt(2) and short piecewise-linear tracks, all
    slower than the car, starting 0.3 to 5 units away (log-uniform, so near
    starts with many D_I and CC queries are common) at every bearing. The
    draws are stratified, so rounds of different seeds cost about the same.
    The fixed missing-path problems end the round.
    """

    SIZE = 1500

    def __init__(self, api, seed: int) -> None:
        rng = random.Random(seed)
        problems = []
        for kind in ("line", "lissajous", "piecewise_linear"):
            m = self.SIZE // 3
            bearing, reach, speed, heading, freq_x, freq_y, u_ell, u_eps = (
                _latin(rng, m) for _ in range(8)
            )
            for i in range(m):
                ell, epsilon = _capture_draw(u_ell[i], u_eps[i])
                near = max(0.3, 2.0 * ell)
                r0 = near * (5.0 / near) ** reach[i]
                b = 2.0 * math.pi * bearing[i]
                x0, y0 = r0 * math.cos(b), r0 * math.sin(b)
                if kind == "line":
                    params = (x0, y0, b + 2.0 * math.pi * heading[i], SPEED_MAX * speed[i])
                elif kind == "lissajous":
                    v = SPEED_MAX / math.sqrt(2.0) * speed[i]
                    params = (x0, y0, 0.5 + 1.5 * freq_x[i], 0.5 + 1.5 * freq_y[i], v)
                else:
                    n_samples = rng.randint(2, 10)
                    params = tuple(
                        _random_track(rng, (x0, y0), n_samples, (0.5, 3.0), SPEED_MAX)
                    )
                problems.append(_Problem(kind, params, ell, epsilon))
        self.problems = problems + list(_MISSING_PATH_DUBINS)
        plant = api.get_plant("dubins")
        self.ops = [self._op(api, plant, p) for p in self.problems]

    @staticmethod
    def _op(api, plant, problem):
        trajectory = problem.trajectory(api)
        capture = api.CaptureSpec(problem.ell, problem.epsilon)
        return lambda: api.solve(plant, trajectory, capture)

    def check(self, index, result, api):
        p = self.problems[index]
        failed, problems = _check_result(api, result, p.ell, p.epsilon, p.position, True)
        floor = p.simple_capture_lower_bound(_threshold(p.ell, p.epsilon))
        if floor is None or result.t_star < floor - _tol(floor):
            problems.append(f"t_star {result.t_star!r} before the simple-motions time {floor!r}")
        return failed, problems


# --- track_files ------------------------------------------------------------


def _track_document(samples, ell, epsilon):
    return json.dumps(
        {
            "plant": "simple",
            "trajectory": {"kind": "piecewise_linear"},
            "samples": [[t, [x, y]] for t, (x, y) in samples],
            "capture": {"ell": ell, "epsilon": epsilon},
            "estimator": "best",
            "horizon": 1000.0,
        }
    )


def _missing_path_track():
    samples = _random_track(random.Random(20221007), (12.0, -5.0), 1500, (0.1, 0.1), 0.8, 4)
    return samples, 1.0, 1e-2


class TrackFiles:
    """One operation handles one scenario document as ``intercept solve``
    and ``intercept plot`` do: parse, solve, emit the result, render SVG.

    A round is 64 seeded documents, the simple-motions plant chasing a
    recorded track (0.05 to 0.2 s sampling, positions to 1e-4) whose sample
    count is stratified from 200 to 5,000, then the fixed missing-path
    document (1,500 samples).
    """

    SIZE = 64

    def __init__(self, api, seed: int) -> None:
        rng = random.Random(seed)
        n = self.SIZE
        u_ell, u_eps, reach = (_latin(rng, n) for _ in range(3))
        self.cases = []
        for i in range(n):
            n_samples = round(200 * 25 ** ((i + rng.random()) / n))
            bearing = rng.uniform(0.0, 2.0 * math.pi)
            r0 = 2.0 + 18.0 * reach[i]
            start = (round(r0 * math.cos(bearing), 4), round(r0 * math.sin(bearing), 4))
            dt = rng.choice((0.05, 0.1, 0.2))
            samples = _random_track(rng, start, n_samples, (dt, dt), SPEED_MAX, 4)
            ell, epsilon = _capture_draw(u_ell[i], u_eps[i])
            self.cases.append((samples, ell, epsilon))
        self.cases.append(_missing_path_track())
        self.ops = [self._op(api, _track_document(*case)) for case in self.cases]

    @staticmethod
    def _op(api, text):
        def op():
            scenario = api.parse_scenario(text)
            plant = api.get_plant(scenario.plant)
            result = api.solve(plant, scenario.trajectory, scenario.capture, scenario.estimator)
            emitted = api.emit_result(result)
            if result.path is None:
                return result, emitted, None  # `intercept plot` exits 2 here
            times = [t for t, _ in result.trace.iterates if t > 0]
            return result, emitted, api.render_svg(plant, scenario.trajectory, result, times)

        return op

    def check(self, index, output, api):
        samples, ell, epsilon = self.cases[index]
        result, emitted, svg = output

        def target_at(t):
            return checkers.polyline_position(samples, t)

        failed, problems = _check_result(api, result, ell, epsilon, target_at, False)
        # repr writes each float in its shortest round-trip form, so equal
        # reprs mean equal bits
        if repr(api.parse_result(emitted)) != repr(result):
            problems.append("parse_result(emit_result(r)) differs from r")
        if svg is not None:
            problems += _svg_problems(svg)
        early = checkers.polyline_capture_time(samples, _threshold(ell, epsilon))
        exact = checkers.polyline_capture_time(samples, ell)
        t = result.t_star
        if exact is None or not early - _tol(t) <= t <= exact + _tol(t):
            problems.append(f"t_star {t!r} outside [{early!r}, {exact!r}]")
        return failed, problems


def _svg_problems(svg) -> list[str]:
    tags = []
    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = lambda name, attrs: tags.append(name)
    try:
        parser.Parse(svg, True)
    except xml.parsers.expat.ExpatError as exc:
        return [f"SVG does not parse: {exc}"]
    if not tags or tags[0] != "svg":
        return ["SVG root element is not <svg>"]
    return []


WORKLOADS = {
    "paper_table": PaperTable,
    "dubins_intercepts": DubinsIntercepts,
    "track_files": TrackFiles,
}
