"""SVG rendering of an interception: target path, reachable boundaries, path.

Output convention: world coordinates with the y-axis flipped (so +y is up
on screen) and a viewBox fitted to everything drawn with a 10% margin.
No coordinate scaling is applied, which keeps circle radii equal to their
world-space values.
"""

from __future__ import annotations

from .core import PlanarPoint, TargetTrajectory
from .plants import PlantModel
from .solver import SolveResult

# each layer's group attributes after its id, in the order they are written
_STYLE = {
    "reachable": 'fill="none" stroke="#888888" stroke-width="0.01" stroke-dasharray="0.05 0.05"',
    "trajectory": 'fill="none" stroke="#000000" stroke-width="0.015"',
    "path": 'fill="none" stroke="#cc0000" stroke-width="0.02"',
    "capture": 'fill="none" stroke="#cc0000" stroke-width="0.01"',
}


def _fmt(v: float) -> str:
    return repr(float(v))


def _group(name: str, body: str) -> str:
    # an empty group (no reachable set before a capture at t = 0) closes itself
    head = f'<g id="{name}" {_STYLE[name]}'
    return f"{head}>{body}</g>" if body else f"{head} />"


def render_svg(
    plant: PlantModel,
    trajectory: TargetTrajectory,
    result: SolveResult,
    times: list[float],
) -> str:
    """Render the scenario to an SVG document string.

    Draws the target trajectory over [0, t_star], the reachable-set boundary
    at each positive time in ``times`` as the plant outlines it (a circle for
    a disk radius, otherwise a polyline), the reconstructed interception path
    as the plant samples it, and a capture circle at the intercept whose
    radius is the achieved separation.
    """
    if result.path is None:
        raise ValueError("result carries no interception path to draw")
    t_star = result.t_star
    # the extent of everything drawn, y flipped, for the viewBox
    xs: list[float] = []
    ys: list[float] = []

    def polyline(points: list[PlanarPoint]) -> str:
        px, py = zip(*points)
        xs.extend((min(px), max(px)))
        ys.extend((-max(py), -min(py)))
        # flip y so mathematical +y renders upward
        coords = " ".join([f"{float(x)!r},{float(-y)!r}" for x, y in points])
        return f'<polyline points="{coords}" />'

    n_traj = 256
    horizon = t_star if t_star > 0 else 1.0
    traj_line = polyline([trajectory.position(horizon * i / n_traj) for i in range(n_traj + 1)])

    outlines = []
    for t in times:
        if t <= 0:
            continue
        outline = plant.reachable_boundary(t)
        if isinstance(outline, list):
            outlines.append(polyline(outline))
        else:
            xs += [outline, -outline]
            ys += [-outline, outline]
            outlines.append(f'<circle cx="0.0" cy="0.0" r="{_fmt(outline)}" />')

    path_line = polyline(plant.sample_path(result.path))

    center = trajectory.position(t_star)
    radius = result.trace.final_distance
    xs += [center.x + radius, center.x - radius]
    ys += [-(center.y + radius), -(center.y - radius)]
    capture = f'<circle cx="{_fmt(center.x)}" cy="{_fmt(-center.y)}" r="{_fmt(radius)}" />'

    x0, y0 = min(xs), min(ys)
    width, height = max(xs) - x0, max(ys) - y0
    margin = 0.1 * max(width, height, 1e-6)
    view = (x0 - margin, y0 - margin, width + 2 * margin, height + 2 * margin)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{" ".join(_fmt(v) for v in view)}">'
        + _group("reachable", "".join(outlines))
        + _group("trajectory", traj_line)
        + _group("path", path_line)
        + _group("capture", capture)
        + "</svg>\n"
    )
