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

_STYLE = {
    "reachable": {"fill": "none", "stroke": "#888888", "stroke-width": "0.01",
                  "stroke-dasharray": "0.05 0.05"},
    "trajectory": {"fill": "none", "stroke": "#000000", "stroke-width": "0.015"},
    "path": {"fill": "none", "stroke": "#cc0000", "stroke-width": "0.02"},
    "capture": {"fill": "none", "stroke": "#cc0000", "stroke-width": "0.01"},
}


def _fmt(v: float) -> str:
    return repr(float(v))


def _points_attr(points: list[PlanarPoint]) -> str:
    # flip y so mathematical +y renders upward
    return " ".join(f"{_fmt(p.x)},{_fmt(-p.y)}" for p in points)


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
    # imported here so that `import intercept` does not load the XML package
    import xml.etree.ElementTree as ET

    if result.path is None:
        raise ValueError("result carries no interception path to draw")
    t_star = result.t_star

    all_points: list[PlanarPoint] = []

    n_traj = 256
    horizon = t_star if t_star > 0 else 1.0
    traj_points = [trajectory.position(horizon * i / n_traj) for i in range(n_traj + 1)]
    all_points += traj_points

    svg = ET.Element("svg", {"xmlns": "http://www.w3.org/2000/svg", "version": "1.1"})
    g_reach = ET.SubElement(svg, "g", {"id": "reachable", **_STYLE["reachable"]})
    for t in times:
        if t <= 0:
            continue
        outline = plant.reachable_boundary(t)
        if isinstance(outline, list):
            all_points += outline
            ET.SubElement(g_reach, "polyline", {"points": _points_attr(outline)})
        else:
            all_points += [PlanarPoint(outline, outline), PlanarPoint(-outline, -outline)]
            ET.SubElement(
                g_reach, "circle", {"cx": _fmt(0.0), "cy": _fmt(0.0), "r": _fmt(outline)}
            )

    path_points = plant.sample_path(result.path)
    all_points += path_points

    capture_center = trajectory.position(t_star)
    capture_radius = result.trace.final_distance
    all_points.append(capture_center + PlanarPoint(capture_radius, capture_radius))
    all_points.append(capture_center - PlanarPoint(capture_radius, capture_radius))

    xs = [p.x for p in all_points]
    ys = [-p.y for p in all_points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-6)
    margin = 0.1 * span
    view = (
        min(xs) - margin,
        min(ys) - margin,
        (max(xs) - min(xs)) + 2 * margin,
        (max(ys) - min(ys)) + 2 * margin,
    )
    svg.set("viewBox", " ".join(_fmt(v) for v in view))

    g_traj = ET.SubElement(svg, "g", {"id": "trajectory", **_STYLE["trajectory"]})
    ET.SubElement(g_traj, "polyline", {"points": _points_attr(traj_points)})

    g_path = ET.SubElement(svg, "g", {"id": "path", **_STYLE["path"]})
    ET.SubElement(g_path, "polyline", {"points": _points_attr(path_points)})

    g_capture = ET.SubElement(svg, "g", {"id": "capture", **_STYLE["capture"]})
    ET.SubElement(
        g_capture,
        "circle",
        {
            "cx": _fmt(capture_center.x),
            "cy": _fmt(-capture_center.y),
            "r": _fmt(capture_radius),
        },
    )

    body = ET.tostring(svg, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"
