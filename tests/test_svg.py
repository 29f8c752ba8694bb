import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import intercept
from intercept.core import (
    CaptureSpec,
    PlanarPoint,
    make_line_trajectory,
    make_lissajous_trajectory,
)
from intercept.dubins import DUBINS_CAR
from intercept.plants import SIMPLE_MOTIONS, SimpleMotions
from intercept.solver import solve
from intercept.svgplot import render_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def _solve_line(plant):
    traj = make_line_trajectory(0, 1, 0, 0.25)
    return traj, solve(plant, traj, CaptureSpec(0.1, 1e-6))


def test_import_does_not_load_elementtree():
    # render_svg writes the document as text, so neither importing the
    # package nor drawing loads an XML module
    src = pathlib.Path(intercept.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from intercept import *\n"
        "traj = make_line_trajectory(0, 1, 0, 0.25)\n"
        "result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6))\n"
        "render_svg(SIMPLE_MOTIONS, traj, result, [1.0])\n"
        "print(any(name.startswith('xml') for name in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"


def test_declaration_and_single_root():
    traj, result = _solve_line(SIMPLE_MOTIONS)
    times = [t for t, _ in result.trace.iterates if t > 0]
    svg = render_svg(SIMPLE_MOTIONS, traj, result, times)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"


def test_layer_structure_and_counts():
    traj, result = _solve_line(DUBINS_CAR)
    times = [t for t, _ in result.trace.iterates if t > 0]
    svg = render_svg(DUBINS_CAR, traj, result, times)
    root = ET.fromstring(svg)
    groups = {g.get("id"): g for g in root.findall(f"{SVG_NS}g")}
    assert set(groups) == {"reachable", "trajectory", "path", "capture"}
    polylines = groups["reachable"].findall(f"{SVG_NS}polyline")
    assert len(polylines) == len(times)
    assert len(groups["trajectory"].findall(f"{SVG_NS}polyline")) == 1
    assert len(groups["path"].findall(f"{SVG_NS}polyline")) == 1
    assert len(groups["capture"].findall(f"{SVG_NS}circle")) == 1


def test_simple_motions_circle_radii_match_iterate_times():
    traj, result = _solve_line(SIMPLE_MOTIONS)
    times = [t for t, _ in result.trace.iterates if t > 0]
    svg = render_svg(SIMPLE_MOTIONS, traj, result, times)
    root = ET.fromstring(svg)
    reachable = next(g for g in root.findall(f"{SVG_NS}g") if g.get("id") == "reachable")
    radii = [float(c.get("r")) for c in reachable.findall(f"{SVG_NS}circle")]
    assert len(radii) == len(times)
    for r, t in zip(radii, times):
        assert abs(r - t) <= 1e-9


class SquareOutlinePlant(SimpleMotions):
    """Simple motions under the same name, outlined by a square polyline."""

    def reachable_boundary(self, t):
        corners = [(t, t), (-t, t), (-t, -t), (t, -t), (t, t)]
        return [PlanarPoint(x, y) for x, y in corners]


def test_outline_comes_from_the_plant_not_its_name():
    plant = SquareOutlinePlant()
    assert plant.name == "simple"
    traj, result = _solve_line(plant)
    svg = render_svg(plant, traj, result, [0.5, 1.0])
    root = ET.fromstring(svg)
    reachable = next(g for g in root.findall(f"{SVG_NS}g") if g.get("id") == "reachable")
    assert reachable.findall(f"{SVG_NS}circle") == []
    polylines = [p.get("points") for p in reachable.findall(f"{SVG_NS}polyline")]
    assert len(polylines) == 2
    assert polylines[1] == "1.0,-1.0 -1.0,-1.0 -1.0,1.0 1.0,1.0 1.0,-1.0"


def test_missing_path_rejected():
    traj = make_line_trajectory(0, 1, math.pi / 2, 2.0)
    result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6), max_iterations=10)
    assert result.path is None
    with pytest.raises(ValueError):
        render_svg(SIMPLE_MOTIONS, traj, result, [1.0])


def test_wellformed_for_both_plants_on_lissajous():
    traj = make_lissajous_trajectory(-1, -2, 1, math.sqrt(2), 1)
    for plant in (SIMPLE_MOTIONS, DUBINS_CAR):
        result = solve(plant, traj, CaptureSpec(0.1, 1e-6))
        times = [t for t, _ in result.trace.iterates if t > 0]
        svg = render_svg(plant, traj, result, times)
        ET.fromstring(svg)  # raises on malformed XML


def test_nonpositive_times_are_skipped():
    traj, result = _solve_line(DUBINS_CAR)
    svg = render_svg(DUBINS_CAR, traj, result, [0.0, 1.0])
    root = ET.fromstring(svg)
    reachable = next(g for g in root.findall(f"{SVG_NS}g") if g.get("id") == "reachable")
    assert len(reachable.findall(f"{SVG_NS}polyline")) == 1
