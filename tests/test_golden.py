"""Bit-identity of the paper table and of the shipped scenario traces.

``golden.json`` holds, as ``float.hex`` strings, the reference capture time
and the three iteration counts of each of the 56 table cells, and the full
iterate sequence (t_n, distance at t_n) of every file in ``scenarios/``.
It also holds the Dubins distance (as ``float.hex``) at about 2,000 seeded
queries plus boundary samples; a distance of 0.0 is the membership answer.
Any change to the solver, the estimators or the distance functions that
moves one of these by a single ulp fails here. Finally it holds the SHA-256
digest of the ``render_svg`` document of every shipped scenario, of the
showcase Lissajous solve of ``scripts/plot_interception.py`` and of a capture
at t = 0 on both plants, and one digest over seeded line solves on both
plants, so a change to how plants are drawn or how the document is written
must keep every SVG byte-identical. Three SHA-256 digests cover seeded solve
documents and ``plant.path`` answers at points outside and inside the
reachable set, so a change to how plants build paths must keep every path
bit-identical, and one that moves only paths to reachable points shows as
exactly that.
Last, for three seeded recorded-track documents (200, 1,000 and 5,000
samples written as a mix of integer and float literals), it holds the SHA-256
of the re-emitted scenario and of the solve's result document, so a change
to how tracks are parsed, stored or evaluated must keep both byte-identical.
``scripts/make_golden.py`` rewrites the file from the functions below, byte
for byte on an unchanged tree; the last test checks that.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import pathlib
import random

import pytest

from intercept import (
    CaptureSpec,
    EstimatorKind,
    PlanarPoint,
    dubins,
    emit_result,
    emit_scenario,
    get_plant,
    make_line_trajectory,
    make_lissajous_trajectory,
    parse_scenario,
    render_svg,
    solve,
)
from intercept.benchmarks import run_table

HERE = pathlib.Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def table_entries() -> list[dict]:
    return [
        {"row": c.row_label, "plant": c.plant, "t_ref": c.t_ref.hex(), "counts": list(c.counts)}
        for c in run_table()
    ]


def test_table_is_bit_identical():
    got = table_entries()
    assert len(got) == 56
    assert got == GOLDEN["table"]


def scenario_trace(name: str) -> dict:
    """The status and the iterates, as ``float.hex``, of the shipped scenario ``name``."""
    scenario = parse_scenario((SCENARIOS / name).read_text(encoding="utf-8"))
    result = solve(
        get_plant(scenario.plant), scenario.trajectory, scenario.capture, scenario.estimator
    )
    iterates = [[t.hex(), rho.hex()] for t, rho in result.trace.iterates]
    return {"status": result.status.value, "iterates": iterates}


@pytest.mark.parametrize("name", sorted(GOLDEN["scenarios"]))
def test_scenario_trace_is_bit_identical(name):
    assert scenario_trace(name) == GOLDEN["scenarios"][name]


def test_every_shipped_scenario_has_a_golden_trace():
    assert sorted(p.name for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN["scenarios"])


def dubins_queries() -> list[tuple[float, PlanarPoint]]:
    """Seeded (t, point) queries over all three regions, plus boundary samples."""
    rng = random.Random(4)
    queries = []
    for i in range(2000):
        scale = 5.0 if i % 2 else 2.5
        point = PlanarPoint(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        queries.append((rng.uniform(0.0, 9.0), point))
    for t in (0.5, 1.0, 2.0, 3.0, math.pi, 4.0, 5.5, 7.0):
        for p in dubins.boundary_points(t, 9):  # each sample, then its mirror image
            queries += [(t, p), (t, PlanarPoint(-p.x, p.y))]
    for x, y in ((0.0, 0.0), (0.0, 3.0), (2.0, 0.0), (-2.0, 0.0), (0.0, -1.0), (1.0, 1.0)):
        for t in (0.0, 1.0, math.pi, 6.0):
            queries.append((t, PlanarPoint(x, y)))
    return queries


def dubins_distances() -> list[str]:
    return [dubins.distance(t, p).hex() for t, p in dubins_queries()]


def test_dubins_distance_is_bit_identical():
    assert dubins_distances() == GOLDEN["dubins"]["distance"]


def svg_cases():
    """(name, plant name, trajectory, capture, estimator) of every digested SVG."""
    cases = []
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        cases.append(
            (path.name, scenario.plant, scenario.trajectory, scenario.capture, scenario.estimator)
        )
    # the showcase of scripts/plot_interception.py
    showcase = make_lissajous_trajectory(-1.0, -2.0, 1.0, math.sqrt(2.0), 1.0)
    # captured at t = 0: no iterate time, so an empty reachable group
    at_start = make_line_trajectory(0.05, 0.0, 0.0, 0.1)
    for name, trajectory in (("showcase", showcase), ("capture_at_start", at_start)):
        for plant_name in ("simple", "dubins"):
            cases.append(
                (
                    f"{name}_{plant_name}",
                    plant_name,
                    trajectory,
                    CaptureSpec(0.1, 1e-6),
                    EstimatorKind.BEST,
                )
            )
    return cases


def svg_document(plant, trajectory, result) -> str:
    """``render_svg`` of a solve, with the reachable sets at its positive iterate times."""
    times = [t for t, _ in result.trace.iterates if t > 0]
    return render_svg(plant, trajectory, result, times)


def sha256(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def svg_digest(case) -> str:
    _, plant_name, trajectory, capture, estimator = case
    plant = get_plant(plant_name)
    return sha256([svg_document(plant, trajectory, solve(plant, trajectory, capture, estimator))])


@pytest.mark.parametrize("case", svg_cases(), ids=lambda case: case[0])
def test_svg_is_byte_identical(case):
    assert svg_digest(case) == GOLDEN["svg"][case[0]]


def line_solves(rng: random.Random, plant, per_cell: int):
    """(trajectory, result) of seeded line solves on ``plant``.

    ``per_cell`` solves for each ell in {0, 0.05, 0.3} and epsilon in
    {1e-9, 1e-6, 1e-3}.
    """
    for ell in (0.0, 0.05, 0.3):
        for epsilon in (1e-9, 1e-6, 1e-3):
            for _ in range(per_cell):
                trajectory = make_line_trajectory(
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(-3.0, 3.0),
                    rng.uniform(0.0, 2.0 * math.pi),
                    rng.uniform(0.0, 0.9),
                )
                yield trajectory, solve(plant, trajectory, CaptureSpec(ell, epsilon))


def line_svg_documents():
    """``render_svg`` of seeded line solves on both plants that end with a path.

    Two solves per capture cell: a Dubins outline costs about 3 ms to draw.
    """
    rng = random.Random(11)
    for plant_name in ("simple", "dubins"):
        plant = get_plant(plant_name)
        for trajectory, result in line_solves(rng, plant, 2):
            if result.path is not None:
                yield svg_document(plant, trajectory, result)


def test_line_solve_svgs_are_byte_identical():
    assert sha256(line_svg_documents()) == GOLDEN["svg"]["line_solves"]


def path_documents() -> dict[str, list[str]]:
    """Texts that spell out every path value of both plants bit for bit, by kind.

    ``solves``: ``emit_result`` of 32 seeded ``line_solves`` per capture cell.
    ``outside`` and ``inside``: ``repr(plant.path(...))`` at seeded points on
    both sides of the y-axis and on it (x = 0.0 and x = -0.0), each queried
    with its own distance plus 1e-9 as the reach; ``outside`` holds the points
    at a positive distance, ``inside`` those at distance 0.0.
    """
    documents: dict[str, list[str]] = {"solves": [], "outside": [], "inside": []}
    rng = random.Random(7)
    for plant_name in ("simple", "dubins"):
        plant = get_plant(plant_name)
        for _, result in line_solves(rng, plant, 32):
            documents["solves"].append(emit_result(result))
        for i in range(3000):
            x = (0.0, -0.0)[i % 2] if i % 10 < 2 else rng.uniform(-4.0, 4.0)
            point = PlanarPoint(x, rng.uniform(-4.0, 4.0))
            t = rng.uniform(0.0, 8.0)
            rho = plant.distance(t, point)
            kind = "outside" if rho > 0.0 else "inside"
            documents[kind].append(repr(plant.path(t, point, 0.1, rho + 1e-9)))
    return documents


def path_digests() -> dict[str, str]:
    """One SHA-256 digest per kind of ``path_documents``."""
    return {kind: sha256(texts) for kind, texts in path_documents().items()}


def test_paths_are_bit_identical():
    assert path_digests() == GOLDEN["paths"]


TRACKS = {
    "track_200_dubins": (200, "dubins", 0.1, 1e-6),
    "track_1000_simple": (1000, "simple", 0.5, 1e-9),
    "track_5000_dubins": (5000, "dubins", 0.05, 1e-3),
}


def track_document(name: str) -> str:
    """A seeded recorded-track scenario document.

    The target walks on a grid of 1/16 with time steps of 1/4 or 1/2, and
    half of its positions are moved off the grid to 4 decimals. Integral
    values are written as integer literals half of the time.
    """
    n_samples, plant, ell, epsilon = TRACKS[name]
    rng = random.Random(n_samples)

    def literal(value: float) -> float | int:
        return int(value) if value.is_integer() and rng.random() < 0.5 else value

    bearing = rng.uniform(0.0, 2.0 * math.pi)
    reach = rng.uniform(3.0, 15.0)
    t = 0.0
    x, y = float(round(reach * math.cos(bearing))), float(round(reach * math.sin(bearing)))
    samples = []
    for _ in range(n_samples):
        px, py = x, y
        if rng.random() < 0.5:
            px, py = round(x + rng.uniform(-0.01, 0.01), 4), round(y + rng.uniform(-0.01, 0.01), 4)
        samples.append([literal(t), [literal(px), literal(py)]])
        t += rng.choice((0.25, 0.5))
        x += rng.choice((-1, 0, 1)) * 0.0625
        y += rng.choice((-1, 0, 1)) * 0.0625
    doc = {
        "plant": plant,
        "trajectory": {"kind": "piecewise_linear"},
        "samples": samples,
        "capture": {"ell": ell, "epsilon": epsilon},
        "horizon": 1000.0,
    }
    return json.dumps(doc)


def track_digests(name: str) -> dict:
    """The digests of the re-emitted track document ``name`` and of its solve's result."""
    scenario = parse_scenario(track_document(name))
    result = solve(
        get_plant(scenario.plant), scenario.trajectory, scenario.capture, scenario.estimator
    )
    assert result.status.value == "intercepted"
    return {"scenario": sha256([emit_scenario(scenario)]), "result": sha256([emit_result(result)])}


@pytest.mark.parametrize("name", sorted(TRACKS))
def test_track_documents_are_byte_identical(name):
    assert track_digests(name) == GOLDEN["tracks"][name]


def test_generator_rewrites_the_file_byte_for_byte():
    # so that a deliberate change shows in ``git diff`` exactly as the values it moved
    script = HERE.parent / "scripts" / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", script)
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    assert make_golden.golden_text().encode("utf-8") == (HERE / "golden.json").read_bytes()
