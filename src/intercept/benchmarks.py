"""Built-in benchmark scenarios and their reference iteration counts.

Each row pairs a target trajectory (capture radius 1/10 throughout) with
the published iteration counts needed to reach capture-time precisions of
1e-3, 1e-6 and 1e-9 for both plants. ``run_table`` recomputes the counts
and flags each cell that lands within one iteration of the reference.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .core import TargetTrajectory, make_line_trajectory, make_lissajous_trajectory
from .plants import PLANT_NAMES, get_plant
from .solver import ConvergenceError, refine_iterates

CAPTURE_RADIUS = 0.1
PRECISIONS = (1e-3, 1e-6, 1e-9)

SQRT2 = math.sqrt(2.0)


class BenchmarkRow(NamedTuple):
    label: str
    trajectory: TargetTrajectory
    reference: dict[str, tuple[int, int, int]]  # plant -> counts per precision


def _line(xi, eta, phi, v, simple_counts, dubins_counts, phi_label):
    return BenchmarkRow(
        label=f"line xi={xi} eta={eta} phi={phi_label} v={v}",
        trajectory=make_line_trajectory(xi, eta, phi, v),
        reference={"simple": simple_counts, "dubins": dubins_counts},
    )


def _lissajous(xi, eta, wx, wy, v, simple_counts, dubins_counts, w_label):
    return BenchmarkRow(
        label=f"lissajous xi={xi} eta={eta} {w_label} v={v}",
        trajectory=make_lissajous_trajectory(xi, eta, wx, wy, v),
        reference={"simple": simple_counts, "dubins": dubins_counts},
    )


def benchmark_rows() -> list[BenchmarkRow]:
    pi = math.pi
    rows = [
        _line(0, 1, 0.0, 1 / 4, (5, 10, 15), (5, 10, 15), "0"),
        _line(0, 1, 0.0, 1 / 2, (10, 19, 29), (11, 23, 34), "0"),
        _line(0, 1, 0.0, 3 / 4, (22, 43, 65), (48, 93, 137), "0"),
        _line(1, 1, pi / 2, 1 / 4, (8, 15, 21), (7, 14, 20), "pi/2"),
        _line(1, 1, pi / 2, 1 / 2, (17, 33, 48), (17, 32, 47), "pi/2"),
        _line(1, 1, pi / 2, 3 / 4, (49, 90, 131), (49, 89, 130), "pi/2"),
        _line(-1, -2, pi / 4, 1 / 2, (3, 5, 7), (11, 18, 25), "pi/4"),
        _line(-1, -2, pi / 4, 3 / 4, (3, 5, 8), (12, 20, 28), "pi/4"),
        _line(-1, -2, pi / 4, 1.0, (3, 6, 9), (14, 23, 33), "pi/4"),
        _line(-2, 0, pi / 4, 1 / 2, (5, 9, 13), (19, 25, 30), "pi/4"),
        _line(-2, 0, pi / 4, 3 / 4, (6, 12, 18), (12, 31, 51), "pi/4"),
        _line(-2, 0, pi / 4, 1.0, (9, 18, 27), (5, 10, 15), "pi/4"),
        _lissajous(1, 1, 1.0, SQRT2, 1 / 2, (5, 8, 11), (6, 9, 13), "wx=1 wy=sqrt2"),
        _lissajous(1, 1, 1.0, SQRT2, 1.0, (5, 7, 9), (7, 11, 16), "wx=1 wy=sqrt2"),
        _lissajous(1, 1, 1.0, SQRT2, 3 / 2, (5, 7, 8), (10, 20, 29), "wx=1 wy=sqrt2"),
        _lissajous(1, 1, 1.0, SQRT2, 2.0, (5, 7, 9), (28, 46, 64), "wx=1 wy=sqrt2"),
        _lissajous(-1, -2, 1.0, SQRT2, 1 / 2, (12, 26, 40), (5, 8, 11), "wx=1 wy=sqrt2"),
        _lissajous(-1, -2, 1.0, SQRT2, 1.0, (9, 21, 33), (6, 8, 10), "wx=1 wy=sqrt2"),
        _lissajous(-1, -2, 1.0, SQRT2, 3 / 2, (7, 17, 26), (7, 10, 12), "wx=1 wy=sqrt2"),
        _lissajous(-1, -2, 1.0, SQRT2, 2.0, (8, 20, 33), (9, 13, 16), "wx=1 wy=sqrt2"),
        _lissajous(-1, -2, 1.0, 2.0, 1 / 2, (11, 21, 30), (13, 23, 32), "wx=1 wy=2"),
        _lissajous(-1, -2, 1.0, 2.0, 1.0, (16, 26, 36), (19, 29, 39), "wx=1 wy=2"),
        _lissajous(-1, -2, 1.0, 2.0, 3 / 2, (18, 26, 33), (21, 28, 36), "wx=1 wy=2"),
        _lissajous(-1, -2, 1.0, 2.0, 2.0, (20, 26, 31), (25, 31, 36), "wx=1 wy=2"),
        _lissajous(0, -1, 2.0, 1.0, 1 / 2, (3, 6, 9), (9, 14, 18), "wx=2 wy=1"),
        _lissajous(0, -1, 2.0, 1.0, 1.0, (6, 12, 19), (12, 17, 22), "wx=2 wy=1"),
        _lissajous(0, -1, 2.0, 1.0, 3 / 2, (17, 37, 57), (17, 22, 27), "wx=2 wy=1"),
        _lissajous(0, -1, 2.0, 1.0, 2.0, (21, 36, 51), (9, 16, 23), "wx=2 wy=1"),
    ]
    return rows


def iteration_counts(
    times: Sequence[float],
    t_ref: float,
    deltas: tuple[float, ...] = PRECISIONS,
) -> tuple[int, ...]:
    """Smallest n with t_ref - times[n] < delta, for each delta.

    ``times`` is an iterate sequence starting at t_0 = 0, so n counts
    applications of the estimator step.
    """
    counts = []
    for delta in deltas:
        n = next((n for n, t in enumerate(times) if t_ref - t < delta), None)
        if n is None:
            raise ConvergenceError(f"precision {delta} not reached in {len(times) - 1} steps")
        counts.append(n)
    return tuple(counts)


class TableCellResult(NamedTuple):
    row_label: str
    plant: str
    t_ref: float
    counts: tuple[int, ...]
    reference: tuple[int, ...]

    @property
    def matches(self) -> tuple[bool, ...]:
        return tuple(abs(c - r) <= 1 for c, r in zip(self.counts, self.reference))


def run_table() -> list[TableCellResult]:
    """Recompute every benchmark cell for both plants.

    One refinement run per cell gives both the reference capture time (its
    last iterate) and the iteration counts (read off its iterates).
    """
    results = []
    for row in benchmark_rows():
        for plant_name in PLANT_NAMES:
            plant = get_plant(plant_name)
            times = list(refine_iterates(plant, row.trajectory, CAPTURE_RADIUS))
            t_ref = times[-1]
            counts = iteration_counts(times, t_ref)
            results.append(
                TableCellResult(
                    row.label, plant_name, t_ref, counts, row.reference[plant_name]
                )
            )
    return results
