"""Bit-identity of the paper table and of the shipped scenario traces.

``golden.json`` holds, as ``float.hex`` strings, the reference capture time
and the three iteration counts of each of the 56 table cells, and the full
iterate sequence (t_n, distance at t_n) of every file in ``scenarios/``.
Any change to the solver, the estimators or the distance functions that
moves one of these by a single ulp fails here.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from intercept import get_plant, parse_scenario, solve
from intercept.benchmarks import run_table

HERE = pathlib.Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def test_table_is_bit_identical():
    got = [
        {"row": c.row_label, "plant": c.plant, "t_ref": c.t_ref.hex(), "counts": list(c.counts)}
        for c in run_table()
    ]
    assert len(got) == 56
    assert got == GOLDEN["table"]


@pytest.mark.parametrize("name", sorted(GOLDEN["scenarios"]))
def test_scenario_trace_is_bit_identical(name):
    scenario = parse_scenario((SCENARIOS / name).read_text(encoding="utf-8"))
    result = solve(
        get_plant(scenario.plant), scenario.trajectory, scenario.capture, scenario.estimator
    )
    expected = GOLDEN["scenarios"][name]
    assert result.status.value == expected["status"]
    got = [[t.hex(), rho.hex()] for t, rho in result.trace.iterates]
    assert got == expected["iterates"]


def test_every_shipped_scenario_has_a_golden_trace():
    assert sorted(p.name for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN["scenarios"])
