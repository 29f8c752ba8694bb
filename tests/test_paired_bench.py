"""The summary of scripts/paired_bench.py, on canned perfbench result lines."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "scripts" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def line(ops, p50, correct=True, failed=0):
    """A result line of perfbench/run.py, parsed."""
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "op_ms_p50": {"value": p50, "unit": "ms"},
        },
    }


def test_a_clear_gain():
    pairs = [(line(100 + i, 10.0), line(130 + i, 8.0)) for i in range(10)]
    ops, p50 = paired_bench.summarise(pairs, METRICS)
    # parent 100..109: median 104.5, quartiles 102.25 and 106.75
    assert ops == (
        "ops_per_s (1/s): 104.5 [IQR 102.25-106.75] -> 134.5 (+28.7%),"
        " change better in 10 of 10: gain"
    )
    assert p50 == (
        "op_ms_p50 (ms): 10 [IQR 10-10] -> 8 (-20.0%), change better in 10 of 10: gain"
    )


def test_ties_count_for_neither_and_a_small_shift_is_no_gain():
    pairs = [(line(100.0, 10.0), line(100.0, 10.0))] * 5 + [
        (line(100.0 + i, 10.0), line(101.0 + i, 10.0)) for i in range(5)
    ]
    ops, p50 = paired_bench.summarise(pairs, METRICS)
    assert "change better in 5 of 10: within the bound" in ops
    assert p50.endswith("change better in 0 of 10: within the bound")


def test_a_regression_beyond_the_bound():
    pairs = [(line(100.0, 10.0 + 0.1 * i), line(100.0, 13.0 + 0.1 * i)) for i in range(10)]
    _, p50 = paired_bench.summarise(pairs, METRICS)
    assert p50.endswith("change better in 0 of 10: WORSE beyond the 0.25 bound")


def test_a_wide_parent_spread_is_unresolved():
    parent = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    change = [p * 1.05 if i % 2 else p * 0.99 for i, p in enumerate(parent)]
    pairs = [(line(p, 10.0), line(c, 10.0)) for p, c in zip(parent, change)]
    ops, _ = paired_bench.summarise(pairs, METRICS)
    assert ops.endswith("unresolved: the parent spreads wider than the bound")


@pytest.mark.parametrize(
    "bad",
    [line(100.0, 10.0, correct=False), line(100.0, 10.0, failed=3)],
    ids=["incorrect", "failed"],
)
@pytest.mark.parametrize("side", [0, 1], ids=["parent", "change"])
def test_refuses_an_incorrect_or_failing_run(bad, side):
    good = line(100.0, 10.0)
    pair = (bad, good) if side == 0 else (good, bad)
    with pytest.raises(paired_bench.RunError, match="pair 2"):
        paired_bench.summarise([(good, good), pair], METRICS)
