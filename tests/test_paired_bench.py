"""The summary of scripts/paired_bench.py, on canned perfbench result lines."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

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


def test_interleaved_summary_on_canned_round_times():
    parent = [0.30, 0.20, 0.50, 0.25]
    change = [0.15, 0.25, 0.20, 0.10]
    # medians 0.275 and 0.175 s; the change is faster in rounds 1, 3 and 4
    assert paired_bench.summarise_rounds(parent, change) == (
        "median round 275 ms -> 175 ms, parent/change 1.571x, change faster in 3 of 4 rounds"
    )


def test_interleaved_ties_count_for_neither():
    assert paired_bench.summarise_rounds([0.1, 0.1], [0.1, 0.1]).endswith(
        "parent/change 1.000x, change faster in 0 of 2 rounds"
    )


def test_a_checkout_loads_under_another_name():
    try:
        package = paired_bench.load_package(ROOT, "intercept_under_test")
        assert package.__name__ == "intercept_under_test"
        assert package.benchmarks.__name__ == "intercept_under_test.benchmarks"
        assert package.solve.__module__ == "intercept_under_test.solver"
    finally:
        for name in [name for name in sys.modules if name.startswith("intercept_under_test")]:
            del sys.modules[name]


def test_setup_summary_on_canned_probe_times():
    parent = [0.020 + 0.001 * i for i in range(10)]  # 20..29 ms
    change = [0.013 + 0.001 * i for i in range(10)]  # 13..22 ms, faster in every pair
    # parent median 24.5 ms with quartiles 22.25 and 26.75: the gap of 7 ms is wider
    assert paired_bench.summarise_setup(parent, change, 0.25) == (
        "setup_s: 24.50 ms [IQR 22.25-26.75] -> 17.50 ms [IQR 15.25-19.75],"
        " parent/change 1.400x, change faster in 10 of 10 pairs: gain"
    )
    # faster in 8 of 10 pairs only: no gain, and inside the bound
    mixed = change[:8] + parent[8:]
    assert paired_bench.summarise_setup(parent, mixed, 0.25).endswith(
        "change faster in 8 of 10 pairs: within the bound"
    )


def test_a_checkout_runner_probes_that_checkout():
    try:
        runner = paired_bench.load_runner(ROOT, "run_under_test")
        assert runner.__name__ == "run_under_test"
        assert runner.SRC == ROOT / "src"
        assert callable(runner.measure_setup)
    finally:
        sys.modules.pop("run_under_test", None)
