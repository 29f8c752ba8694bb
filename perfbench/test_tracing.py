"""The span tracer and the metric names the benchmark reports.

Run with ``python3 -m pytest perfbench``.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import intercept  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402


def _solve():
    return intercept.solve(
        intercept.get_plant("dubins"),
        intercept.make_line_trajectory(0.0, 1.0, 0.0, 0.25),
        intercept.CaptureSpec(0.1, 1e-6),
    )


def _traced_solve(tracer):
    tracer.install()
    try:
        return tracer.run_op(0, _solve)
    finally:
        tracer.uninstall()


def test_tracing_changes_no_result_and_uninstall_restores():
    originals = (intercept.solve, intercept.dubins.distance, intercept.core.TargetTrajectory.position)
    tracer = tracing.Tracer()
    assert _traced_solve(tracer) == _solve()
    assert originals == (
        intercept.solve,
        intercept.dubins.distance,
        intercept.core.TargetTrajectory.position,
    )
    stats = tracer.layer_stats()
    assert stats["solver.solve"]["calls"] == 1
    assert stats["dubins.distance"]["calls"] > stats["solver.best_estimator"]["calls"] > 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    _traced_solve(tracer)
    stats = tracer.layer_stats()
    solve = stats["solver.solve"]
    assert 0 < solve["self_ns"] < solve["ns"]
    assert stats[tracing.OP]["self_ns"] <= stats[tracing.OP]["ns"] - solve["ns"]


def test_missing_layer_is_reported_and_its_metrics_left_out(monkeypatch):
    layers = [layer for layer in tracing.LAYERS if layer[0] != "dubins.classify"]
    layers.append(("dubins.classify", "intercept.dubins", "no_such_function"))
    layers.append(("gone.method", "intercept.dubins", "NoSuchClass.method"))
    monkeypatch.setattr(tracing, "LAYERS", tuple(layers))
    tracer = tracing.Tracer()
    _traced_solve(tracer)
    assert tracer.missing == ["dubins.classify", "gone.method"]
    metrics = tracing.per_layer_metrics(tracer.layer_stats(), 1)
    assert "dubins.classify.per_distance" not in metrics
    assert "dubins.classify.calls_per_op" not in metrics
    assert metrics["dubins.distance.calls_per_op"][0] > 0


def test_region_of_query_points():
    assert tracing.REGIONS[tracing.dubins_region(0.5, 0.0)] == "D_I"  # inside a turning disk
    assert tracing.REGIONS[tracing.dubins_region(0.0, 0.5)] == "D_III"  # just ahead
    assert tracing.REGIONS[tracing.dubins_region(0.0, -3.0)] == "D_II"  # behind


def test_reported_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    _traced_solve(tracer)
    per_layer = set(tracing.per_layer_metrics(tracer.layer_stats(), 1))
    per_layer |= {"trace.overhead_ratio", "code.src_lines"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    end_to_end = run.end_to_end([[1_000_000, 2_000_000], [1_500_000, 1_000_000]], 0.05)
    assert set(end_to_end) == {m["name"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    metrics = {**tracing.per_layer_metrics(tracer.layer_stats(), 1), **end_to_end}
    assert all(units[name] == unit for name, (_, unit) in metrics.items())
