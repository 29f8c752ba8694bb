"""Span tracing of the intercept package from outside it.

``Tracer.install`` replaces each layer function in ``LAYERS`` by a wrapper
that records a span (layer, start, end, parent span, operation id) and
``Tracer.uninstall`` puts the originals back. A function is wrapped where it
is looked up: a module-level function in every ``intercept`` module namespace
that binds it (so ``dubins.classify`` is caught when ``dubins.contains`` calls
it), a method on its class. A layer whose name no longer exists is listed in
``missing``, and the metrics that need it are left out.

Spans are kept in flat arrays while the run lasts and written out at its end.
A span's self time is its duration minus the time its child spans cover.

    python3 perfbench/tracing.py scenarios/lissajous_dubins.json

prints the per-layer counts of one solve of a scenario file.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# (layer name, module, attribute looked up there; "Class.method" for methods)
LAYERS = (
    ("benchmarks.run_table", "intercept.benchmarks", "run_table"),
    ("benchmarks.iteration_counts", "intercept.benchmarks", "iteration_counts"),
    ("solver.solve", "intercept.solver", "solve"),
    ("solver.refine_ground_truth", "intercept.solver", "refine_ground_truth"),
    ("solver.best_estimator", "intercept.solver", "best_estimator"),
    ("solver.simple_estimator", "intercept.solver", "simple_estimator"),
    ("scenario.parse_scenario", "intercept.scenario", "parse_scenario"),
    ("scenario.emit_result", "intercept.scenario", "emit_result"),
    ("svgplot.render_svg", "intercept.svgplot", "render_svg"),
    ("core.position", "intercept.core", "TargetTrajectory.position"),
    ("plants.simple.distance", "intercept.plants", "simple_distance"),
    ("plants.simple.path", "intercept.plants", "SimpleMotions.path"),
    ("dubins.distance", "intercept.dubins", "distance"),
    ("dubins.classify", "intercept.dubins", "classify"),
    ("dubins.theta_cs", "intercept.dubins", "theta_cs"),
    ("dubins.cc_cubic_roots", "intercept.dubins", "cc_cubic_roots"),
    ("dubins.best_step", "intercept.dubins", "DubinsCar.best_step"),
    ("dubins.path", "intercept.dubins", "DubinsCar.path"),
)

OP = "op"
REGIONS = ("D_I", "D_II", "D_III")
_ABSENT = object()


def dubins_region(x: float, y: float) -> int:
    """Index into REGIONS of the Dubins region of (x, y), from the paper.

    D_I: the open turning disks (and the origin); D_III: the lune above them
    where two CC paths exist; D_II: the rest.
    """
    ax = abs(x)
    if (x == 0.0 and y == 0.0) or ax * (ax - 2.0) + y * y < 0.0:
        return 0
    if (4.0 - ax * (2.0 + ax) - y * y) / 4.0 > -1.0 and y > 0.0:
        return 2
    return 1


def _query_region(args) -> int:
    try:
        return dubins_region(args[1].x, args[1].y)
    except (AttributeError, IndexError, TypeError):
        return -1


class Tracer:
    def __init__(self) -> None:
        self.layer_names = [OP] + [layer for layer, _, _ in LAYERS]
        self.layer = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.region = array("b")
        self.stack: list[int] = []
        self.current_op = 0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, layer_id: int, region: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.region.append(region)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, layer_id: int, fn, tag_region: bool):
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(layer_id, _query_region(args) if tag_region else -1)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)

        return wrapper

    def run_op(self, op_id: int, fn):
        """Call fn() as operation ``op_id`` under a root span."""
        self.current_op = op_id
        idx = self._open(0, -1)
        try:
            return fn()
        finally:
            self._close(idx)

    # --- installing --------------------------------------------------------

    def install(self) -> None:
        for layer_id, (layer, module_name, attr) in enumerate(LAYERS, start=1):
            owner_name, _, name = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, name, None) if owner is not None else None
            if not callable(original):
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer_id, original, layer == "dubins.distance")
            if owner_name:
                self._bind(owner, name, wrapper)
                continue
            for module_key, module in list(sys.modules.items()):
                if module_key == "intercept" or module_key.startswith("intercept."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._bind(module, key, wrapper)

    def _bind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if value is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, value)

    # --- analysis ----------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per layer: calls, total and self nanoseconds; Dubins splits."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        names = self.layer_names
        stats = {
            layer: {"calls": 0, "ns": 0, "self_ns": 0}
            for layer in names
            if layer not in self.missing
        }
        for i in range(n):
            s = stats[names[self.layer[i]]]
            s["calls"] += 1
            s["ns"] += duration[i]
            s["self_ns"] += duration[i] - child[i]

        if "dubins.distance" in stats:
            dist_id = names.index("dubins.distance")
            reached_cubic = set()
            if "dubins.cc_cubic_roots" in stats:
                cubic_id = names.index("dubins.cc_cubic_roots")
                for i in range(n):
                    if self.layer[i] == cubic_id:
                        p = self.parent[i]
                        while p >= 0 and self.layer[p] != dist_id:
                            p = self.parent[p]
                        if p >= 0:
                            reached_cubic.add(p)
            split = {k: {"calls": 0, "ns": 0} for k in REGIONS + ("CS", "CC")}
            for i in range(n):
                if self.layer[i] != dist_id:
                    continue
                keys = ["CC" if i in reached_cubic else "CS"]
                if self.region[i] >= 0:
                    keys.append(REGIONS[self.region[i]])
                for key in keys:
                    split[key]["calls"] += 1
                    split[key]["ns"] += duration[i]
            stats["dubins.distance"]["split"] = split
        return stats

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("op,span,parent,layer,start_ns,end_ns,region\n")
            names = self.layer_names
            for i in range(len(self.start)):
                region = REGIONS[self.region[i]] if self.region[i] >= 0 else ""
                fh.write(
                    f"{self.op[i]},{i},{self.parent[i]},{names[self.layer[i]]},"
                    f"{self.start[i]},{self.end[i]},{region}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# which layers report which per-layer figures
_CALLS_PER_OP = (
    "dubins.distance",
    "dubins.classify",
    "dubins.theta_cs",
    "dubins.best_step",
    "plants.simple.distance",
    "core.position",
)
_US_PER_CALL = (
    "dubins.distance",
    "dubins.cc_cubic_roots",
    "dubins.best_step",
    "dubins.path",
    "plants.simple.distance",
    "plants.simple.path",
    "core.position",
)
_PER_DISTANCE = ("dubins.classify", "dubins.theta_cs", "dubins.cc_cubic_roots")
_US_PER_OP = ("solver.refine_ground_truth", "scenario.parse_scenario", "scenario.emit_result")
_SELF_US_PER_OP = ("solver.solve", "benchmarks.iteration_counts", "svgplot.render_svg")


def per_layer_metrics(stats: dict, n_ops: int) -> dict:
    """The per-layer metrics (name -> (value, unit)) the stats support.

    A per-call or per-distance figure of a layer that made no calls reads 0.
    A metric that needs a missing layer is left out.
    """
    out = {}
    for layer in _CALLS_PER_OP:
        if layer in stats:
            out[f"{layer}.calls_per_op"] = (stats[layer]["calls"] / n_ops, "count")
    for layer in _US_PER_CALL:
        if layer in stats:
            s = stats[layer]
            out[f"{layer}.us_per_call"] = (_ratio(s["ns"] / 1e3, s["calls"]), "us")
    for layer in _US_PER_OP:
        if layer in stats:
            out[f"{layer}.us_per_op"] = (stats[layer]["ns"] / 1e3 / n_ops, "us")
    for layer in _SELF_US_PER_OP:
        if layer in stats:
            out[f"{layer}.self_us_per_op"] = (stats[layer]["self_ns"] / 1e3 / n_ops, "us")

    distance = stats.get("dubins.distance")
    if distance is not None:
        for key, s in distance["split"].items():
            out[f"dubins.distance.us_per_call.{key}"] = (_ratio(s["ns"] / 1e3, s["calls"]), "us")
        for layer in _PER_DISTANCE:
            if layer in stats:
                ratio = _ratio(stats[layer]["calls"], distance["calls"])
                out[f"{layer}.per_distance"] = (ratio, "count")

    steps = ("solver.best_estimator", "solver.simple_estimator")
    evals = ("dubins.distance", "plants.simple.distance")
    if all(layer in stats for layer in steps + evals):
        iterations = sum(stats[layer]["calls"] for layer in steps)
        distance_evals = sum(stats[layer]["calls"] for layer in evals)
        out["solver.iterations_per_op"] = (iterations / n_ops, "count")
        out["solver.distance_evals_per_iteration"] = (
            _ratio(distance_evals, iterations),
            "count",
        )
    return out


def _main(argv: list[str]) -> int:
    import pathlib

    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import intercept

    scenario = intercept.parse_scenario(pathlib.Path(argv[0]).read_text(encoding="utf-8"))
    plant = intercept.get_plant(scenario.plant)
    tracer = Tracer()
    tracer.install()
    try:
        result = tracer.run_op(
            0,
            lambda: intercept.solve(
                plant, scenario.trajectory, scenario.capture, scenario.estimator
            ),
        )
    finally:
        tracer.uninstall()
    print(f"status {result.status.value}, {result.trace.iteration_count} iterations")
    for layer, s in tracer.layer_stats().items():
        if layer != OP and s["calls"]:
            print(f"{layer:<28} {s['calls']:>6} calls")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
