"""Benchmark of the intercept package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. Workloads are in ``workloads.py`` and the README. Each
runs in one closed loop in this single process: one round of operations is
run and checked against the reference computations, then rounds are timed
until S seconds have passed, each round's outputs compared bit for bit with
the first.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics. With ``--trace 1`` untraced rounds fill half the time,
then one round runs under the span tracer of ``tracing.py`` and the JSON
holds the per-layer metrics. Result and trace files go to perfbench/results.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 15

_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import intercept
intercept.get_plant("simple")
intercept.get_plant("dubins")
t1 = time.perf_counter()
if not intercept.__file__.startswith(sys.argv[1]):
    sys.exit("intercept imported from " + intercept.__file__)
print(repr(t1 - t0))
"""


def import_package():
    """Import intercept from this checkout's src, and nowhere else."""
    if not (SRC / "intercept" / "__init__.py").is_file():
        sys.exit(f"error: no intercept package under {SRC}")
    sys.path.insert(0, str(SRC))
    import intercept
    import intercept.benchmarks

    if not pathlib.Path(intercept.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: intercept was imported from {intercept.__file__}")
    return intercept


def measure_setup() -> float:
    """Median time of `import intercept` plus plant lookup, fresh interpreters."""
    values = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        values.append(float(out.stdout))
    return statistics.median(values)


class Runner:
    """Runs rounds of a workload's operations and keeps what they show."""

    def __init__(self, api, workload) -> None:
        self.api = api
        self.workload = workload
        self.expected: list = []
        self.rounds = 0
        self.failed_per_round = 0
        self.problems: list[str] = []
        self.problem_count = 0

    def _problem(self, text: str) -> None:
        self.problem_count += 1
        if len(self.problems) < 20:
            self.problems.append(text)

    def _call(self, i, op, call):
        try:
            return call(op)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            self._problem(f"op {i} raised {exc!r}")
            return exc

    def check_round(self) -> None:
        """Run one round and check every output in full."""
        w = self.workload
        for i, op in enumerate(w.ops):
            out = self._call(i, op, lambda f: f())
            if isinstance(out, Exception):
                self.expected.append(None)
                continue
            failed, problems = w.check(i, out, self.api)
            self.failed_per_round += failed
            for p in problems:
                self._problem(f"op {i}: {p}")
            self.expected.append(repr(out))
        self.rounds += 1

    def timed_round(self, call=lambda f: f()) -> list[int]:
        """Run one round; return each operation's time in nanoseconds."""
        w = self.workload
        clock = time.perf_counter_ns
        times = []
        for i, op in enumerate(w.ops):
            t0 = clock()
            out = self._call(i, op, call)
            times.append(clock() - t0)
            if isinstance(out, Exception) or repr(out) != self.expected[i]:
                self._problem(f"op {i} output differs from the first round")
        self.rounds += 1
        return times

    def timed_rounds(self, seconds: float) -> list[list[int]]:
        rounds = []
        end = time.perf_counter() + seconds
        while True:
            rounds.append(self.timed_round())
            if time.perf_counter() >= end:
                return rounds


def end_to_end(rounds: list[list[int]], setup_s: float) -> dict:
    op_ms = [t / 1e6 for r in rounds for t in r]
    throughput = [len(r) / (sum(r) / 1e9) for r in rounds]
    p95 = statistics.quantiles(op_ms, n=20)[-1] if len(op_ms) > 1 else op_ms[0]
    return {
        "ops_per_s": (statistics.median(throughput), "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_p95": (p95, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced(runner: Runner, seconds: float, tag: str) -> dict:
    untraced = runner.timed_rounds(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        op_ids = iter(range(len(runner.workload.ops)))
        times = runner.timed_round(lambda f: tracer.run_op(next(op_ids), f))
    finally:
        tracer.uninstall()
    for layer in tracer.missing:
        print(f"note: layer {layer} not found; its metrics are left out", file=sys.stderr)
    stats = tracer.layer_stats()
    n_ops = len(times)
    metrics = tracing.per_layer_metrics(stats, n_ops)
    metrics["trace.overhead_ratio"] = (
        sum(times) / statistics.median(sum(r) for r in untraced),
        "ratio",
    )
    metrics["code.src_lines"] = (
        sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
        "lines",
    )
    tracer.write(str(RESULTS / f"trace-{tag}.csv.gz"))
    with open(RESULTS / f"layers-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"ops": n_ops, "missing": tracer.missing, "layers": stats}, fh, indent=1)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = import_package()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_s = measure_setup() if args.trace == 0 else None

    runner = Runner(api, workloads.WORKLOADS[args.workload](api, args.seed))
    runner.check_round()
    gc.collect()
    if args.trace:
        metrics = traced(runner, args.seconds, tag)
    else:
        metrics = end_to_end(runner.timed_rounds(args.seconds), setup_s)

    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    n_ops = len(runner.workload.ops)
    result = {
        "correct": runner.problem_count == 0,
        "attempted": runner.rounds * n_ops,
        "failed": runner.rounds * runner.failed_per_round,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (RESULTS / f"result-{tag}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
