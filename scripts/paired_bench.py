#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, and their summary.

    python3 scripts/paired_bench.py PARENT_DIR CHANGE_DIR --workload W --runs N --seconds S
    python3 scripts/paired_bench.py PARENT_DIR CHANGE_DIR --workload W --interleaved N

The first form runs ``perfbench/run.py --trace 0`` N times in each
checkout, one pair at a time, alternating which checkout goes first, and
prints each run's result line as it finishes. It then prints, for each
end-to-end metric of ``BENCHMARK.json``, the parent's median with its
quartiles, the change's median, and in how many pairs the change was
better (ties count for neither side). The verdict follows the benchmark's rules: a gain needs the
change better in at least nine tenths of the pairs and the medians apart by
more than the parent's interquartile range; a metric whose median got worse
by more than its bound is a regression; a parent spread wider than the
bound leaves the metric unresolved unless every change run beats every
parent run. Nothing is summarised if any run is not ``correct`` or has
``failed > 0``.

The second form loads both checkouts' ``src/intercept`` into this one
process, as the packages ``intercept_parent`` and ``intercept_change``, and
builds the workload of CHANGE_DIR's ``perfbench/workloads.py`` on each. It
runs one round on each side and stops unless every operation's output has
the same ``repr`` on both. It then times N whole rounds per side, the two
sides taking turns and the first of each pair flipped every round, so a
drift of the machine's speed falls on both alike. It prints both median
round times, their ratio and how many rounds the change won.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import statistics
import subprocess
import sys
import time


class RunError(ValueError):
    """A run the summary must not use: not correct, with failed operations, or
    with outputs that differ between the two checkouts."""


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``checkout``; its result line as a dict."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """One line per metric from (parent, change) result dicts.

    ``metrics`` are the ``end_to_end`` entries of BENCHMARK.json (name, unit,
    better, bound). Raises RunError if a run is not correct or failed any
    operation.
    """
    for n, pair in enumerate(pairs, start=1):
        for side, result in zip(("parent", "change"), pair):
            if not result.get("correct") or result.get("failed", 1) > 0:
                raise RunError(
                    f"pair {n}: the {side} run is not usable (correct={result.get('correct')},"
                    f" failed={result.get('failed')})"
                )
    lines = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        q1, med, q3 = _quartiles(parent)
        change_med = statistics.median(change)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        rel = (change_med - med) / med if med else 0.0
        gain = (change_med - med) if higher else (med - change_med)
        if wins >= 0.9 * len(pairs) and gain > q3 - q1:
            verdict = "gain"
        elif (-rel if higher else rel) > metric["bound"]:
            verdict = f"WORSE beyond the {metric['bound']} bound"
        elif med and (q3 - q1) / med > metric["bound"] and not (
            min(change) > max(parent) if higher else max(change) < min(parent)
        ):
            verdict = "unresolved: the parent spreads wider than the bound"
        else:
            verdict = "within the bound"
        lines.append(
            f"{name} ({metric['unit']}): {med:.6g} [IQR {q1:.6g}-{q3:.6g}] -> {change_med:.6g}"
            f" ({rel:+.1%}), change better in {wins} of {len(pairs)}: {verdict}"
        )
    return lines


def load_package(checkout: pathlib.Path, name: str):
    """``checkout``'s src/intercept, with its ``benchmarks`` module, imported as ``name``."""
    root = checkout / "src" / "intercept"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.benchmarks")
    return package


def time_round(ops) -> float:
    """Seconds to run every operation of one round once."""
    start = time.perf_counter()
    for op in ops:
        op()
    return time.perf_counter() - start


def summarise_rounds(parent: list[float], change: list[float]) -> str:
    """One line from the two sides' round times in seconds, paired by round."""
    p, c = statistics.median(parent), statistics.median(change)
    won = sum(ct < pt for pt, ct in zip(parent, change))
    return (
        f"median round {p * 1e3:.6g} ms -> {c * 1e3:.6g} ms, parent/change {p / c:.3f}x,"
        f" change faster in {won} of {len(parent)} rounds"
    )


def interleaved(parent_dir, change_dir, workload: str, seed: int, rounds: int) -> list[str]:
    """Alternate whole rounds of both checkouts in this process; the summary lines."""
    sys.path.insert(0, str(change_dir / "perfbench"))
    import workloads

    sides = [
        workloads.WORKLOADS[workload](load_package(checkout, name), seed).ops
        for checkout, name in ((parent_dir, "intercept_parent"), (change_dir, "intercept_change"))
    ]
    for i, (p, c) in enumerate(zip(*sides, strict=True)):
        if repr(p()) != repr(c()):
            raise RunError(f"operation {i}: the two checkouts' outputs differ")
    times = ([], [])
    for n in range(rounds):
        for side in (0, 1) if n % 2 == 0 else (1, 0):
            times[side].append(time_round(sides[side]))
    return [
        f"{workload}, seed {seed}, {rounds} interleaved rounds per side:",
        "  " + summarise_rounds(*times),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--interleaved", type=int, metavar="ROUNDS")
    args = parser.parse_args(argv)
    if args.interleaved:
        try:
            lines = interleaved(args.parent, args.change, args.workload, args.seed, args.interleaved)
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        return 0
    if args.runs is None or args.seconds is None:
        parser.error("--runs and --seconds are required without --interleaved")

    pairs = []
    for n in range(1, args.runs + 1):
        sides = {}
        order = ("parent", "change") if n % 2 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            sides[side] = run_once(checkout, args.workload, args.seed, args.seconds)
            print(f"pair {n} {side}: {json.dumps(sides[side])}", flush=True)
        pairs.append((sides["parent"], sides["change"]))

    bench = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"{args.workload}, seed {args.seed}, {args.runs} pairs of {args.seconds:g} s runs:")
    try:
        for line in summarise(pairs, bench["end_to_end"]):
            print("  " + line)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
