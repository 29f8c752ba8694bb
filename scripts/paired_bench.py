#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, and their summary.

    python3 scripts/paired_bench.py PARENT_DIR CHANGE_DIR --workload W --runs N --seconds S

runs ``perfbench/run.py --trace 0`` N times in each checkout, one pair at a
time, alternating which checkout goes first, and prints each run's result
line as it finishes. It then prints, for each end-to-end metric of
``BENCHMARK.json``, the parent's median with its quartiles, the change's
median, and in how many pairs the change was better (ties count for
neither side). The verdict follows the benchmark's rules: a gain needs the
change better in at least nine tenths of the pairs and the medians apart by
more than the parent's interquartile range; a metric whose median got worse
by more than its bound is a regression; a parent spread wider than the
bound leaves the metric unresolved unless every change run beats every
parent run. Nothing is summarised if any run is not ``correct`` or has
``failed > 0``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


class RunError(ValueError):
    """A run the summary must not use: not correct, or with failed operations."""


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

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
