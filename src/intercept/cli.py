"""Command-line interface.

Exit codes: 0 on success, 1 on input errors, 2 when a solve ends without
interception (budget exhausted / no capture up to the horizon / unreachable)
or an oracle finds no crossing.
"""

from __future__ import annotations

import argparse
import sys

from .core import CaptureSpec, LissajousTrajectory
from .benchmarks import PRECISIONS, run_table
from .plants import get_plant
from .scenario import Scenario, ScenarioError, emit_result, parse_scenario
from .solver import EstimatorKind, SolveStatus, grid_oracle, solve
from .svgplot import render_svg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intercept",
        description="Minimum-time interception of a moving target",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--horizon", type=float)
        p.add_argument("--out", help="write the output document to this file")
        return p

    for name, help_text in (
        ("solve", "compute the interception time"),
        ("trace", "print the iterate table of a solve"),
        ("plot", "render the interception as SVG"),
    ):
        p_solve = add_scenario_command(name, help_text)
        p_solve.add_argument("--estimator", choices=["simple", "best"])
        p_solve.add_argument("--epsilon", type=float)
        p_solve.add_argument("--max-iterations", type=int, default=10_000)
    p_oracle = add_scenario_command(
        "oracle", "brute-force the first capture-time crossing"
    )
    p_oracle.add_argument("--resolution", type=float, default=1e-6)

    p_table = sub.add_parser(
        "table", help="recompute the benchmark iteration-count table"
    )
    p_table.add_argument("--out", help="write the table to this file")
    return parser


def _load_scenario(args: argparse.Namespace) -> Scenario:
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    scenario = parse_scenario(text)
    if args.horizon is not None:
        scenario = scenario._replace(horizon=args.horizon)
    traj = scenario.trajectory
    if isinstance(traj, LissajousTrajectory) and traj.speed_bound == traj.v:
        print(
            "note: lissajous speed bound defaults to the parameter v; the curve's "
            "true speed reaches v*sqrt(2) (set trajectory.speed_bound to tighten)",
            file=sys.stderr,
        )
    return scenario


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_solve(scenario: Scenario, args: argparse.Namespace):
    """Solve the scenario up to its horizon, with the --estimator and --epsilon overrides."""
    estimator = EstimatorKind(args.estimator) if args.estimator else scenario.estimator
    capture = scenario.capture
    if args.epsilon is not None:
        capture = CaptureSpec(capture.ell, args.epsilon)
    return solve(
        get_plant(scenario.plant),
        scenario.trajectory,
        capture,
        estimator,
        max_iterations=args.max_iterations,
        horizon=scenario.horizon,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    result = _run_solve(scenario, args)
    _write(emit_result(result), args.out)
    if result.status is not SolveStatus.INTERCEPTED:
        print(
            f"no interception: {result.status.value} after "
            f"{result.trace.iteration_count} iterations (t >= {result.t_star})",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    result = _run_solve(scenario, args)
    lines = [f"{'n':>6} {'t_n':>24} {'distance':>24}"]
    for n, (t, rho) in enumerate(result.trace.iterates):
        lines.append(f"{n:>6} {t:>24.16e} {rho:>24.16e}")
    lines.append(
        f"status: {result.status.value} after {result.trace.iteration_count} "
        f"iterations, t_star = {result.t_star!r}"
    )
    _write("\n".join(lines) + "\n", args.out)
    return 0 if result.status is SolveStatus.INTERCEPTED else 2


def cmd_plot(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    result = _run_solve(scenario, args)
    if result.path is None:
        print("no interception path to plot", file=sys.stderr)
        return 2
    times = [t for t, _ in result.trace.iterates if t > 0]
    svg = render_svg(
        get_plant(scenario.plant), scenario.trajectory, result, times
    )
    _write(svg, args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    plant = get_plant(scenario.plant)
    crossing = grid_oracle(
        plant,
        scenario.trajectory,
        scenario.capture.ell,
        scenario.horizon,
        args.resolution,
    )
    if crossing is None:
        _write('{"found": false, "t_star": null}\n', args.out)
        print(f"no crossing up to horizon {scenario.horizon}", file=sys.stderr)
        return 2
    _write(f'{{"found": true, "t_star": {crossing!r}}}\n', args.out)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    results = run_table()
    header = (
        f"{'trajectory':<42} {'plant':<7}"
        + "".join(f" {f'n({d:g})':>9}" for d in PRECISIONS)
        + f" {'reference':>15} {'match':>6}"
    )
    lines = [header, "-" * len(header)]
    mismatches = 0
    for cell in results:
        ref = "/".join(str(r) for r in cell.reference)
        ok = all(cell.matches)
        mismatches += 0 if ok else 1
        lines.append(
            f"{cell.row_label:<42} {cell.plant:<7}"
            + "".join(f" {c:>9}" for c in cell.counts)
            + f" {ref:>15} {'yes' if ok else 'NO':>6}"
        )
    lines.append(
        f"{len(results)} cells, {len(results) - mismatches} matching the reference "
        f"within one iteration"
    )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "trace": cmd_trace,
        "plot": cmd_plot,
        "oracle": cmd_oracle,
        "table": cmd_table,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
