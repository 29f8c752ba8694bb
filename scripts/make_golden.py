#!/usr/bin/env python3
"""Regenerate tests/golden.json from the generators tests/test_golden.py checks.

Run ``python3 scripts/make_golden.py`` from anywhere. Every section is
recomputed and written in the file's layout: one table cell, iterate, SVG
digest or track entry per line, five Dubins distances per line. On an
unchanged tree the file comes out byte-identical, so ``git diff
tests/golden.json`` shows exactly the values a change moved.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]

import test_golden as golden  # noqa: E402


def _lines(texts: list[str], pad: str, per_line: int) -> str:
    chunks = [texts[i : i + per_line] for i in range(0, len(texts), per_line)]
    return ",\n".join(pad + ", ".join(chunk) for chunk in chunks)


def _array(values: list, pad: str, per_line: int = 1) -> str:
    """A JSON array with its entries at indent ``pad``, ``per_line`` to a line."""
    texts = [json.dumps(v) for v in values]
    return "[\n" + _lines(texts, pad, per_line) + "\n" + pad[:-1] + "]"


def _object(members: list[tuple[str, str]], pad: str) -> str:
    """A JSON object of (key, already written value) members at indent ``pad``."""
    texts = [f"{json.dumps(key)}: {value}" for key, value in members]
    return "{\n" + _lines(texts, pad, 1) + "\n" + pad[:-1] + "}"


def golden_text() -> str:
    scenarios = []
    for name in sorted(p.name for p in golden.SCENARIOS.glob("*.json")):
        trace = golden.scenario_trace(name)
        members = [
            ("status", json.dumps(trace["status"])),
            ("iterates", _array(trace["iterates"], "    ")),
        ]
        scenarios.append((name, _object(members, "   ")))
    svg = [(case[0], json.dumps(golden.svg_digest(case))) for case in golden.svg_cases()]
    svg.append(("line_solves", json.dumps(golden.sha256(golden.line_svg_documents()))))
    tracks = [(name, json.dumps(golden.track_digests(name))) for name in sorted(golden.TRACKS)]
    dubins = [
        ("distance", _array(golden.dubins_distances(), "   ", 5)),
    ]
    sections = [
        ("table", _array(golden.table_entries(), "  ")),
        ("scenarios", _object(scenarios, "  ")),
        ("dubins", _object(dubins, "  ")),
        ("svg", _object(svg, "  ")),
        ("tracks", _object(tracks, "  ")),
        ("paths", _object([(k, json.dumps(v)) for k, v in golden.path_digests().items()], "  ")),
    ]
    return _object(sections, " ") + "\n"


def main() -> int:
    (TESTS / "golden.json").write_text(golden_text(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
