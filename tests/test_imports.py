"""Importing the package stays cheap: no module that only its own code would need."""

from __future__ import annotations

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# ``dataclasses`` alone loads inspect, ast, dis and tokenize: about 14 ms of a
# cold start of about 60 ms
HEAVY = ("dataclasses", "inspect")


def test_import_loads_no_heavy_standard_module():
    # -S: site .pth files may import anything, and would count here
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import intercept, intercept.cli, intercept.benchmarks\n"
        f"print(sorted(name for name in {HEAVY!r} if name in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
