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


# the document (json included) and drawing layers load on first use only
DEFERRED = ("json", "intercept.scenario", "intercept.svgplot")


def test_document_and_drawing_layers_load_on_first_use(tmp_path):
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        f"deferred = {DEFERRED!r}\n"
        "import intercept\n"
        "intercept.get_plant('simple'); intercept.get_plant('dubins')\n"
        "print(sorted(name for name in deferred if name in sys.modules))\n"
        "import intercept.cli\n"
        f"assert intercept.cli.main(['table', '--out', {str(tmp_path / 'table.txt')!r}]) == 0\n"
        "print(sorted(name for name in deferred if name in sys.modules))\n"
        "try:\n"
        "    intercept.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(sorted(name for name in intercept.__all__ if getattr(intercept, name) is None))\n"
        "namespace = {}\n"
        "exec('from intercept import *', namespace)\n"
        "print(all(namespace[name] is getattr(intercept, name) for name in intercept.__all__))\n"
        "print(sorted(name for name in deferred if name in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == [
        "[]",
        "[]",
        "module 'intercept' has no attribute 'no_such_name'",
        "[]",
        "True",
        str(sorted(DEFERRED)),
    ]
