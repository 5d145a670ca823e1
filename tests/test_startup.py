"""Start-up: importing the package, the CLI or the enclosure path loads neither
mpmath nor the process pool, nor dataclasses and the inspect machinery it
pulls in, yet the CLI still loads every module perfbench's tracer patches.

Each check runs in a fresh interpreter, since this one has long since
imported everything.  The tracer module is loaded from its file and only
read, never installed.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
DEFERRED = ("mpmath", "concurrent.futures.process", "multiprocessing", "dataclasses", "inspect")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def modules_after(statement: str) -> set:
    """Names in sys.modules after a fresh interpreter runs the statement."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("statement", ["import binram", "import binram.cli",
                                       "import binram.highprec"])
def test_import_defers_mpmath_and_the_pool(statement):
    assert sorted(modules_after(statement).intersection(DEFERRED)) == []


def test_every_traced_layer_is_loaded_for_the_tracer():
    # tracer.install() imports these two, then reads sys.modules["binram.<layer>"]
    loaded = modules_after("import binram.cli\nimport binram.highprec")
    missing = [layer for layer in load_tracer().LAYERS if f"binram.{layer}" not in loaded]
    assert missing == []
