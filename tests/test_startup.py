"""Start-up: importing the package, the CLI or the enclosure path loads neither
mpmath nor the process pool, nor dataclasses and the inspect machinery it
pulls in, yet the CLI still registers every module perfbench's tracer
patches, which runs on first use.  Each subcommand runs only the modules it
calls, and the tracer, installed on the lazily loaded CLI, still sees every
call and leaves the report as it was.

Each check runs in a fresh interpreter, since this one has long since
imported everything.  The tracer module is loaded from its file and read, or
run as a script on a subcommand.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from binram.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
DEFERRED = ("mpmath", "concurrent.futures.process", "multiprocessing", "dataclasses", "inspect")
CLI = {"binram", "binram.backend", "binram.cli"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_python(args: list, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter on args, with this checkout's src/ on its path."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), **kwargs)


def modules_after(statement: str) -> set:
    """Names in sys.modules after a fresh interpreter runs the statement."""
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(run_python(["-c", code], check=True).stdout))


def modules_run_by(argv=None) -> set:
    """The binram modules a fresh interpreter has run after importing the CLI
    and, given argv, running it on argv with its report discarded.  A module
    the CLI registered but nothing has read yet still has the LazyLoader's
    module type, and type() does not load it."""
    run = "" if argv is None else ("with contextlib.redirect_stdout(io.StringIO()):\n"
                                   f"    assert binram.cli.main({argv!r}) == 0\n")
    code = ("import contextlib, io, json, sys, types\nimport binram.cli\n" + run +
            "print(json.dumps(sorted(name for name, m in sys.modules.items()\n"
            "                        if name.partition('.')[0] == 'binram'\n"
            "                        and type(m) is types.ModuleType)))")
    return set(json.loads(run_python(["-c", code], check=True).stdout))


@pytest.mark.parametrize("statement", ["import binram", "import binram.cli",
                                       "import binram.highprec",
                                       "import binram.cli; binram.cli.ProcessPoolExecutor"])
def test_import_defers_mpmath_and_the_pool(statement):
    assert sorted(modules_after(statement).intersection(DEFERRED)) == []


def test_every_traced_layer_is_loaded_for_the_tracer():
    # tracer.install() imports these two, then reads sys.modules["binram.<layer>"]
    loaded = modules_after("import binram.cli\nimport binram.highprec")
    missing = [layer for layer in load_tracer().LAYERS if f"binram.{layer}" not in loaded]
    assert missing == []


def test_importing_the_cli_runs_no_layer_module():
    assert modules_run_by() == CLI


@pytest.mark.parametrize("argv,skipped", [
    (["smalldev", "samuels", "--n-max", "10"],
     {"certificates", "kernel", "poisson", "intervals", "highprec"}),
    (["threshold", "--n", "10000"], {"certificates", "kernel", "poisson", "smalldev"}),
    (["certify", "root-bounds"], {"kernel", "poisson", "highprec", "smalldev"}),
])
def test_a_subcommand_runs_none_of_the_modules_it_does_not_call(argv, skipped):
    ran = modules_run_by(argv)
    assert "binram.cli" in ran
    assert sorted(ran.intersection(f"binram.{name}" for name in skipped)) == []


def test_scan_z_and_report_merge_run_only_exactcore_and_report(tmp_path):
    shards = [str(tmp_path / f"verify_{claim}.json") for claim in ("2", "lemma1")]
    for claim, path in zip(("2", "lemma1"), shards):
        assert main(["verify", "--claims", claim, "--n-max", "6", "--format", "json",
                     "--out", path]) == 0
    expected = CLI | {"binram.exactcore", "binram.report"}
    assert modules_run_by(["scan-z", "--n-max", "10"]) == expected
    assert modules_run_by(["report-merge", *shards]) == expected


@pytest.mark.parametrize("argv,layer_fn,calls", [
    (["verify", "--claims", "1", "--n-max", "8"], "kernel.verify_claim1", 28),
    (["smalldev", "samuels", "--n-max", "10"], "cli.cmd_smalldev", 1),
])
def test_the_tracer_sees_every_call_through_the_lazy_cli(argv, layer_fn, calls, tmp_path):
    trace = tmp_path / "trace.json"
    traced = run_python([str(TRACER), str(trace), *argv])
    plain = run_python(["-m", "binram.cli", *argv])
    assert traced.returncode == plain.returncode
    assert traced.stdout == plain.stdout
    doc = json.loads(trace.read_text())
    assert doc["exit_code"] == plain.returncode
    assert doc["calls"][layer_fn] == calls
