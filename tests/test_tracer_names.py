"""Every name perfbench's tracer patches at install time exists in binram.

The tracer resolves its LAYERS entries and a few module attributes before
the subcommand starts, so a deleted name makes a traced run fail at once.
The tracer module is loaded from its file and only read, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_tracer().LAYERS


@pytest.mark.parametrize("layer,name", [(layer, fn) for layer, fns in LAYERS.items() for fn in fns])
def test_layer_entry_resolves(layer, name):
    owner = importlib.import_module(f"binram.{layer}")
    if "." in name:  # Class.method: the tracer patches the method on its class
        cls_name, name = name.split(".")
        owner = getattr(owner, cls_name)
        assert name in vars(owner), f"binram.{layer}.{cls_name}.{name}"
    assert callable(getattr(owner, name, None)), f"binram.{layer}.{name}"


@pytest.mark.parametrize("module,name", [("highprec", "EXACT_CUTOFF"), ("highprec", "INCONCLUSIVE"),
                                         ("cli", "ProcessPoolExecutor")])
def test_install_attribute_exists(module, name):
    assert hasattr(importlib.import_module(f"binram.{module}"), name)
