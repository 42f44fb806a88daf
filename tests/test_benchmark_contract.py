"""The names the benchmark under perfbench/ binds must exist in the package.

``perfbench/workloads.py`` imports names from ``diractensor`` and
``perfbench/tracing.py`` wraps the functions its LAYERS and COUNTED tables
name, so removing any of them breaks every benchmark run.  This test reads
both files and changes nothing under perfbench/.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import diractensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # workloads.py fails here if an imported name is gone
    return module


def test_workloads_names_resolve():
    _load("workloads")  # raises if a name it imports from diractensor is gone
    # names it reads off the package only when an op runs
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "diractensor"}
    assert read and [name for name in read if not hasattr(diractensor, name)] == []


TRACING = _load("tracing")


@pytest.mark.parametrize("layer", sorted({**TRACING.LAYERS, **TRACING.COUNTED}))
def test_traced_function_resolves(layer):
    module_name, attr = {**TRACING.LAYERS, **TRACING.COUNTED}[layer]
    assert callable(getattr(importlib.import_module(module_name), attr))
