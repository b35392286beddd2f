"""The benchmark tracer finds what it wraps.

``perfbench/tracing.py`` patches qamem functions by module and name.  A
traced function that is renamed or moved is only reported as "not found"
and its metrics read 0; a ``from ... import`` binding that no longer
refers to a traced function makes a traced run raise.  These tests load
the tracer by path and check both lists against the package.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    importlib.import_module("qamem.cli")  # loads every module, as the tracer does
    return module


def module(layer):
    return importlib.import_module(f"qamem.{layer}")


def test_every_traced_function_exists(tracing):
    missing = [
        f"qamem.{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(module(layer), name, None))
    ]
    assert missing == []


def test_every_bound_name_refers_to_a_traced_function(tracing):
    traced = {
        id(getattr(module(layer), name))
        for layer, names in tracing.TRACED.items()
        for name in names
    }
    unbound = [
        f"qamem.{layer}.{name}"
        for layer, name in tracing.BOUND
        if id(getattr(module(layer), name, None)) not in traced
    ]
    assert unbound == []
