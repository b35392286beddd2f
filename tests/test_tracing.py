"""The benchmark tracer finds what it wraps.

``perfbench/tracing.py`` patches qamem functions by module and name.  A
traced function that is renamed or moved is only reported as "not found"
and its metrics read 0; a ``from ... import`` binding that no longer
refers to a traced function makes a traced run raise.  These tests load
the tracer by path and check both lists against the package, and that a
retrieve and an amplitude_amplify still reach the layers the traced
`queries` and `circuit` runs must record.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the benchmark's workloads import every traced module before the tracer
    # installs; the CLI imports a command's modules only when it runs
    for layer in module.TRACED:
        importlib.import_module(f"qamem.{layer}")
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


def test_small_retrieve_reaches_memory_and_simulator(tracing):
    """The traced `queries` run fails when its retrieve calls open no
    `memory` or no `simulator` span (run.py exits 4, "no spans recorded"):
    one small retrieve must reach a traced function of each layer."""
    from qamem import retrieval
    from qamem.patterns import Pattern, PatternSet

    ps = PatternSet(tuple(Pattern.from_string(s) for s in ("10110", "01101", "11000")))
    retrieval._LAST_TABLE.pop(ps, None)  # a memo hit would prepare nothing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        retrieval.retrieve(
            ps, Pattern.from_string("10111"), retrieval.RetrievalConfig(b=2, T=3),
            np.random.default_rng(0),
        )
    finally:
        tracer.uninstall()
    counts = tracer.span_counts()
    assert counts.get("memory", 0) >= 1 and counts.get("simulator", 0) >= 1, counts


def test_small_amplify_reaches_memory_and_simulator(tracing):
    """The traced `circuit` run fails in the same way when no step opens a
    `memory` or a `simulator` span: one small amplitude_amplify, as its
    amp steps run, must reach a traced function of each layer."""
    from qamem import retrieval
    from qamem.patterns import Pattern, PatternSet

    ps = PatternSet(tuple(Pattern.from_string(s) for s in ("10110", "01101", "11000")))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        retrieval.amplitude_amplify(ps, Pattern.from_string("10111"), 2, 1)
    finally:
        tracer.uninstall()
    counts = tracer.span_counts()
    assert counts.get("memory", 0) >= 1 and counts.get("simulator", 0) >= 1, counts
