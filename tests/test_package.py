"""The package's public names, its exception classes, and the names the
benchmark traces."""

import importlib.util
import sys
import types
from pathlib import Path

import paretosimplex
from paretosimplex import cli, core, efficiency, enumeration, lp, oracle, scalarize

MODULES = (core, efficiency, enumeration, lp, oracle, scalarize)
SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_the_package_exports_each_modules_names_once():
    names = [name for module in MODULES for name in module.__all__]
    assert paretosimplex.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(paretosimplex, name) is getattr(module, name), (module.__name__, name)
    assert "row_key" not in names
    assert not hasattr(paretosimplex, "row_key")
    assert "bicheck" in names
    for gone in ("bicriterion_ratios", "bicriterion_full_check", "NumericalBreakdownError", "InvalidPointError"):
        assert gone not in names and not hasattr(paretosimplex, gone)
    assert not hasattr(lp, "NumericalBreakdownError")
    assert not hasattr(core, "InvalidPointError")
    assert len(names) == 46


def test_every_exception_class_has_an_exit_code():
    defined = {
        value
        for module in (cli, *MODULES)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == module.__name__
    }
    assert defined == set(cli._EXIT_CODES)


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    # The traced benchmark run wraps these names in place; a renamed one
    # raises KeyError here instead of only in the traced run.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    lib = types.SimpleNamespace(cli=cli, core=core, efficiency=efficiency, enumeration=enumeration, oracle=oracle)
    owners = (cli, core, efficiency, enumeration, oracle, efficiency.EfficiencyAnalyzer)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        spans.install(tracer, lib)
        patched = sum(
            value is not vars(owner)[name] for owner, names in zip(owners, before) for name, value in names.items()
        )
    finally:
        tracer.restore()
    assert patched == 25
    for owner, names in zip(owners, before):
        assert vars(owner).keys() == names.keys()
        for name, value in names.items():
            assert vars(owner)[name] is value, (owner.__name__, name)
