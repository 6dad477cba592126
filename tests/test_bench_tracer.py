"""The benchmark tracer patches library functions by name.  A renamed or
deleted function fails here, in the test suite, instead of in a traced
benchmark run."""

import importlib.util
import pathlib
import sys

import tbi

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    """bench/tracer.py as a fresh module, without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    traced = _load_tracer(monkeypatch).TRACED
    assert traced
    missing = [f"{layer}.{name}" for layer, names in traced.items() for name in names
               if not callable(getattr(getattr(tbi, layer, None), name, None))]
    assert missing == []
