"""The names the benchmark's tracer binds must exist in the package.

``bench/tracing.py`` wraps package functions, methods and caches by name; a
refactor that drops or renames one of them should fail here, not only in a
traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def test_traced_functions_exist():
    for _, module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    # install() also wraps this generator by name
    assert callable(importlib.import_module("klrc.tableaux").multipartitions)


def test_traced_methods_exist():
    for _, module, cls_name, method in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(cls.__dict__[method]), (cls_name, method)


def test_traced_caches_exist():
    for _, module, attr in tracing.CACHES:
        getattr(importlib.import_module(module), attr).cache_info()
