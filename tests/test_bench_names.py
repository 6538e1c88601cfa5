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


def test_each_traced_function_is_one_object_across_the_package():
    """``install`` rebinds a traced function wherever the package holds the
    same object, so a module that defines a traced name afresh (a wrapper
    around the traced function, say) escapes the tracer, and its calls read
    0: every ``klrc`` module that holds a traced name holds the traced
    object."""
    importlib.import_module("klrc.cli")  # loads every module of the package, as install() does
    modules = {name: module for name, module in sys.modules.items()
               if module is not None and (name == "klrc" or name.startswith("klrc."))}
    for _, module, attr, _ in tracing.FUNCTIONS:
        original = getattr(modules[module], attr)
        others = [name for name, held in modules.items()
                  if vars(held).get(attr, original) is not original]
        assert not others, (module, attr, others)


def test_traced_methods_exist():
    for _, module, cls_name, method in tracing.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(cls.__dict__[method]), (cls_name, method)


def test_traced_caches_exist():
    for _, module, attr in tracing.CACHES:
        getattr(importlib.import_module(module), attr).cache_info()
