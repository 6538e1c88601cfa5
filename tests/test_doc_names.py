"""Every name the docs cite in backticks resolves to a live object.

The names are read from README, from every docstring of ``src/klrc``
(module, class and function) and from the module docstring of
``tests/reference.py``.  A dotted name resolves by import: its first part
as a ``klrc`` module, a name of ``klrc`` or of the module whose docstring
cites it, then as a standard-library module or a builtin, so ``str.find``
and ``sys.get_int_max_str_digits`` pass; each later part is an attribute of
the one before, or a submodule or dataclass field.  A ``klrc.…`` name inside
a longer span, such as ``python -m pydoc klrc.quiver``, is read too.  A bare
``_name`` resolves in the module whose docstring cites it.  ROADMAP is left
out: it names removed functions on purpose.
"""

import ast
import builtins
import importlib
import re
import sys
from pathlib import Path

import pytest

import klrc

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "klrc"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
FILE_NAME = re.compile(r"\.(?:py|toml|md|json|ya?ml|txt)$")
PRIVATE = re.compile(r"_\w+")
KLRC_NAME = re.compile(r"\bklrc(?:\.\w+)+")


def cited(text: str, span: re.Pattern) -> list[str]:
    """The names cited in the backtick spans of ``text``."""
    names = []
    for found in span.findall(text):
        found = found.strip().removesuffix("()")
        if DOTTED.fullmatch(found):
            if not FILE_NAME.search(found):
                names.append(found)
        elif PRIVATE.fullmatch(found):
            names.append(found)
        else:
            names.extend(KLRC_NAME.findall(found))
    return names


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _first(head: str, home):
    """The object the first part of a cited name stands for, or None."""
    if head == "klrc":
        return klrc
    for found in (_module(f"klrc.{head}"), getattr(klrc, head, None), getattr(home, head, None)):
        if found is not None:
            return found
    if head in sys.stdlib_module_names:
        return _module(head)
    return getattr(builtins, head, None)


def resolves(name: str, home) -> bool:
    """Whether ``name``, cited in a docstring of the module ``home`` (None
    for README), names a live object."""
    head, *rest = name.split(".")
    if not rest:
        return home is not None and hasattr(home, head)
    obj = _first(head, home)
    for n, part in enumerate(rest):
        if obj is None:
            return False
        # a submodule first: ``klrc.cartan`` is also the function ``cartan``
        sub = _module(f"{obj.__name__}.{part}") if isinstance(obj, type(sys)) else None
        if sub is not None:
            obj = sub
        elif hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            # a dataclass field without a default is no class attribute
            return n == len(rest) - 1 and part in getattr(obj, "__dataclass_fields__", {})
    return obj is not None


def docstrings(path: Path) -> list[str]:
    """The docstrings of the module at ``path``: its own, its classes' and
    its functions'."""
    nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    found = [ast.get_docstring(node, clean=False) for node in nodes
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))]
    return [doc for doc in found if doc]


def readme_names() -> list[str]:
    """The names README cites, fenced code blocks left out."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return cited(re.sub(r"^```.*?^```", "", text, flags=re.M | re.S), re.compile(r"`([^`\n]+)`"))


DOUBLE = re.compile(r"``(.+?)``", re.S)
# each source of cited names: the names, and the module a bare name lives in
SOURCES = {"README.md": (readme_names(), None)}
for _path in sorted(SRC.glob("*.py")):
    SOURCES[f"src/klrc/{_path.name}"] = (
        [name for doc in docstrings(_path) for name in cited(doc, DOUBLE)],
        "klrc" if _path.stem == "__init__" else f"klrc.{_path.stem}")
SOURCES["tests/reference.py"] = (
    cited(docstrings(ROOT / "tests" / "reference.py")[0], DOUBLE), "reference")


@pytest.mark.parametrize("source", SOURCES)
def test_every_cited_name_resolves(source):
    names, home = SOURCES[source]
    home = home and importlib.import_module(home)
    assert [name for name in dict.fromkeys(names) if not resolves(name, home)] == []


def test_the_docs_cite_names_enough_to_check():
    """README points to the module docstring of each engine, and the
    docstrings and reference routes cite dozens of names."""
    assert {"klrc.maxweights", "klrc.quiver", "klrc.multiplicity",
            "klrc.fock"} <= set(readme_names())
    assert sum(len(names) for names, _ in SOURCES.values()) >= 60


def test_readme_names_no_private_name():
    """README keeps the contract; a name with a part that starts with ``_``
    belongs to a module docstring, where it can change with the code."""
    assert [name for name in readme_names()
            if any(part.startswith("_") for part in name.split("."))] == []


@pytest.mark.parametrize("name, home, expected", [
    ("quiver._label", None, False),
    ("quiver._entry", None, True),
    ("MoveLabel.index", "klrc.quiver", False),
    ("str.find", None, True),
    ("sys.get_int_max_str_digits", None, True),
    ("klrc.cli.COMMANDS", None, True),
    ("_entry", "klrc.quiver", True),
    ("_entry", "klrc.fock", False),
    ("Verdict.rep_type", None, True),
    ("Verdict.rep_type.value", None, False),
    ("klrc.cartan._first_layer", None, True),
])
def test_the_resolver(name, home, expected):
    """Known names resolve and stale ones do not, such as a ``quiver._label``
    that never existed and the removed ``MoveLabel.index``."""
    assert resolves(name, home and importlib.import_module(home)) is expected
