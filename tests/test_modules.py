"""The layout of the package's modules, read with ``ast``."""

import ast
from collections import defaultdict
from pathlib import Path

import src_lines

SRC = Path(__file__).resolve().parents[1] / "src" / "klrc"


def top_level_names(tree):
    """The names a module's top level defines: functions, classes and
    assigned names, imports left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_no_two_modules_define_the_same_top_level_name():
    """A name means one thing across ``src/klrc``: no two modules define it,
    so a private helper read from another module is the one it names."""
    modules = defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for name in top_level_names(ast.parse(path.read_text(encoding="utf-8"))):
            modules[name].add(path.name)
    assert len(modules) > 100
    assert {name: sorted(files) for name, files in modules.items() if len(files) > 1} == {}


def test_line_counts_add_up(capsys):
    """``tests/src_lines.py`` puts every line of each module in one kind,
    and its printed total row is the sum of the module rows."""
    rows = src_lines.table()
    assert set(rows) == {path.name for path in SRC.glob("*.py")}
    for name, row in rows.items():
        assert sum(row.values()) == len((SRC / name).read_text(encoding="utf-8").splitlines())
        assert row["code"] and row["docstring"]
    assert src_lines.main([]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total == ["total"] + [f"{sum(row[kind] for row in rows.values()):,}"
                                 for kind in src_lines.KINDS]


def test_line_kinds_by_hand():
    """A docstring, a comment, code with a trailing comment, a standing
    string and a blank line, each counted once by its kind."""
    text = '"""Doc\n\nstring."""\n# comment\nx = 1  # code\n"""standing"""\n\n'
    assert src_lines.count(text) == {"code": 2, "docstring": 3, "comment": 1, "blank": 1}
