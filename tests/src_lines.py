"""Per-module line counts of ``src/klrc``: code, docstring, comment and blank.

    python tests/src_lines.py [FILE ...]

A docstring line is a line of the docstring of a module, class or function,
found with ``ast``.  A comment line holds only a comment.  Every other
nonblank line is code, so a line that ends in a comment counts as code, and
so does a string standing alone after an assignment.  Each module
gets one row, then the totals; extra FILE arguments, such as ``README.md``,
are counted as prose lines (``wc -l``) and printed after the table with the
sum of their lines and the ``src/`` docstring lines.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "klrc"
KINDS = ("code", "docstring", "comment", "blank")
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> dict[str, int]:
    """The lines of the Python source ``text`` by kind."""
    lines = text.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, OWNERS) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            doc.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        kind = ("docstring" if number in doc else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def table(src: Path = SRC) -> dict[str, dict[str, int]]:
    """``count`` of each module under ``src``, by file name, in name order."""
    return {path.name: count(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


def main(argv: list[str]) -> int:
    rows = table()
    totals = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}  " + "  ".join(f"{kind:>9}" for kind in KINDS))
    for name, row in [*rows.items(), ("total", totals)]:
        print(f"{name:<{width}}  " + "  ".join(f"{row[kind]:>9,}" for kind in KINDS))
    if argv:
        prose = 0
        for name in argv:
            lines = len(Path(name).read_text(encoding="utf-8").splitlines())
            prose += lines
            print(f"{name}: {lines:,} lines")
        print(f"prose plus src/ docstrings: {prose + totals['docstring']:,} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
