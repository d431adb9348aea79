"""Count the code lines of each module of a package.

A code line is a non-blank line that is neither a ``#`` comment nor part
of a docstring (the string that opens a module, class or function body).
For each ``*.py`` file of the directory, in name order, one line
``module  count`` is printed, then ``total  count``.

    python3 tools/code_lines.py            # the modules of src/fmzv
    python3 tools/code_lines.py DIRECTORY
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fmzv"


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    width = max(map(len, [*counts, "total"]))
    for module, count in counts.items():
        print(f"{module:<{width}}  {count}")
    print(f"{'total':<{width}}  {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
