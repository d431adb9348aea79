"""The README's library quick start runs as written and shows what it says."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_shows_its_results(capsys):
    block = quick_start()
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        # the comment on the statement's last line, up to a double space
        expect = lines[stmt.end_lineno - 1].partition("# ")[2].split("  ")[0]
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        got = capsys.readouterr().out.rstrip("\n") if value is None else repr(value)
        assert got == expect, ast.unparse(stmt)
        shown.append(got)
    assert shown == [
        "Index(1,2,1,3,1)",
        "1*xxy + 1*xyy + 1*yxy",
        "2*xyy + 1*yxy",
        "1",
        "3",
        "True",
    ]
