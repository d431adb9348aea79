"""The README's library quick start and CLI examples run as written and
show what they say."""

import ast
import shlex
from pathlib import Path

from fmzv.cli import main

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


def cli_examples() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("fmzv ")]


def test_readme_cli_examples_run_and_show_their_results(capsys):
    ran = []
    for line in cli_examples():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        assert argv[0] in ("dual", "zeta", "bernoulli", "check"), line
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        # "# -> OUT" gives the output, up to a double space
        comment = comment.strip()
        if comment.startswith("-> "):
            assert out.rstrip("\n") == comment[3:].split("  ")[0], line
        ran.append(argv[0] if argv[0] != "check" else argv[1])
    assert ran == [
        "dual", "zeta", "bernoulli", "ohno", "sum-formula", "height-one", "stuffle",
        "duality", "homogeneous", "lemma2", "key-lemma", "eq3", "ikz",
    ]
