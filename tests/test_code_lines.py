"""tools/code_lines.py counts the lines of a module that are code: not
blank, not a ``#`` comment, and not in a docstring."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps the line

# a comment line

LIMIT = """not a docstring:
an assigned string counts"""


class Box:
    """A class docstring."""

    size = 1

    def area(self):
        """A method docstring,
        over two lines."""
        # a comment in a body
        return self.size * math.pi


def bare():
    return """a returned string counts"""
'''


def test_code_lines_counts_code_only(tmp_path):
    # the fixture's code lines: import, LIMIT (2), class, size, def area,
    # return, def bare, return
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == ["empty    0", "fixture  9", "total    9"]
