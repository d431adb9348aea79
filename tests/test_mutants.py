"""tools/mutants.py lists mutants whose snippets still occur in the code:
each exactly once in its file, so that a mutant breaks loudly when the code
it hits moves.  Whether the tests kill them is the tool's own run, not
this test's."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_snippet_occurs_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS)
    for mutant in tool.MUTANTS:
        assert tool.occurrences(mutant) == 1, mutant.name
        assert mutant.snippet != mutant.replacement and mutant.tests, mutant.name
