"""Every function, class and method of the package is used by the package.

Code that only its tests call is deleted rather than kept: a name defined in
``src/fmzv`` must be read somewhere in ``src/fmzv`` outside its own
definition, or be exported through an ``__all__``.  Names are matched by
spelling.  A function or class counts as read through a name or an
attribute of that spelling, a method only through an attribute: a local
variable that shares a method's name does not keep the method alive.

The per-prime store of ``fmzv.modp`` has one writer, ``_put``, called only
where ``residues`` fills the store, and no other module names the store.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fmzv"


def _names_read(node: ast.AST) -> Counter:
    # ("name", spelling) for each name read, ("attr", spelling) for each
    # attribute
    return Counter(
        ("name", n.id) if isinstance(n, ast.Name) else ("attr", n.attr)
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_definitions(src: Path = SRC) -> list[str]:
    """``module.qualname`` of every non-dunder definition in ``src`` that
    nothing else there reads."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    read = sum(map(_names_read, trees.values()), Counter())
    exported = set().union(*map(_exported, trees.values()))
    unused = []

    def visit(module: str, scope: str, body: list) -> None:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                kinds = ("attr",) if scope else ("name", "attr")
                own = _names_read(node)
                if all(read[kind, name] - own[kind, name] <= 0 for kind in kinds) and (
                    name not in exported
                ):
                    unused.append(f"{module}.{scope}{name}")
            if isinstance(node, ast.ClassDef):
                visit(module, f"{scope}{name}.", node.body)

    for module, tree in trees.items():
        visit(module, "", tree.body)
    return unused


def test_every_definition_is_used_by_the_package():
    assert unused_definitions() == []


def test_a_definition_read_only_by_itself_is_unused(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['api']\n"
        "def api():\n    return _used()\n"
        "def _used():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    def dead(self):\n        return self\n"
        "    def size(self):\n        return 0\n"
        "    def shadowed(self):\n        return 0\n"
        "def _sizes(box):\n    return box.size()\n"
        "def _local(shadowed):\n    return shadowed + 1\n"
    )
    # ``_local`` reads a name spelled like ``Box.shadowed``, which is not a
    # use of the method; ``Box.size`` is read as an attribute
    assert unused_definitions(tmp_path) == [
        "a._recursive", "a.Box", "a.Box.dead", "a.Box.shadowed", "a._sizes", "a._local",
    ]


def _spellings(node: ast.AST) -> set[str]:
    # the spelling of a name or attribute node, else nothing
    if isinstance(node, ast.Name):
        return {node.id}
    return {node.attr} if isinstance(node, ast.Attribute) else set()


def store_writers(src: Path = SRC) -> tuple[set[str], set[str]]:
    """``module.function`` of every function in ``src`` that calls ``_put``,
    the store's writer, and the modules that name ``_store``, the store."""
    callers, naming = set(), set()

    def visit(module: str, scope: str, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call) and "_put" in _spellings(child.func):
                callers.add(f"{module}.{scope}")
            if "_store" in _spellings(child):
                naming.add(module)
            visit(module, inner, child)

    for path in sorted(src.glob("*.py")):
        visit(path.stem, "", ast.parse(path.read_text(), str(path)))
    return callers, naming


def test_the_store_has_one_writer():
    # residues is the only way a batch fills the store: it alone calls
    # _put, and nothing outside modp reads or writes the store directly
    assert store_writers() == ({"modp.residues"}, {"modp"})


def test_a_second_writer_is_found(tmp_path):
    (tmp_path / "modp.py").write_text(
        "_store = {}\n"
        "def _put(p, pairs):\n    _store.setdefault(p, {}).update(pairs)\n"
        "def residues():\n    yield _put(2, [])\n"
        "def bernoulli():\n    def inner():\n        return _put(3, [])\n    return inner()\n"
    )
    (tmp_path / "verify.py").write_text(
        "import modp\ndef pair(p):\n    return modp._store[p]\n"
    )
    assert store_writers(tmp_path) == ({"modp.residues", "modp.inner"}, {"modp", "verify"})
