"""Dead-code check over the package source, with the standard library's
``ast``: every private top-level name is used somewhere besides its
definition, and every import of a module other than ``__init__.py`` is
used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "cbrchain"
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def reads(tree) -> set[str]:
    """The names ``tree`` reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def defines(tree) -> set[str]:
    """The top-level names that ``tree`` defines itself."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_private_top_level_name_is_used():
    assert "library.py" in TREES
    used = set().union(*map(reads, TREES.values()))
    unused = {
        f"{module}:{name}"
        for module, tree in TREES.items()
        for name in defines(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    }
    assert not unused


def test_every_import_is_used():
    unused = set()
    for module, tree in TREES.items():
        if module == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"
            ):
                bound = {a.asname or a.name.split(".")[0] for a in node.names}
                unused.update(f"{module}:{name}" for name in bound - read)
    assert not unused
