"""Dead-code check over the package source, with the standard library's
``ast``: every private top-level name is used somewhere besides its
definition, every public method or property of a package class is read
somewhere in the package, every field of a package dataclass is read by
attribute somewhere in the package, and every import of a module other than
``__init__.py`` is used in that module."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "cbrchain"
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def reads(tree, attributes_only: bool = False) -> set[str]:
    """The names ``tree`` reads: attributes, and unless ``attributes_only``
    also bare names and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
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


def test_every_public_method_is_read():
    # A class with a base from outside the package implements that base's
    # interface, as RationalType does click.ParamType.convert, so it is exempt.
    used = set().union(*map(reads, TREES.values()))
    classes = {
        node.name: (module, node)
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    unread = {
        f"{module}:{name}.{member.name}"
        for name, (module, node) in classes.items()
        if all(isinstance(b, ast.Name) and b.id in classes for b in node.bases)
        for member in node.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in used
    }
    assert "library.py:CaseLibrary" in {f"{m}:{n}" for n, (m, _) in classes.items()}
    assert not unread


def test_every_dataclass_field_is_read():
    # A class that reads its own fields through fields(self), as
    # SimulationReport.to_dict does, reads each of them by name, so it is exempt.
    loaded = set().union(*(reads(tree, attributes_only=True) for tree in TREES.values()))

    def name_of(node):
        return getattr(node.func if isinstance(node, ast.Call) else node, "id", None)

    dataclasses = {
        f"{module}:{node.name}": node
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and "dataclass" in map(name_of, node.decorator_list)
    }
    unread = {
        f"{name}.{member.target.id}"
        for name, node in dataclasses.items()
        if not any(
            isinstance(n, ast.Call) and name_of(n) == "fields"
            and [name_of(a) for a in n.args] == ["self"]
            for n in ast.walk(node)
        )
        for member in node.body
        if isinstance(member, ast.AnnAssign) and member.target.id not in loaded
    }
    assert "simulate.py:SimulationReport" in dataclasses
    assert not unread


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
