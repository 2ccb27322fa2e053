"""Surface guard: ``src/hypersym`` defines only what the package itself uses.

Every module-level function and class, and every public method, must be
referenced by name somewhere in ``src/hypersym`` outside its own definition.
A name that only tests reach is a fixture or a probe, and it lives under
``tests/`` (``support.py``, ``kn_reference.py``).  Every dataclass field must
be read as an attribute somewhere in ``src/hypersym`` or ``tests/``; a field
that is only written carries nothing.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hypersym"


def _definitions(tree: ast.Module):
    """(label, name, node) of each module-level def and class, and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_definition_is_referenced_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for module, tree in trees.items():
        for label, name, definition in _definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(used == name and id(node) not in inside for used, node in uses):
                unused.append(f"{module}: {label}")
    assert not unused, "defined in src/hypersym but referenced only outside it: " \
        + ", ".join(unused)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    src = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    tests = [ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))]
    read = {node.attr for tree in src + tests for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{node.name}.{item.target.id}" for tree in src for node in tree.body
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    assert not unread, "dataclass fields that nothing reads: " + ", ".join(unread)
