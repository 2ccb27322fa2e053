"""Surface guard: ``src/hypersym`` defines only what the package itself uses.

Every module-level function and class, and every public method, must be
referenced somewhere in ``src/hypersym`` outside its own definition.  A
module-level name of module M counts as referenced only through a binding of
M: a ``Name`` in M itself, a ``Name`` bound by ``from hypersym.M import
name`` in another module, or ``M.name`` where M is an imported module.
Methods are matched by name alone: any ``Name`` or attribute of that name
counts.
A name that only tests reach is a fixture or a probe, and it lives under
``tests/`` (``support.py``, ``kn_reference.py``).  Every dataclass field must
be read as an attribute somewhere in ``src/hypersym`` or ``tests/``, or its
dataclass must reach ``dataclasses.asdict`` or ``dataclasses.fields`` in
``src/hypersym``, which read every field; a field that is only written
carries nothing.  The argument of ``asdict`` or ``fields`` is resolved to its
class through the return annotation of the call that bound it, through the
``list[D]`` field annotation that a loop variable runs over, or as ``self``
in a method of the class.  Every defaulted parameter must be
passed by some call in ``src/hypersym`` or ``tests/``; a default that no
caller overrides is a constant.  The dense eigensolver is called only behind
``matkernel.block_eigvals`` and in ``rootsplit.polished_roots``.
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


def _references(module: str, tree: ast.Module):
    """((module, name), node) of each ``Name`` and module attribute in ``tree``,
    the module of the tree, keyed by the binding that it reaches."""
    modules, members = {}, {}  # local name -> module, and -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hypersym"):
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "hypersym":
                    modules[local] = alias.name
                else:
                    members[local] = (node.module.removeprefix("hypersym."), alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hypersym.") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix("hypersym.")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield members.get(node.id, (module, node.id)), node
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield (modules[node.value.id], node.attr), node


def test_every_definition_is_referenced_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bound = [(key, node) for module, tree in trees.items()
             for key, node in _references(module, tree)]
    named = [(node.id if isinstance(node, ast.Name) else node.attr, node)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for module, tree in trees.items():
        for label, name, definition in _definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            uses = named if "." in label else bound
            key = name if "." in label else (module, name)
            if not any(used == key and id(node) not in inside for used, node in uses):
                unused.append(f"{module}.py: {label}")
    assert not unused, "defined in src/hypersym but referenced only outside it: " \
        + ", ".join(unused)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _callee(call: ast.Call) -> str | None:
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _serialized_classes(trees: list[ast.Module]) -> set[str]:
    """Names of the dataclasses whose instances ``src`` passes to ``asdict`` or
    ``fields``."""
    returns = {node.name: ast.unparse(node.returns).strip("'\"")
               for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.returns is not None}
    elements = {(node.name, item.target.id): item.annotation.slice.id
                for tree in trees for node in tree.body
                if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.annotation, ast.Subscript)
                and getattr(item.annotation.value, "id", None) == "list"
                and isinstance(item.annotation.slice, ast.Name)}
    owners = {id(item): node.name for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef)
              for item in node.body if isinstance(item, ast.FunctionDef)}
    classes = set()
    for func in (node for tree in trees for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)):
        nodes = list(ast.walk(func))
        bound = {"self": owners.get(id(func))}
        bound.update({node.targets[0].id: returns.get(_callee(node.value)) for node in nodes
                      if isinstance(node, ast.Assign) and len(node.targets) == 1
                      and isinstance(node.targets[0], ast.Name)
                      and isinstance(node.value, ast.Call)})
        for node in nodes:  # for v in x.rows, with x bound by a call and rows a list[D]
            if isinstance(node, (ast.For, ast.comprehension)) \
                    and isinstance(node.target, ast.Name) \
                    and isinstance(node.iter, ast.Attribute) \
                    and isinstance(node.iter.value, ast.Name):
                owner = bound.get(node.iter.value.id)
                bound[node.target.id] = elements.get((owner, node.iter.attr))
        classes |= {bound.get(node.args[0].id) for node in nodes
                    if isinstance(node, ast.Call) and _callee(node) in ("asdict", "fields")
                    and node.args and isinstance(node.args[0], ast.Name)}
    return classes - {None}


def test_every_dataclass_field_is_read():
    src = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    tests = [ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))]
    read = {node.attr for tree in src + tests for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    serialized = _serialized_classes(src)
    unread = [f"{node.name}.{item.target.id}" for tree in src for node in tree.body
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              and node.name not in serialized
              for item in node.body
              if isinstance(item, ast.AnnAssign) and item.target.id not in read]
    assert not unread, "dataclass fields that nothing reads: " + ", ".join(unread)


def _defaulted(tree: ast.Module):
    """(label, call name, positional index or None, parameter) of each defaulted
    parameter of a function or method.  A method's index does not count self,
    and a constructor is called by its class's name."""
    methods = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = methods.get(id(node))
        bound = cls is not None and not any(getattr(d, "id", None) == "staticmethod"
                                            for d in node.decorator_list)
        name = cls.name if cls is not None and node.name == "__init__" else node.name
        label = f"{cls.name}.{node.name}" if cls is not None else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield label, name, i - bound, arg.arg
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield label, name, None, arg.arg


def test_every_defaulted_parameter_is_passed():
    src = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    trees = list(src.values()) + [ast.parse(path.read_text())
                                  for path in sorted(TESTS.glob("*.py"))]
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    called = {id(call.func) for call in calls}
    # a function passed as a value is called under another name, with any arguments
    escaped = {node.id if isinstance(node, ast.Name) else node.attr
               for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute))
               and isinstance(node.ctx, ast.Load) and id(node) not in called}

    def passes(call, index, param):
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        return index is not None and len(call.args) > index

    unpassed = []
    for module, tree in src.items():
        for label, name, index, param in _defaulted(tree):
            named = [call for call in calls
                     if getattr(call.func, "id", getattr(call.func, "attr", None)) == name]
            if name not in escaped and not any(passes(c, index, param) for c in named):
                unpassed.append(f"{module}: {label}({param})")
    assert not unpassed, "defaulted parameters that no call passes: " + ", ".join(unpassed)


# The only callers of the dense eigensolver: the block-wise eigenvalues send it
# irreducible blocks of size 3 or more, and the splitter its companion matrices.
# Every other eigenvalue in the package goes through ``block_eigvals``.
_EIGVALS_CALLERS = {("matkernel", "block_eigvals"), ("rootsplit", "polished_roots")}


def test_dense_eigensolver_only_behind_block_eigvals():
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) \
                        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "eigvals":
                    callers.add((path.stem, owner))
    assert callers <= _EIGVALS_CALLERS, "eigvals called outside block_eigvals: " \
        + ", ".join(f"{module}.{owner}" for module, owner in sorted(callers - _EIGVALS_CALLERS))
