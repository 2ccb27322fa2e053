"""Surface guard: ``src/hypersym`` defines only what the package itself uses.

Every module-level function and class, and every public method, must be
referenced somewhere in ``src/hypersym`` outside its own definition.  A
module-level name of module M counts as referenced only through a binding of
M: a ``Name`` in M itself, a ``Name`` bound by ``from hypersym.M import
name`` in another module, or ``M.name`` where M is an imported module.
A method of class C counts as referenced through ``x.name`` where the
receiver x resolves to C; a receiver that resolves to another class does
not count, and an unresolved receiver, or a bare ``Name``, matches by name
alone.  A name resolves to a class as ``self`` in a method of the class, as
a parameter annotated with it, as bound by a call whose return annotation
is the class, or as the variable of a loop over a ``list[D]`` dataclass
field, in its own function or an enclosing one.
A name that only tests reach is a fixture or a probe, and it lives under
``tests/`` (``support.py``, ``kn_reference.py``).  Every dataclass field must
be read as an attribute somewhere in ``src/hypersym`` or ``tests/``, or its
dataclass must reach ``dataclasses.asdict`` or ``dataclasses.fields`` in
``src/hypersym``, which read every field; a field that is only written
carries nothing.  The argument of ``asdict`` or ``fields`` is resolved to
its class the same way.  Every defaulted parameter must be
passed by some call in ``src/hypersym`` or ``tests/``; a default that no
caller overrides is a constant.  The dense eigensolver is called only behind
``matkernel.block_eigvals`` and in ``rootsplit.polished_roots``, and the JSON
type rule ``errors.is_json`` only in the config walker, ``runner._violation``.
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of a function or class body, and the nested scopes themselves but
    not their bodies."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _resolved_names(trees: list[ast.Module]) -> dict:
    """id of each loaded ``Name`` in ``trees`` that resolves to a class defined in
    ``trees``, by the rules of the module docstring -> that class's name.  A name
    bound twice to different classes, or any other way, is unresolved."""
    classes = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def class_of(annotation):
        name = ast.unparse(annotation).strip("'\"") if annotation is not None else None
        return name if name in classes else None

    returns = {node.name: class_of(node.returns) for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    elements = {(node.name, item.target.id): item.annotation.slice.id
                for tree in trees for node in tree.body
                if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.annotation, ast.Subscript)
                and getattr(item.annotation.value, "id", None) == "list"
                and isinstance(item.annotation.slice, ast.Name)}
    resolved = {}

    def visit(scope, outer: dict, owner: str | None):
        bound: dict = {}

        def bind(target, cls):
            bound[target.id] = cls if bound.get(target.id, cls) == cls else None
            done.add(id(target))

        done: set = set()
        nodes = list(_own_nodes(scope))
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = scope.args
            for i, arg in enumerate(args.posonlyargs + args.args + args.kwonlyargs):
                bound[arg.arg] = owner if i == 0 and owner and arg.arg == "self" \
                    else class_of(arg.annotation)
            for arg in filter(None, (args.vararg, args.kwarg)):
                bound[arg.arg] = None
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                call = node.value if isinstance(node.value, ast.Call) else None
                bind(node.targets[0], call and returns.get(_callee(call)))
        for node in nodes:  # for v in x.rows, with x resolved and rows a list[D]
            if isinstance(node, (ast.For, ast.comprehension)) \
                    and isinstance(node.target, ast.Name) \
                    and isinstance(node.iter, ast.Attribute) \
                    and isinstance(node.iter.value, ast.Name):
                receiver = {**outer, **bound}.get(node.iter.value.id)
                bind(node.target, elements.get((receiver, node.iter.attr)))
        for node in nodes:  # any other binding: tuples, loops, with, walrus
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    and id(node) not in done:
                bind(node, None)
        if isinstance(scope, ast.ClassDef):
            bound = {}  # a class body's names are not visible in its methods
        names = {**outer, **bound}
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and names.get(node.id):
                resolved[id(node)] = names[node.id]
            if isinstance(node, _SCOPES):
                visit(node, names, scope.name if isinstance(scope, ast.ClassDef) else None)

    for tree in trees:
        for node in tree.body:
            if isinstance(node, _SCOPES):
                visit(node, {}, None)
    return resolved


def test_every_definition_is_referenced_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bound = [(key, node) for module, tree in trees.items()
             for key, node in _references(module, tree)]
    resolved = _resolved_names(list(trees.values()))
    # (receiver class or None, name) of each Name and attribute
    named = [((None, node.id) if isinstance(node, ast.Name)
              else (resolved.get(id(node.value)), node.attr), node)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for module, tree in trees.items():
        for label, name, definition in _definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if "." in label:  # a method: through its class, or an unresolved receiver
                keys = {(label.split(".")[0], name), (None, name)}
                used = any(key in keys and id(node) not in inside for key, node in named)
            else:
                used = any(key == (module, name) and id(node) not in inside
                           for key, node in bound)
            if not used:
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
    ``fields``, resolved by :func:`_resolved_names`."""
    resolved = _resolved_names(trees)
    return {resolved.get(id(node.args[0])) for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _callee(node) in ("asdict", "fields")
            and node.args} - {None}


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


def _callers(name: str) -> set[tuple[str, str]]:
    """(module, top-level definition) of each call of ``name`` in ``src/hypersym``."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) \
                        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name:
                    callers.add((path.stem, owner))
    return callers


def test_dense_eigensolver_only_behind_block_eigvals():
    callers = _callers("eigvals")
    assert callers <= _EIGVALS_CALLERS, "eigvals called outside block_eigvals: " \
        + ", ".join(f"{module}.{owner}" for module, owner in sorted(callers - _EIGVALS_CALLERS))


def test_json_types_are_checked_only_by_the_config_walker():
    # one type rule behind one checker: the schema walker checks every outside
    # document, inline coefficients among them, and the parsers behind it trust it
    assert _callers("is_json") == {("runner", "_violation")}


def test_planner_imports_nothing_of_hypersym_but_errors():
    # the exact-arithmetic planner owns ParameterSet and its own refusals, and
    # leans on none of the numerics
    imported = set()
    for node in ast.walk(ast.parse((SRC / "planner.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "hypersym":
            imported |= {f"hypersym.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert {name for name in imported if name.split(".")[0] == "hypersym"} <= {"hypersym.errors"}, \
        imported
