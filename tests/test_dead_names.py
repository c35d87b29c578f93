import ast
import math
import pathlib
from collections import defaultdict

import vobs

SRC = pathlib.Path(vobs.__file__).parent

# module-level names that nothing in src/ reads, kept on purpose as the
# reference a test checks the program against
VERIFICATION_SEAMS = {
    "pacejka_lateral_force": "the tyre formula the simulator's bound dynamics inline",
}

# class members that nothing in src/ reads by name, called from outside it
CALLED_FROM_OUTSIDE = {}


def _module_names(tree: ast.Module):
    """Names that the module-level defs, classes and assignments of `tree` bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _read_names(tree: ast.Module):
    """Every name `tree` reads, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_module_level_name_is_read():
    # an export from a package __init__ or an import in a test is not a use;
    # dunder names such as __version__ are read by tools outside src/
    defined, read = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update(n for n in _module_names(tree) if not n.startswith("__"))
        if path.name != "__init__.py":
            read.update(_read_names(tree))
    assert sorted(defined - read) == sorted(VERIFICATION_SEAMS)


def _class_bodies(trees):
    """Each class that `trees` define, by name: its base names and the names
    its body defines as methods, properties and class attributes. A
    NamedTuple's fields are left out: each is also a tuple position, filled
    and read by index."""
    classes = {}
    for cls in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        bases = [b.id for b in cls.bases if isinstance(b, ast.Name)]
        members = []
        for node in cls.body if "NamedTuple" not in bases else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.append(node.name)
            elif isinstance(node, ast.Assign):
                members += [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                members.append(node.target.id)
        classes[cls.name] = (bases, members)
    return classes


def _known_classes(func, owner, classes) -> dict:
    """The class of each name that `func` binds where the source tells it,
    else None: the first argument of a method of `owner` is of that class,
    and a name bound only to calls of one class is of that class."""
    args = [a.arg for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs]
    known = dict.fromkeys(args)
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in func.decorator_list)
    if owner and args and not static:
        known[args[0]] = owner
    bound = defaultdict(set)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            call = node.value
            cls = call.func.id if isinstance(call, ast.Call) and isinstance(
                call.func, ast.Name) and call.func.id in classes else None
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id].add(cls)
    for name, kinds in bound.items():
        known[name] = kinds.pop() if len(kinds) == 1 and name not in args else None
    return known


def _attribute_reads(tree, classes):
    """(receiver class, name) for each attribute `tree` reads: the class
    `_known_classes` tells or a class named directly, else None, which
    stands for any class."""
    reads = []

    def visit(node, owner, known):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, known)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, None, {**known, **_known_classes(child, owner, classes)})
            else:
                if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                    value = child.value
                    receiver = None
                    if isinstance(value, ast.Name):
                        receiver = known[value.id] if value.id in known \
                            else value.id if value.id in classes else None
                    reads.append((receiver, child.attr))
                visit(child, owner, known)

    visit(tree, None, {})
    return reads


def test_every_class_member_is_read():
    # a member counts as read when an attribute of its name is read in src/
    # on a receiver that may be of its class, a base or a subclass; dunder
    # members are called by Python itself
    trees = [(path, ast.parse(path.read_text())) for path in sorted(SRC.rglob("*.py"))]
    classes = _class_bodies(tree for _, tree in trees)

    def lineage(name):
        seen, todo = set(), [name]
        while todo:
            cls = todo.pop()
            if cls in classes and cls not in seen:
                seen.add(cls)
                todo += classes[cls][0]
        return seen

    reads = defaultdict(set)
    for path, tree in trees:
        if path.name != "__init__.py":
            for receiver, name in _attribute_reads(tree, classes):
                reads[name].add(receiver)
    unread = set()
    for cls, (_, members) in classes.items():
        for name in members:
            if name.startswith("__"):
                continue
            if not any(r is None or r in lineage(cls) or cls in lineage(r)
                       for r in reads[name]):
                unread.add(f"{cls}.{name}")
    assert sorted(unread) == sorted(CALLED_FROM_OUTSIDE)


# defaulted parameters that no call in src/ passes, kept on purpose
UNPASSED_DEFAULTS = {
    "run_maneuver.substep_s": "the integrator refinement the convergence tests use",
    "main.argv": "the console entry point calls main() with the process arguments",
}


def _functions(tree):
    """(owning class name or None, def) for every function `tree` defines."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield owner, child
            yield from visit(child, child.name if isinstance(child, ast.ClassDef) else None)

    yield from visit(tree, None)


def _defaulted(func, bound):
    """(name, position) of each defaulted parameter of `func`, the position
    counted after the `bound` leading parameters a method call fills, None
    for a keyword-only one."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def test_every_defaulted_parameter_is_passed():
    # a parameter whose default every call in src/ takes is an option only
    # tests set; calls match defs by name, and `ClassName(...)` counts
    # toward `ClassName.__init__`
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))]
    classes = {n.name for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    keywords, positionals = defaultdict(set), defaultdict(int)
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name in classes:
            name = f"{name}.__init__"
        spread = any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords)
        positionals[name] = max(positionals[name], math.inf if spread else len(call.args))
        keywords[name].update(k.arg for k in call.keywords)
    unpassed = set()
    for tree in trees:
        for owner, func in _functions(tree):
            static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
            name = f"{owner}.__init__" if func.name == "__init__" else func.name
            for arg, pos in _defaulted(func, 1 if owner and not static else 0):
                if arg not in keywords[name] and (pos is None or positionals[name] <= pos):
                    unpassed.add(f"{owner}.{func.name}.{arg}" if owner else f"{func.name}.{arg}")
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)
