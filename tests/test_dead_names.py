import ast
import pathlib

import vobs

SRC = pathlib.Path(vobs.__file__).parent

# module-level names that nothing in src/ reads, kept on purpose as the
# reference a test checks the program against
VERIFICATION_SEAMS = {
    "pacejka_lateral_force": "the tyre formula the simulator's bound dynamics inline",
    "read_trace_csv": "reads back the traces evaluate writes",
    "process_jacobian": "the EKF prediction Jacobian, against finite differences",
    "measurement_jacobian": "the EKF measurement Jacobian, against finite differences",
    "lstm_cell_forward": "one LSTM step, the reference for forward_seq",
    "gru_cell_forward": "one GRU step, the reference for forward_seq",
}


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
