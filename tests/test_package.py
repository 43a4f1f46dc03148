"""Package boundary: the public names, no unused imports, no dead private helpers."""

import ast
import importlib
import pathlib

import pytest

import talbotsim

PACKAGE = pathlib.Path(talbotsim.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def test_public_names_are_the_module_all_lists():
    union = {"__version__"}
    for path in MODULES:
        module = importlib.import_module(f"talbotsim.{path.stem}")
        union.update(getattr(module, "__all__", ()))
    assert set(talbotsim.__all__) == union
    assert len(talbotsim.__all__) == len(union)
    for name in talbotsim.__all__:
        assert getattr(talbotsim, name) is not None, name


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # a name listed in __all__ is re-exported, which is a use
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _defined_private_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [target.id for target in node.targets if isinstance(target, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _referenced_names(node: ast.stmt) -> set[str]:
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def test_every_private_module_name_is_used_elsewhere():
    """A module-level `def _x` or `_X = ...` must be referenced by another
    top-level statement somewhere in the package; its own body (recursion,
    its own value) does not count."""
    statements = [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
    ]
    references = [_referenced_names(node) for _, node in statements]
    dead = [
        f"{module}:{node.lineno} {name}"
        for index, (module, node) in enumerate(statements)
        for name in _defined_private_names(node)
        if not any(name in names for other, names in enumerate(references) if other != index)
    ]
    assert not dead, f"private names nothing else uses: {dead}"


def test_private_names_crossing_module_boundaries_are_the_listed_few():
    """Every private name one module imports from another is listed here, so
    a new cross-module private import has to be a deliberate edit."""
    crossing = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        names = sorted(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("talbotsim"))
            for alias in node.names
            if alias.name.startswith("_")
        )
        if names:
            crossing[path.stem] = names
    assert crossing == {
        "carpet": ["_BLOCK_ENTRIES", "_paraxial_phases", "_slit_basis", "_walk"],
        "fidelity": ["_angular_spectrum"],
        "cli": ["_matrix_fields", "_postselected_fields"],
        "verify": ["_cz_by_state_evolution"],
    }
