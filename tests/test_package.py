"""Package boundary: the public names, and no unused imports in the modules."""

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
