"""Package boundary: the public names, no unused imports, no dead private helpers."""

import ast
import importlib
import pathlib
from fractions import Fraction

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


# The package's public names, so that adding or removing one has to be a
# deliberate edit here.
PUBLIC_NAMES = [
    "CarpetImage", "Check", "CrosscheckResult", "DecompositionReport", "FidelityRow",
    "GratingSpec", "ModeField", "OpticalProgram", "PhaseMask", "PostSelectedOperator",
    "Propagate", "PropagationReport", "ReplicaDecomposition", "Revival", "SDBSSpec",
    "SampledField", "__version__", "basis_wavefunction", "build_cz", "circulant",
    "compile_program", "control_splitter", "detect_revivals", "diagonal_gate",
    "fidelity_sweep", "filter_splitter", "format_report", "gate_crosscheck",
    "gauss_coefficients", "grating_coefficients", "hadamard_program", "hadamard_via_talbot",
    "ideal_cz_matrix", "interaction_phase_signature", "matrix_from_json", "matrix_to_json",
    "mean_orthogonality", "measure_probabilities", "pauli_shift", "postselected_to_json",
    "prepare_bloch_state", "program_from_json", "program_to_json",
    "propagate_angular_spectrum", "propagate_paraxial", "qft_decomposition_even",
    "qft_decomposition_odd", "qft_matrix", "render_carpet", "render_program_carpet",
    "replica_decompose", "run_suite", "schmidt_coefficients", "sdbs_mode_map", "suite_names",
    "synthesize_gaussian_comb", "talbot_cycle_length", "talbot_step_coefficients",
    "talbot_unitary", "write_csv", "write_json", "write_pgm",
]


def test_public_names_are_pinned():
    assert sorted(talbotsim.__all__) == PUBLIC_NAMES


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
        "carpet": ["_BLOCK_ENTRIES", "_integer", "_paraxial_phases", "_slit_basis", "_walk"],
        "fidelity": ["_angular_spectrum"],
        "gates": ["_integer"],
        "grating": ["_integer"],
        "photonpair": ["_integer"],
        "programs": ["_integer"],
        "propagation": ["_integer"],
        "serialize": ["_integer"],
        "verify": ["_cz_by_state_evolution"],
    }


_SPEC = talbotsim.GratingSpec(slit_width=0.125, mode_truncation=16)
_PROGRAM = talbotsim.OpticalProgram(2, (talbotsim.Propagate(Fraction(1, 4)),))
# Public functions that take a dimension, a level or a step count, each
# with the argument under test as `n`.
INTEGER_ARGUMENTS = {
    "qft_matrix": lambda n: talbotsim.qft_matrix(n),
    "pauli_shift": lambda n: talbotsim.pauli_shift(n),
    "pauli_shift-power": lambda n: talbotsim.pauli_shift(3, n),
    "mean_orthogonality": lambda n: talbotsim.mean_orthogonality(n, 0.3),
    "basis_wavefunction": lambda n: talbotsim.basis_wavefunction(_SPEC, n, 0),
    "basis_wavefunction-level": lambda n: talbotsim.basis_wavefunction(_SPEC, 4, n),
    "ideal_cz_matrix": lambda n: talbotsim.ideal_cz_matrix(n, 1),
    "ideal_cz_matrix-level": lambda n: talbotsim.ideal_cz_matrix(3, n),
    "control_splitter": lambda n: talbotsim.control_splitter(n, 1),
    "filter_splitter": lambda n: talbotsim.filter_splitter(n, 1),
    "render_carpet-z": lambda n: talbotsim.render_carpet(_SPEC, z_steps=n, x_steps=8),
    "render_carpet-x": lambda n: talbotsim.render_carpet(_SPEC, z_steps=3, x_steps=n),
    "render_program_carpet-z": lambda n: talbotsim.render_program_carpet(
        _SPEC, _PROGRAM, z_steps=n, x_steps=8),
    "render_program_carpet-x": lambda n: talbotsim.render_program_carpet(
        _SPEC, _PROGRAM, z_steps=3, x_steps=n),
}


@pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["fraction", "float", "bool"])
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_refuse_floats_and_bools(call, value):
    # int() would truncate 2.5 and read True as 1; the package's one rule
    # (gauss._integer) makes each a ValueError instead
    call(2)
    with pytest.raises(ValueError, match="must be (a positive|an) integer"):
        call(value)
