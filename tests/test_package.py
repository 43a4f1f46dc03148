"""Package boundary: the public names, no unused imports, no dead private helpers."""

import ast
import dataclasses
import importlib
import pathlib
from fractions import Fraction

import numpy as np
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


def test_public_names_resolve_on_lookup_and_are_never_cached():
    # each name stays bound only in its own module, so code that rebinds a
    # function there (a tracer, a monkeypatch) is seen through the package
    star = {}
    exec("from talbotsim import *", star)
    assert star.keys() - {"__builtins__"} == set(talbotsim.__all__)
    assert set(talbotsim.__all__) <= set(dir(talbotsim))
    for name in talbotsim.__all__:
        if name != "__version__":
            assert star[name] is getattr(talbotsim, name)
            assert name not in vars(talbotsim), name


# The package's public names, so that adding or removing one has to be a
# deliberate edit here.
PUBLIC_NAMES = [
    "CarpetImage", "CrosscheckResult", "DecompositionReport", "FidelityRow",
    "GratingSpec", "ModeField", "OpticalProgram", "PhaseMask", "PostSelectedOperator",
    "Propagate", "PropagationReport", "ReplicaDecomposition", "Revival", "SDBSSpec",
    "SampledField", "__version__", "angular_spectrum", "basis_wavefunction", "build_cz",
    "circulant", "compile_program", "control_splitter", "cz_figures_of_merit",
    "detect_revivals", "diagonal_gate", "fidelity_sweep", "filter_splitter",
    "format_report", "gate_crosscheck", "gauss_coefficients", "grating_coefficients",
    "hadamard_program", "hadamard_via_talbot", "ideal_cz_matrix",
    "interaction_phase_signature", "matrix_to_json", "mean_orthogonality",
    "measure_probabilities", "pauli_shift", "postselected_to_json", "prepare_bloch_state",
    "program_from_json", "program_to_json", "propagate_paraxial", "qft_decomposition_even",
    "qft_decomposition_odd", "qft_matrix", "render_carpet", "render_program_carpet",
    "replica_decompose", "run_suite", "schmidt_coefficients", "sdbs_mode_map",
    "synthesize_gaussian_comb", "talbot_cycle_length",
    "talbot_step_coefficients", "talbot_unitary", "write_csv", "write_json", "write_pgm",
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
        "carpet": ["_BLOCK_ENTRIES", "_integer", "_paraxial_phases", "_read_only", "_slit_basis",
                   "_walk"],
        "fidelity": ["_integer"],
        "gates": ["_integer", "_root_of_unity"],
        "grating": ["_integer", "_read_only", "_root_of_unity"],
        "photonpair": ["_integer", "_read_only"],
        "programs": ["_integer"],
        "propagation": ["_integer", "_read_only", "_root_of_unity", "_slit_states"],
        "serialize": ["_integer"],
    }


_SPEC = talbotsim.GratingSpec(slit_width=0.125, mode_truncation=16)
_PROGRAM = talbotsim.OpticalProgram(2, (talbotsim.Propagate(Fraction(1, 4)),))
_PROGRAM_3 = talbotsim.OpticalProgram(3, (talbotsim.Propagate(Fraction(1, 3)),))
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
    "render_program_carpet-level": lambda n: talbotsim.render_program_carpet(
        _SPEC, _PROGRAM_3, z_steps=3, x_steps=8, initial_level=n),
    "synthesize_gaussian_comb": lambda n: talbotsim.synthesize_gaussian_comb(_SPEC, 1.0, n_x=n),
    "fidelity_sweep": lambda n: talbotsim.fidelity_sweep([5.0], [n], n_x=2**10),
}


@pytest.mark.parametrize(
    "value", [2.5, 3.0, True, "3"], ids=["fraction", "float", "bool", "string"]
)
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_refuse_floats_and_bools(call, value):
    # int() would truncate 2.5 and read True as 1; the package's one rule
    # (gauss._integer) makes each a ValueError instead
    call(2)
    with pytest.raises(ValueError, match="must be (a positive|an) integer"):
        call(value)


# Frozen classes that store arrays: a constructor from the caller's arrays,
# their shapes, and the dtype the class stores, which they already have.
FROZEN_ARRAYS = {
    "ModeField": (talbotsim.ModeField, [(3,)], complex),
    "SampledField": (lambda a: talbotsim.SampledField(a, 1.0), [(4,)], complex),
    "SDBSSpec": (talbotsim.SDBSSpec, [(2,), (2,)], complex),
    "PostSelectedOperator": (lambda diagonal: talbotsim.PostSelectedOperator(2, 1, diagonal),
                             [(4,)], complex),
    "CarpetImage": (talbotsim.CarpetImage, [(2, 3), (2,), (3,)], float),
}


@pytest.mark.parametrize("build,shapes,dtype", FROZEN_ARRAYS.values(), ids=FROZEN_ARRAYS.keys())
def test_frozen_classes_store_a_read_only_view_of_the_callers_array(build, shapes, dtype):
    # sqrt(1/2) everywhere also makes |t|^2 + |r|^2 = 1 for the splitter
    given = [np.full(shape, np.sqrt(0.5), dtype) for shape in shapes]
    frozen = build(*given)
    stored = [value for value in vars(frozen).values() if isinstance(value, np.ndarray)]
    assert len(stored) == len(given)
    for array, value in zip(given, stored):
        assert array.flags.writeable
        assert not value.flags.writeable
        assert np.shares_memory(array, value)


def test_sizes_are_read_from_the_arrays():
    # a stored size could only repeat, or contradict, the arrays' own length
    fields = {
        cls.__name__: [field.name for field in dataclasses.fields(cls)]
        for cls in (talbotsim.ModeField, talbotsim.SDBSSpec, talbotsim.SampledField)
    }
    assert fields == {
        "ModeField": ["coefficients"],
        "SDBSSpec": ["transmission", "reflection"],
        "SampledField": ["amplitudes", "extent"],
    }
