"""Deterministic on-disk formats: JSON matrices and programs, PGM, CSV.

Every writer produces byte-identical output for identical inputs: floats
are rendered by repr (shortest round-trip form), key order is fixed, and
no timestamps or environment details are embedded.
"""

import json
from fractions import Fraction

import numpy as np

from .programs import OpticalProgram, PhaseMask, Propagate

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "program_to_json",
    "program_from_json",
    "postselected_to_json",
    "dumps",
    "write_pgm",
    "format_csv",
    "write_csv",
]


def _complex_entry(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def matrix_to_json(matrix: np.ndarray) -> dict:
    """{"dim": D, "entries": row-major [[{"re", "im"}]]} for a square matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return {
        "dim": int(matrix.shape[0]),
        "entries": [[_complex_entry(z) for z in row] for row in matrix],
    }


def matrix_from_json(payload: dict) -> np.ndarray:
    dim = int(payload["dim"])
    entries = payload["entries"]
    if len(entries) != dim or any(len(row) != dim for row in entries):
        raise ValueError(f"entries do not form a {dim}x{dim} matrix")
    return np.array(
        [[complex(cell["re"], cell["im"]) for cell in row] for row in entries]
    )


def program_to_json(program: OpticalProgram) -> dict:
    steps = []
    for step in program.steps:
        if isinstance(step, Propagate):
            steps.append(
                {
                    "propagate": {
                        "num": step.distance.numerator,
                        "den": step.distance.denominator,
                    }
                }
            )
        else:
            steps.append({"phase_mask": [float(p) for p in step.phases]})
    return {"dim": program.dim, "steps": steps}


def program_from_json(payload: dict) -> OpticalProgram:
    """Inverse of program_to_json; a malformed payload raises ValueError."""
    try:
        steps = []
        for index, entry in enumerate(payload["steps"]):
            if "propagate" in entry:
                frac = entry["propagate"]
                steps.append(Propagate(Fraction(int(frac["num"]), int(frac["den"]))))
            elif "phase_mask" in entry:
                steps.append(PhaseMask(tuple(float(p) for p in entry["phase_mask"])))
            else:
                raise ValueError(f"step {index}: unknown step kind {sorted(entry)}")
        return OpticalProgram(dim=int(payload["dim"]), steps=tuple(steps))
    except (KeyError, TypeError, ArithmeticError) as error:
        raise ValueError(f"malformed program: {type(error).__name__}: {error}") from error


def postselected_to_json(op) -> dict:
    """Serialized PostSelectedOperator, corrections included."""
    return {
        "dim": op.dim,
        "control_level": op.control_level,
        "matrix": matrix_to_json(op.matrix),
        "success_probabilities": [float(p) for p in op.success_probabilities],
        "path_swap_applied": op.path_swap_applied,
        "path_swap_levels": [int(d) for d in op.path_swap_levels],
        "local_corrections": {
            "path_a_phases": [float(p) for p in op.correction_alpha],
            "path_b_phases": [float(p) for p in op.correction_beta],
            "global_phase": float(op.correction_global),
        },
    }


def dumps(payload: dict) -> str:
    """Canonical JSON text: two-space indent, insertion key order, newline end."""
    return json.dumps(payload, indent=2) + "\n"


def write_pgm(path, intensity: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255) of an intensity array in [0, 1].

    Rows map top to bottom in array order; callers put increasing
    propagation distance downward.
    """
    intensity = np.asarray(intensity, dtype=float)
    if intensity.ndim != 2:
        raise ValueError(f"intensity must be 2-d, got shape {intensity.shape}")
    if intensity.min() < 0 or intensity.max() > 1:
        raise ValueError("intensity values must lie in [0, 1]")
    height, width = intensity.shape
    pixels = np.round(intensity * 255.0).astype(np.uint8)
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(pixels.tobytes())


def _csv_lines(header: list, rows, metadata: dict | None):
    if metadata:
        for key, value in metadata.items():
            yield f"# {key}: {_render(value)}\n"
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(_render(value) for value in row) + "\n"


def format_csv(header: list, rows, metadata: dict | None = None) -> str:
    """CSV text with optional '# key: value' metadata lines before the header.

    Floats are rendered by repr so a reader recovers them exactly; other
    values go through str.
    """
    return "".join(_csv_lines(header, rows, metadata))


def write_csv(path, header: list, rows, metadata: dict | None = None) -> None:
    """Write format_csv(header, rows, metadata) to `path` line by line.

    The bytes equal format_csv's, but the whole text is never held in
    memory, so `rows` can be a generator over a large table.
    """
    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(_csv_lines(header, rows, metadata))


def _render(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)
