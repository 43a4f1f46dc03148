"""Deterministic on-disk formats: JSON matrices and programs, PGM, CSV.

Every writer produces byte-identical output for identical inputs: floats
are rendered by repr (shortest round-trip form), key order is fixed, and
no timestamps or environment details are embedded.  A JSON payload holds
each matrix as a square ndarray (matrix_to_json, postselected_to_json);
write_json writes json.dumps(..., indent=2) of the payload with each
matrix spelled out as rows of {"re", "im"} cells.  JSON and CSV go to a
path or a text stream a piece at a time (at most 512 cells of a matrix
row, a block of CSV rows), so no writer holds the whole text in memory.
A matrix cell is rendered once while its text is kept (a few rows of
texts at most) and reused for every later entry with the same bytes, so
a circulant gate or a CZ matrix renders few of its floats.  A CSV table
comes as columns, and a float64 array column renders each distinct value
once per block, so a carpet's coordinates are not rendered on every row.
The program codec imports `programs` when called, not with this module.
"""

import json
from itertools import chain

import numpy as np

from .gauss import _integer

__all__ = [
    "matrix_to_json",
    "program_to_json",
    "program_from_json",
    "postselected_to_json",
    "write_json",
    "write_pgm",
    "write_csv",
]


def _square(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return matrix


def matrix_to_json(matrix: np.ndarray) -> dict:
    """{"dim": D, "entries": the complex ndarray}; write_json writes [[{"re", "im"}]] rows."""
    matrix = _square(matrix)
    return {"dim": int(matrix.shape[0]), "entries": matrix}


def _json_integer(value, name: str) -> int:
    # JSON has one number type, so an integral float such as 2.0 reads as 2
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _integer(value, name)


def program_to_json(program) -> dict:
    from .programs import Propagate

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


def program_from_json(payload: dict):
    """Inverse of program_to_json; a malformed payload raises ValueError."""
    from fractions import Fraction

    from .programs import OpticalProgram, PhaseMask, Propagate

    try:
        steps = []
        for index, entry in enumerate(payload["steps"]):
            kinds = sorted(entry) if isinstance(entry, dict) else entry
            if kinds == ["propagate"]:
                if sorted(entry["propagate"]) != ["den", "num"]:
                    raise ValueError(f"step {index}: propagate takes num and den only")
                num, den = (_json_integer(entry["propagate"][key], key) for key in ("num", "den"))
                steps.append(Propagate(Fraction(num, den)))
            elif kinds == ["phase_mask"]:
                for p in entry["phase_mask"]:
                    if isinstance(p, bool) or not isinstance(p, (int, float)):
                        raise ValueError(f"step {index}: a phase must be a number, got {p!r}")
                steps.append(PhaseMask(tuple(float(p) for p in entry["phase_mask"])))
            else:
                raise ValueError(f"step {index}: expected one step kind, got {kinds!r}")
        return OpticalProgram(dim=_json_integer(payload["dim"], "dim"), steps=tuple(steps))
    except (KeyError, TypeError, ArithmeticError) as error:
        raise ValueError(f"malformed program: {type(error).__name__}: {error}") from error


def postselected_to_json(op) -> dict:
    """Serialized PostSelectedOperator, corrections included, its matrix as matrix_to_json's."""
    alpha, beta, gamma = op.corrections()
    return {
        "dim": op.dim,
        "control_level": op.control_level,
        "matrix": matrix_to_json(op.matrix),
        "success_probabilities": [float(p) for p in op.success_probabilities],
        "path_swap_applied": bool(op.path_swap_levels),
        "path_swap_levels": [int(d) for d in op.path_swap_levels],
        "local_corrections": {
            "path_a_phases": [float(p) for p in alpha],
            "path_b_phases": [float(p) for p in beta],
            "global_phase": gamma,
        },
    }


def _json_pieces(value, level: int):
    # json.dumps(value, indent=2) at nesting `level`, a square ndarray written
    # as its list of rows of {"re", "im"} cells.
    outer = "\n" + "  " * level
    inner = outer + "  "
    if isinstance(value, np.ndarray):
        yield from _matrix_pieces(value, outer)
    elif isinstance(value, dict) and value:
        for index, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield ("{" if index == 0 else ",") + inner + json.dumps(key) + ": "
            yield from _json_pieces(item, level + 1)
        yield outer + "}"
    elif isinstance(value, (list, tuple)) and value:
        for index, item in enumerate(value):
            yield ("[" if index == 0 else ",") + inner
            yield from _json_pieces(item, level + 1)
        yield outer + "]"
    else:
        yield json.dumps(value)


# Cells per piece of a matrix row: about 32 kB of text, under glibc's
# 128 KiB mmap threshold, so a long row (143 kB at czgate -d 48) is not
# mapped and unmapped again for every row.
_ROW_PIECE_CELLS = 512


def _matrix_pieces(matrix: np.ndarray, outer: str):
    # A Talbot gate is circulant and a CZ matrix nearly all zeros, so most
    # rows hold only entries an earlier row rendered.  A row whose raw bytes
    # are the previous row's rolled by one (every row after the first of a
    # circulant, most rows of a CZ matrix) takes the previous row's cell
    # texts rotated.  Any other row looks its cells up in one dict keyed on
    # each entry's 16 raw bytes (which keeps 0.0 apart from -0.0); a row
    # with an entry the dict lacks renders only its missing cells, and the
    # dict is cleared before it can outgrow two rows of texts.
    matrix = _square(matrix)
    dim = matrix.shape[0]
    if dim == 0:
        yield "[]"
        return
    row_indent = outer + "  "
    cell_indent = row_indent + "  "
    field_indent = cell_indent + "  "
    head, between, tail = "[" + cell_indent + "{", "}," + cell_indent + "{", "}" + row_indent + "]"
    raw = np.dtype((np.void, 16))
    texts = {}
    previous = b""
    for index, row in enumerate(matrix):
        # the row's bytes in index order, whatever the matrix's memory layout
        current = row.tobytes()
        if current == previous[-16:] + previous[:-16]:
            cells = cells[-1:] + cells[:-1]
        else:
            keys = row.view(raw).tolist()
            try:
                cells = list(map(texts.__getitem__, keys))
            except KeyError:
                if len(texts) > dim:
                    texts.clear()
                # json.dumps spells out NaN, Infinity and -Infinity, which
                # repr writes as nan and inf; finite floats it renders by
                # repr too
                render = float.__repr__ if np.isfinite(row).all() else json.dumps
                for key, entry in zip(keys, row.tolist()):
                    if key not in texts:
                        texts[key] = (f'{field_indent}"re": {render(entry.real)},'
                                      f'{field_indent}"im": {render(entry.imag)}{cell_indent}')
                cells = list(map(texts.__getitem__, keys))
        previous = current
        opening = ("[" if index == 0 else ",") + row_indent + head
        for lo in range(0, dim, _ROW_PIECE_CELLS):
            yield opening + between.join(cells[lo:lo + _ROW_PIECE_CELLS])
            opening = between
        yield tail
    yield outer + "]"


def write_json(target, payload: dict) -> None:
    """Write `payload` as canonical JSON to `target`, a path or a text stream.

    The bytes are json.dumps(payload, indent=2) + "\n" (two-space indent,
    insertion key order, keys str) where each square ndarray in the payload
    is written as its list of rows of {"re", "im"} cells, each float by
    repr.  The text goes out piece by piece, and neither the whole
    text nor a dict per matrix entry is ever built: memory is bounded by a
    few matrix rows, and each distinct entry is rendered once while its
    text is kept.
    """
    _write_chunks(target, chain(_json_pieces(payload, 0), ("\n",)))


def write_pgm(path, intensity: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255) of an intensity array in [0, 1].

    Rows map top to bottom in array order; callers put increasing
    propagation distance downward.
    """
    intensity = np.asarray(intensity, dtype=float)
    if intensity.ndim != 2:
        raise ValueError(f"intensity must be 2-d, got shape {intensity.shape}")
    if not (intensity.min() >= 0 and intensity.max() <= 1):
        raise ValueError("intensity values must lie in [0, 1]")
    height, width = intensity.shape
    pixels = np.round(intensity * 255.0).astype(np.uint8)
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(pixels.tobytes())


# Rows per CSV block: large enough that numpy's per-call cost is spread
# thin, small enough that a block's texts stay well under a megabyte.
_CSV_BLOCK_ROWS = 1024


def _csv_lines(columns: dict, metadata: dict | None):
    # The text in pieces of one block of rows each.  A block is rendered one
    # column at a time and its lines are joined in C.
    lengths = set(map(len, columns.values()))
    if len(lengths) != 1:
        raise ValueError(f"a CSV table needs one or more columns of one length, "
                         f"got lengths {sorted(lengths)}")
    if metadata:
        for key, value in metadata.items():
            yield f"# {key}: {_render(value)}\n"
    yield ",".join(columns) + "\n"
    for lo in range(0, lengths.pop(), _CSV_BLOCK_ROWS):
        texts = [_column_texts(cells[lo:lo + _CSV_BLOCK_ROWS]) for cells in columns.values()]
        yield "\n".join(map(",".join, zip(*texts))) + "\n"


def _column_texts(cells) -> list:
    # _render of each cell.  A float64 array renders each distinct value once,
    # keyed on its 8 raw bytes so that 0.0 and -0.0 stay apart.
    if not (isinstance(cells, np.ndarray) and cells.dtype == np.float64):
        return list(map(_render, cells))
    keys, inverse = np.unique(cells.view(np.uint64), return_inverse=True)
    texts = list(map(float.__repr__, keys.view(float).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def write_csv(target, columns: dict, metadata: dict | None = None) -> None:
    """Write `columns`, {header: cells}, as a CSV table to `target`, a path or a text stream.

    Every column (a list, a range or a 1-d array) has the same length.
    Optional '# key: value' metadata lines come before the header.  Floats
    are rendered by repr so a reader recovers them exactly, bools as true
    and false, other values through str.  Rows are rendered in blocks,
    column by column, each distinct float of a float64 array once per
    block, and the text goes out one block at a time.
    """
    _write_chunks(target, _csv_lines(columns, metadata))


def _write_chunks(target, chunks) -> None:
    if hasattr(target, "writelines"):
        target.writelines(chunks)
    else:
        with open(target, "w", encoding="ascii") as handle:
            handle.writelines(chunks)


def _render(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)
