"""Deterministic on-disk formats: JSON matrices and programs, PGM, CSV.

Every writer produces byte-identical output for identical inputs: floats
are rendered by repr (shortest round-trip form), key order is fixed, and
no timestamps or environment details are embedded.  JSON and CSV go to a
path or a text stream a piece at a time (a matrix row, a block of CSV
rows), so no writer holds the whole text in memory.  A matrix row reuses
the cell texts of an earlier row for entries with the same bytes, so a
circulant gate or a CZ matrix renders few of its floats; a row with an
entry they lack is rendered whole, as one format call.  A CSV block renders
each distinct float of a column once, so a carpet's coordinates are not
rendered again on every row.
"""

import json
from fractions import Fraction
from itertools import islice

import numpy as np

from .programs import OpticalProgram, PhaseMask, Propagate

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "program_to_json",
    "program_from_json",
    "postselected_to_json",
    "dumps",
    "write_json",
    "write_pgm",
    "format_csv",
    "write_csv",
]


def _complex_entry(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _square(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return matrix


def _matrix_fields(matrix: np.ndarray) -> dict:
    # matrix_to_json's fields with the entries left as the ndarray, which
    # dumps and write_json render row by row: the form the CLI streams.
    matrix = _square(matrix)
    return {"dim": int(matrix.shape[0]), "entries": matrix}


def matrix_to_json(matrix: np.ndarray) -> dict:
    """{"dim": D, "entries": row-major [[{"re", "im"}]]} for a square matrix."""
    payload = _matrix_fields(matrix)
    payload["entries"] = [[_complex_entry(z) for z in row] for row in payload["entries"]]
    return payload


def _integer(value, name: str) -> int:
    # int() would truncate 1.5 to 1 and read True as 1
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def matrix_from_json(payload: dict) -> np.ndarray:
    dim = _integer(payload["dim"], "dim")
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
                num, den = (_integer(entry["propagate"][key], key) for key in ("num", "den"))
                steps.append(Propagate(Fraction(num, den)))
            elif "phase_mask" in entry:
                steps.append(PhaseMask(tuple(float(p) for p in entry["phase_mask"])))
            else:
                raise ValueError(f"step {index}: unknown step kind {sorted(entry)}")
        return OpticalProgram(dim=_integer(payload["dim"], "dim"), steps=tuple(steps))
    except (KeyError, TypeError, ArithmeticError) as error:
        raise ValueError(f"malformed program: {type(error).__name__}: {error}") from error


def _postselected_fields(op) -> dict:
    # postselected_to_json's fields, its matrix in the _matrix_fields form
    return {
        "dim": op.dim,
        "control_level": op.control_level,
        "matrix": _matrix_fields(op.matrix),
        "success_probabilities": [float(p) for p in op.success_probabilities],
        "path_swap_applied": op.path_swap_applied,
        "path_swap_levels": [int(d) for d in op.path_swap_levels],
        "local_corrections": {
            "path_a_phases": [float(p) for p in op.correction_alpha],
            "path_b_phases": [float(p) for p in op.correction_beta],
            "global_phase": float(op.correction_global),
        },
    }


def postselected_to_json(op) -> dict:
    """Serialized PostSelectedOperator, corrections included."""
    payload = _postselected_fields(op)
    payload["matrix"] = matrix_to_json(op.matrix)
    return payload


def _json_chunks(payload):
    """The text of dumps(payload) in pieces, at most one matrix row per piece."""
    yield from _json_pieces(payload, 0)
    yield "\n"


def _json_pieces(value, level: int):
    # json.dumps(value, indent=2) at nesting `level`, a square ndarray taking the
    # place of the list of {"re", "im"} rows that matrix_to_json would build.
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


def _matrix_pieces(matrix: np.ndarray, outer: str):
    # A Talbot gate is circulant and a CZ matrix nearly all zeros, so most
    # rows hold only entries an earlier row rendered.  The cell texts of one
    # rendered row are kept, keyed on each entry's 16 raw bytes (which keeps
    # 0.0 apart from -0.0), and a row is rendered only if an entry misses.
    # A rendered row is cut into cells only once the next row's first entry
    # is found in it, so a matrix of all-distinct entries pays no cutting.
    matrix = _square(matrix)
    dim = matrix.shape[0]
    if dim == 0:
        yield "[]"
        return
    row_indent = outer + "  "
    cell_indent = row_indent + "  "
    field_indent = cell_indent + "  "
    cell = field_indent + '"re": %r,' + field_indent + '"im": %r' + cell_indent
    # "}" closes a cell and occurs nowhere else in a row, so `between` cuts a
    # rendered row into its cells, braces stripped
    head, between, tail = "[" + cell_indent + "{", "}," + cell_indent + "{", "}" + row_indent + "]"
    row_text = head + between.join([cell] * dim) + tail
    raw = np.dtype((np.void, 16))
    texts = {}
    rendered = None  # (entries, text) of the last rendered row, until cut
    values = [0.0] * (2 * dim)
    for index, row in enumerate(matrix):
        entries = row.view(raw)
        if rendered is not None and (rendered[0] == entries[0]).any():
            cells = rendered[1][len(head):-len(tail)].split(between)
            texts = dict(zip(rendered[0].tolist(), cells))
            rendered = None
        try:
            text = head + between.join(map(texts.__getitem__, entries.tolist())) + tail
        except KeyError:
            values[0::2] = row.real.tolist()
            values[1::2] = row.imag.tolist()
            if np.isfinite(row).all():
                text = row_text % tuple(values)
            else:
                # json.dumps spells out NaN, Infinity and -Infinity, which repr
                # writes as nan and inf; finite floats it renders by repr too.
                text = row_text.replace("%r", "%s") % tuple(map(json.dumps, values))
            rendered = entries, text
        yield ("[" if index == 0 else ",") + row_indent + text
    yield outer + "]"


def dumps(payload: dict) -> str:
    """Canonical JSON text: two-space indent, insertion key order, newline end.

    Equal to json.dumps(payload, indent=2) + "\n" where each square ndarray in
    the payload is replaced by its matrix_to_json "entries" list.
    """
    return "".join(_json_chunks(payload))


def write_json(target, payload: dict) -> None:
    """Write dumps(payload) to `target`, a path or a text stream, piece by piece.

    The bytes equal dumps's, but neither the whole text nor a dict per
    matrix entry is ever built: memory is bounded by one matrix row.
    """
    _write_chunks(target, _json_chunks(payload))


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


# Rows per CSV block: large enough that numpy's per-call cost is spread
# thin, small enough that a block's texts stay well under a megabyte.
_CSV_BLOCK_ROWS = 1024


def _csv_lines(header: list, rows, metadata: dict | None):
    # The text in pieces of one block of rows each.  A block is rendered one
    # column at a time, each distinct float of a column once, and its lines
    # are joined in C; a carpet's coordinates repeat on every row.
    if not header:
        raise ValueError("a CSV table needs at least one column")
    if metadata:
        for key, value in metadata.items():
            yield f"# {key}: {_render(value)}\n"
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(islice(rows, _CSV_BLOCK_ROWS)):
        if set(map(len, block)) != {len(header)}:
            raise ValueError(f"every CSV row must have the header's {len(header)} cells")
        columns = map(_column_texts, zip(*block))
        yield "\n".join(map(",".join, zip(*columns))) + "\n"


def _column_texts(column: tuple) -> list:
    # _render of each cell.  A column of Python floats renders each distinct
    # value once, keyed on its 8 raw bytes so that 0.0 and -0.0 stay apart;
    # its subclasses (np.float64 among them) go through _render.
    if set(map(type, column)) != {float}:
        return list(map(_render, column))
    keys, inverse = np.unique(np.array(column).view(np.uint64), return_inverse=True)
    texts = list(map(float.__repr__, keys.view(float).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def format_csv(header: list, rows, metadata: dict | None = None) -> str:
    """CSV text with optional '# key: value' metadata lines before the header.

    Floats are rendered by repr so a reader recovers them exactly; other
    values go through str.  Every row must have as many cells as the header.
    Rows are rendered in blocks, column by column, each distinct float of a
    column once per block.
    """
    return "".join(_csv_lines(header, rows, metadata))


def write_csv(target, header: list, rows, metadata: dict | None = None) -> None:
    """Write format_csv(header, rows, metadata) to `target`, a path or a text stream.

    The bytes equal format_csv's, but the text goes out one block of rows at
    a time and is never held whole in memory, so `rows` can be a generator
    over a large table.
    """
    _write_chunks(target, _csv_lines(header, rows, metadata))


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
