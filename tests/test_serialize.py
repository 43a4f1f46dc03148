"""Deterministic serialization: JSON, PGM, CSV."""

import hashlib
import io
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talbotsim import (
    GratingSpec,
    OpticalProgram,
    PhaseMask,
    Propagate,
    build_cz,
    hadamard_program,
    matrix_to_json,
    postselected_to_json,
    program_from_json,
    program_to_json,
    render_carpet,
    talbot_unitary,
    write_csv,
    write_json,
    write_pgm,
)
from talbotsim.serialize import _CSV_BLOCK_ROWS as BLOCK
from talbotsim.serialize import _render


def _plain(value):
    """The payload with each ndarray as the row-major [[{"re", "im"}]] list,
    the form write_json spells out: the byte oracle is json.dumps of it."""
    if isinstance(value, np.ndarray):
        return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _complex_rows(rows: list) -> np.ndarray:
    """The complex matrix of parsed [[{"re", "im"}]] rows."""
    return np.array([[complex(cell["re"], cell["im"]) for cell in row] for row in rows])


def _expected_json(payload: dict) -> str:
    return json.dumps(_plain(payload), indent=2) + "\n"


def _streamed(payload: dict) -> str:
    stream = io.StringIO()
    write_json(stream, payload)
    return stream.getvalue()


def _csv_text(header: list, rows, metadata: dict | None = None) -> str:
    stream = io.StringIO()
    write_csv(stream, header, rows, metadata)
    return stream.getvalue()


def test_matrix_round_trip_exact():
    U = talbot_unitary(5, 3)
    payload = matrix_to_json(U)
    assert payload["dim"] == 5
    assert payload["entries"].dtype == complex
    assert np.array_equal(payload["entries"], U)
    assert json.loads(_streamed(payload)) == _plain(payload)
    empty = matrix_to_json(np.zeros((0, 0)))
    assert empty["dim"] == 0 and empty["entries"].shape == (0, 0)
    assert json.loads(_streamed(empty)) == {"dim": 0, "entries": []}


def test_matrix_round_trip_through_text():
    U = talbot_unitary(4, 1)
    text = _streamed(matrix_to_json(U))
    back = _complex_rows(json.loads(text)["entries"])
    # repr-format floats survive the text round trip bit for bit
    assert back.tobytes() == U.tobytes()


def test_matrix_json_validation():
    with pytest.raises(ValueError, match="square"):
        matrix_to_json(np.ones((2, 3)))


def test_program_round_trip():
    program, _ = __import__("talbotsim").prepare_bloch_state(0.7, -0.9)
    payload = program_to_json(program)
    back = program_from_json(payload)
    assert back == program
    assert back.total_distance == Fraction(1)


def test_program_json_structure():
    payload = program_to_json(hadamard_program())
    assert payload["dim"] == 2
    assert payload["steps"][0] == {"propagate": {"num": 1, "den": 4}}
    assert payload["steps"][1]["phase_mask"][0] == pytest.approx(np.pi / 4)


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 2, "steps": [{"propagate": {"num": 1, "den": 0}}]},
        {"dim": 2, "steps": [{"propagate": {"num": float("inf"), "den": 1}}]},
        {"dim": 2, "steps": 5},
        {"dim": 2, "steps": [5]},
        {"dim": 2, "steps": [{"propagate": 5}]},
        {"steps": []},
        [{"dim": 2, "steps": []}],
        {"dim": 2, "steps": [{"phase_mask": [0.0, float("nan")]}]},
        {"dim": 2, "steps": [{"propagate": {"num": 1.5, "den": 4}}]},
        {"dim": 2, "steps": [{"propagate": {"num": 1, "den": 4.5}}]},
        {"dim": 2, "steps": [{"propagate": {"num": True, "den": 4}}]},
        {"dim": 2.5, "steps": []},
        {"dim": True, "steps": []},
        {"dim": 2, "steps": [{"propagate": {"num": "1", "den": 4}}]},
        {"dim": 2, "steps": [{"propagate": {"num": float("nan"), "den": 4}}]},
    ],
    ids=["zero-den", "inf-num", "steps-int", "step-int", "propagate-int", "no-dim",
         "top-level-list", "nan-phase", "fractional-num", "fractional-den", "bool-num",
         "fractional-dim", "bool-dim", "string-num", "nan-num"],
)
def test_program_from_json_malformed_payload_is_value_error(payload):
    with pytest.raises(ValueError):
        program_from_json(payload)


def test_program_from_json_reads_integral_floats_exactly():
    # 2.0 is an integer value; only a fractional part or a bool is refused
    program = program_from_json({"dim": 2.0, "steps": [{"propagate": {"num": 1.0, "den": 4}}]})
    assert program.dim == 2
    assert program.steps == (Propagate(Fraction(1, 4)),)


def test_program_from_json_rejects_unknown_step():
    with pytest.raises(ValueError, match="step 1"):
        program_from_json(
            {
                "dim": 2,
                "steps": [
                    {"propagate": {"num": 1, "den": 4}},
                    {"teleport": []},
                ],
            }
        )


def test_dumps_is_stable():
    payload = {"b": 1, "a": 0.1}
    text = _streamed(payload)
    assert text == '{\n  "b": 1,\n  "a": 0.1\n}\n'
    assert _streamed(payload) == text


def test_json_payloads_store_numpy_dims_as_ints():
    """A numpy dim used to reach json.dumps, which refused it with a TypeError."""
    program = OpticalProgram(np.int64(2), ())
    assert _streamed(program_to_json(program)) == '{\n  "dim": 2,\n  "steps": []\n}\n'
    op = build_cz(np.int64(3), np.int64(1))
    assert _streamed(postselected_to_json(op)) == _streamed(postselected_to_json(build_cz(3, 1)))


# Floats whose text json.dumps and repr could plausibly render apart.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e16,
               -1e16, 1e-7, 1e-5, 1.0, -3.0, 1e22, 123456789.0, 0.1, 1.7976931348623157e308]
entry_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                         st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def complex_matrices(draw, max_dim=4, floats=entry_floats):
    dim = draw(st.integers(0, max_dim))
    parts = draw(st.lists(floats, min_size=2 * dim * dim, max_size=2 * dim * dim))
    matrix = np.empty((dim, dim), dtype=complex)
    matrix.real.flat = parts[::2]
    matrix.imag.flat = parts[1::2]
    return matrix


@settings(max_examples=150, deadline=None)
@given(
    matrix=complex_matrices(),
    inner=complex_matrices(max_dim=2),
    extras=st.lists(entry_floats, max_size=3),
    flag=st.booleans(),
)
@example(np.zeros((0, 0), dtype=complex), np.zeros((1, 1), dtype=complex), [], True)
@example(np.array([[-0.0 + 5e-324j]]), np.array([[1e16 - 1e-7j]]), [3.0, -0.0], False)
def test_dumps_and_write_json_equal_json_dumps(matrix, inner, extras, flag):
    # a matrix at depth 1, as `gate` writes it, and at depth 2, as `czgate` does
    gate_like = {"kind": "talbot_unitary", "steps": -3, "dim": len(matrix), "entries": matrix}
    cz_like = {
        "dim": len(inner) ** 2,
        "matrix": {"dim": len(inner), "entries": inner},
        "success_probabilities": extras,
        "path_swap_applied": flag,
        "path_swap_levels": [],
        "local_corrections": {"path_a_phases": extras, "global_phase": 0.5},
        "modulus_range": [1, 2.0],
        "note": "\u00e9\n\"",
        "nothing": None,
        "empty": {},
    }
    for payload in (gate_like, cz_like):
        expected = _expected_json(payload)
        assert _streamed(payload) == expected


# A pool so small that rows repeat entries and share them with the row
# before, the case in which the writer reuses a row's cell texts; 0.0 and
# -0.0 have equal hashes but distinct text, and NaN is unequal to itself.
POOL_FLOATS = [0.0, -0.0, 5e-324, float("nan"), float("inf"), float("-inf"), 0.1]


@settings(max_examples=150, deadline=None)
@given(matrix=complex_matrices(max_dim=5, floats=st.sampled_from(POOL_FLOATS)))
@example(np.array([[0.0, 1.0], [-0.0, 1.0]], dtype=complex))
@example(np.array([[1.0, complex(0.0, -0.0)], [complex(0.0, 0.0), 1.0]]))
@example(np.array([[0.1, 0.1, 0.1], [0.1, -0.0, 0.1], [0.1, 0.1, 0.0]], dtype=complex))
def test_repeated_entries_render_as_json_dumps_does(matrix):
    for payload in ({"dim": len(matrix), "entries": matrix},
                    {"matrix": {"dim": len(matrix), "entries": matrix}}):
        expected = _expected_json(payload)
        assert _streamed(payload) == expected


def _distinct_matrix() -> np.ndarray:
    # 256x256 entries, all distinct but for a first column shared by every
    # row: each row adds 255 or 256 cell texts to the writer's, which are
    # cleared every other row
    rng = np.random.default_rng(0)
    distinct = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    distinct[:, 0] = 0.5
    return distinct


@pytest.mark.parametrize(
    "matrix",
    [talbot_unitary(dim, q) for dim in range(1, 9) for q in (1, 2 * dim - 1)]
    + [build_cz(dim, control).matrix for dim in (2, 3, 4) for control in range(dim)]
    + [talbot_unitary(6, 5).T, np.asfortranarray(build_cz(3, 1).matrix), _distinct_matrix()],
)
def test_gate_and_cz_matrices_render_as_json_dumps_does(matrix):
    # circulant gates and CZ matrices: every row after the first is made of
    # entries an earlier row holds; the next two are not C-contiguous, and
    # the last clears the writer's cell texts as it goes
    payload = {"dim": len(matrix), "entries": matrix}
    expected = _expected_json(payload)
    assert _streamed(payload) == expected


def test_write_json_to_path_equals_dumps(tmp_path):
    payload = {"steps": 2, "dim": 3, "entries": talbot_unitary(3, 2)}
    path = tmp_path / "gate.json"
    write_json(path, payload)
    assert path.read_bytes() == _expected_json(payload).encode("ascii")
    write_json(str(path), {"a": [1.5]})
    assert path.read_text() == '{\n  "a": [\n    1.5\n  ]\n}\n'


@pytest.mark.parametrize("dim,control", [(2, 1), (3, 0), (4, 3)])
def test_postselected_stream_form_equals_json_dumps(dim, control):
    op = build_cz(dim, control)
    payload = postselected_to_json(op)
    assert np.array_equal(payload["matrix"]["entries"], op.matrix)
    assert _streamed(payload) == _expected_json(payload)


def test_non_finite_entries_render_as_json_dumps_does():
    nan, inf = float("nan"), float("inf")
    matrix = np.array([[nan + 1j, 0.5 + inf * 1j], [complex(-inf, -0.0), 2.0]])
    payload = {"dim": 2, "entries": matrix, "scalars": [nan, inf, -inf]}
    text = _streamed(payload)
    assert text == _expected_json(payload)
    assert "NaN" in text and "-Infinity" in text and "nan" not in text
    back = _complex_rows(json.loads(text)["entries"])
    assert np.array_equal(back, matrix, equal_nan=True)


def test_json_payload_validation():
    with pytest.raises(ValueError, match="square"):
        _streamed({"entries": np.ones((2, 3))})
    with pytest.raises(TypeError, match="keys must be str"):
        _streamed({1: 2})


def test_write_json_memory_is_one_row(tmp_path):
    # the entries as dicts, or the text as one string, would take tens of MB
    # every row of the distinct matrix adds a row of new cell texts: texts
    # never cleared would pile up to the whole matrix
    large = {
        # czgate -d 24 -k 5: 20.6 MB, 4 distinct entries
        "czgate-24": (postselected_to_json(build_cz(24, 5)), 20_000_000),
        # gate -d 256 -q 511: 5.8 MB, circulant
        "gate-256-511": ({"kind": "talbot_unitary", "steps": 511, "dim": 256,
                          "entries": talbot_unitary(256, 511)}, 5_000_000),
        "distinct-256": ({"dim": 256, "entries": _distinct_matrix()}, 5_000_000),
    }
    path = tmp_path / "out.json"
    for name, (payload, size) in large.items():
        tracemalloc.start()
        try:
            write_json(path, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > size, name
        assert peak < 2_000_000, (name, peak)


class _PieceRecorder:
    """A text stream that keeps only a running hash and the longest piece."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.longest = 0

    def writelines(self, pieces):
        for piece in pieces:
            self.digest.update(piece.encode("ascii"))
            self.longest = max(self.longest, len(piece))


def test_long_matrix_rows_are_written_in_pieces_under_the_mmap_threshold():
    # glibc maps each allocation of 128 KiB or more afresh, so a row written
    # as one string was mapped and unmapped again for every row
    dim = 1500
    rng = np.random.default_rng(3)
    first = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * 1e-5
    payload = {"dim": dim, "entries": np.broadcast_to(first, (dim, dim))}
    stream = _PieceRecorder()
    write_json(stream, payload)
    # every row is `first`, so json.dumps of the payload is that of one row
    # (indented to the rows' depth) in place of each placeholder
    row = json.dumps(_plain(first[None, :])[0], indent=2).replace("\n", "\n    ")
    assert len(row) > 128 * 1024
    parts = json.dumps({"dim": dim, "entries": ["@"] * dim}, indent=2).split('"@"')
    expected = hashlib.sha256()
    for index, part in enumerate(parts):
        expected.update(part.encode("ascii"))
        if index < dim:
            expected.update(row.encode("ascii"))
    expected.update(b"\n")
    assert stream.digest.hexdigest() == expected.hexdigest()
    assert stream.longest < 128 * 1024


def test_postselected_payload_schema():
    op = build_cz(2, 1)
    payload = json.loads(_streamed(postselected_to_json(op)))
    assert payload["dim"] == 2
    assert payload["control_level"] == 1
    assert payload["path_swap_applied"] is True
    assert payload["path_swap_levels"] == [0]
    assert len(payload["success_probabilities"]) == 4
    assert payload["success_probabilities"][0] == pytest.approx(1 / 9)
    corrections = payload["local_corrections"]
    assert set(corrections) == {"path_a_phases", "path_b_phases", "global_phase"}
    back = _complex_rows(payload["matrix"]["entries"])
    assert np.array_equal(back, op.matrix)


@pytest.mark.parametrize("dim,control,swapped", [(1, 0, []), (2, 1, [0]), (4, 2, [0, 1, 3])])
def test_postselected_payload_swap_flag(dim, control, swapped):
    # D = 1 is the one operator with no relabeled level, so its flag is false
    payload = json.loads(_streamed(postselected_to_json(build_cz(dim, control))))
    assert payload["path_swap_applied"] is bool(swapped)
    assert payload["path_swap_levels"] == swapped


def test_write_pgm_bytes(tmp_path):
    intensity = np.array([[0.0, 0.5], [1.0, 0.25], [0.75, 0.0]])
    path = tmp_path / "carpet.pgm"
    write_pgm(path, intensity)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 3\n255\n")
    pixels = data[len(b"P5\n2 3\n255\n") :]
    assert list(pixels) == [0, 128, 255, 64, 191, 0]


def test_write_pgm_validation(tmp_path):
    with pytest.raises(ValueError, match="2-d"):
        write_pgm(tmp_path / "x.pgm", np.zeros(4))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        write_pgm(tmp_path / "x.pgm", np.array([[2.0]]))
    # NaN compares false with either bound, so it must not pass the range check
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        write_pgm(tmp_path / "x.pgm", np.array([[0.5, np.nan]]))
    assert not (tmp_path / "x.pgm").exists()


def test_format_csv_rendering():
    text = _csv_text(
        ["n", "value", "flag"],
        [[np.int64(3), np.float64(0.1), True], [4, 0.25, np.False_]],
        metadata={"slit_width": 0.5, "note": "x"},
    )
    # numpy scalars must render like their Python counterparts
    assert text == (
        "# slit_width: 0.5\n"
        "# note: x\n"
        "n,value,flag\n"
        "3,0.1,true\n"
        "4,0.25,false\n"
    )


def test_format_csv_without_metadata():
    text = _csv_text(["a"], [[1.5]])
    assert text == "a\n1.5\n"
    # repr floats survive eval round trip
    assert float(text.splitlines()[1]) == 1.5


@pytest.mark.parametrize("metadata", [None, {"slit_width": np.float64(0.5), "flag": True}])
def test_write_csv_bytes_equal_format_csv(tmp_path, metadata):
    header = ["n", "value", "flag"]
    rows = [[np.int64(3), np.float64(0.1), True], [4, 1e-300, np.False_], [-1, 2.0, "x"]]
    path = tmp_path / "table.csv"
    write_csv(path, header, iter(rows), metadata)
    assert path.read_bytes() == _csv_text(header, rows, metadata).encode("ascii")


def _per_cell_csv(header, rows, metadata) -> str:
    """The CSV text rendered cell by cell, the writer's reference."""
    lines = [f"# {key}: {_render(value)}\n" for key, value in (metadata or {}).items()]
    lines.append(",".join(header) + "\n")
    lines.extend(",".join(_render(value) for value in row) + "\n" for row in rows)
    return "".join(lines)


CSV_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, float("nan"), float("inf"),
              float("-inf"), 0.1, 1e-7, 2.5]
csv_floats = st.one_of(st.sampled_from(CSV_FLOATS), st.floats())
# each kind renders its own way; a column of Python floats takes the writer's
# distinct-value path, and "float|np.float64" must not
CSV_CELLS = {
    "float": csv_floats,
    "int": st.integers(),
    "bool": st.booleans(),
    "np.float64": csv_floats.map(np.float64),
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "np.bool_": st.booleans().map(np.bool_),
    "str": st.text(st.characters(max_codepoint=127)),
    "float|np.float64": st.one_of(csv_floats, csv_floats.map(np.float64)),
}


def _pooled_rows(pools, n_rows: int, rng) -> list:
    # rows drawn from a few values per column, so a column repeats its cells
    # as a carpet's coordinates do, and 0.0 and -0.0 meet in one block
    return [tuple(rng.choice(pool) for pool in pools) for _ in range(n_rows)]


@st.composite
def csv_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_CELLS)), min_size=1, max_size=4))
    pools = [draw(st.lists(CSV_CELLS[kind], min_size=1, max_size=8)) for kind in kinds]
    n_rows = draw(st.one_of(st.integers(0, 8), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1])))
    rows = _pooled_rows(pools, n_rows, draw(st.randoms(use_true_random=False)))
    metadata = draw(st.one_of(st.none(), st.fixed_dictionaries(
        {"slit_ratio": csv_floats, "flag": st.booleans(), "note": CSV_CELLS["str"]})))
    return [f"c{index}" for index in range(len(kinds))], rows, metadata


# a Python-float column with both zeros, a column mixing float and
# np.float64, and a column of other kinds, across block boundaries
EDGE_POOLS = [[0.0, -0.0, 0.5], [np.float64(-0.0), 0.0, 5e-324], [1, True, "x"]]


def _edge_table(n_rows: int, columns: int = 3, metadata=None):
    header = ["a", "b", "c"][:columns]
    return header, _pooled_rows(EDGE_POOLS[:columns], n_rows, random.Random(n_rows)), metadata


@settings(max_examples=150, deadline=None)
@given(table=csv_tables())
@example(table=_edge_table(0))
@example(table=_edge_table(BLOCK + 1, columns=1))
@example(table=_edge_table(BLOCK - 1, metadata={"f": -0.0}))
@example(table=_edge_table(BLOCK))
@example(table=_edge_table(BLOCK + 1))
def test_csv_writers_equal_per_cell_rendering(tmp_path_factory, table):
    header, rows, metadata = table
    expected = _per_cell_csv(header, rows, metadata)
    assert _csv_text(header, iter(rows), metadata) == expected
    path = tmp_path_factory.getbasetemp() / "table.csv"
    write_csv(path, header, (row for row in rows), metadata)
    assert path.read_bytes() == expected.encode("ascii")


def test_csv_rows_must_match_the_header():
    with pytest.raises(ValueError, match="header's 2 cells"):
        _csv_text(["a", "b"], [[1.0, 2.0]] * BLOCK + [[3.0]])
    with pytest.raises(ValueError, match="header's 1 cells"):
        _csv_text(["a"], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="at least one column"):
        _csv_text([], [[]])


def test_write_csv_memory_is_one_block(tmp_path):
    # the rows the carpet command writes at the benchmark size: 33,024 lines
    image = render_carpet(GratingSpec(slit_width=0.5, mode_truncation=128), (0.0, 1.0), 129, 256)
    x = image.x.tolist()
    rows = (
        (zeta, xj, value)
        for zeta, row in zip(image.zeta.tolist(), image.intensity)
        for xj, value in zip(x, row.tolist())
    )
    path = tmp_path / "carpet.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["zeta", "x", "intensity"], rows, {"slit_ratio": 0.5})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1_250_000
    assert peak < 1_000_000, peak


def test_program_validation_errors_carry_step_index():
    with pytest.raises(ValueError, match="step 1"):
        OpticalProgram(
            dim=2,
            steps=(Propagate(Fraction(1, 4)), PhaseMask((0.0, 1.0, 2.0))),
        )
