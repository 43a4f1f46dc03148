"""Deterministic serialization: JSON, PGM, CSV."""

from fractions import Fraction

import numpy as np
import pytest

from talbotsim import (
    OpticalProgram,
    PhaseMask,
    Propagate,
    build_cz,
    dumps,
    format_csv,
    hadamard_program,
    matrix_from_json,
    matrix_to_json,
    postselected_to_json,
    program_from_json,
    program_to_json,
    talbot_unitary,
    write_csv,
    write_pgm,
)


def test_matrix_round_trip_exact():
    U = talbot_unitary(5, 3)
    payload = matrix_to_json(U)
    assert payload["dim"] == 5
    back = matrix_from_json(payload)
    assert np.array_equal(back, U)


def test_matrix_round_trip_through_text():
    import json

    U = talbot_unitary(4, 1)
    text = dumps(matrix_to_json(U))
    back = matrix_from_json(json.loads(text))
    # repr-format floats survive the text round trip bit for bit
    assert np.array_equal(back, U)


def test_matrix_json_validation():
    with pytest.raises(ValueError, match="square"):
        matrix_to_json(np.ones((2, 3)))
    bad = {"dim": 2, "entries": [[{"re": 0.0, "im": 0.0}]]}
    with pytest.raises(ValueError, match="2x2"):
        matrix_from_json(bad)


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
    ],
    ids=["zero-den", "inf-num", "steps-int", "step-int", "propagate-int", "no-dim",
         "top-level-list", "nan-phase"],
)
def test_program_from_json_malformed_payload_is_value_error(payload):
    with pytest.raises(ValueError):
        program_from_json(payload)


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
    text = dumps(payload)
    assert text == '{\n  "b": 1,\n  "a": 0.1\n}\n'
    assert dumps(payload) == text


def test_postselected_payload_schema():
    op = build_cz(2, 1)
    payload = postselected_to_json(op)
    assert payload["dim"] == 2
    assert payload["control_level"] == 1
    assert payload["path_swap_applied"] is True
    assert payload["path_swap_levels"] == [0]
    assert len(payload["success_probabilities"]) == 4
    assert payload["success_probabilities"][0] == pytest.approx(1 / 9)
    corrections = payload["local_corrections"]
    assert set(corrections) == {"path_a_phases", "path_b_phases", "global_phase"}
    back = matrix_from_json(payload["matrix"])
    assert np.array_equal(back, op.matrix)


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


def test_format_csv_rendering():
    text = format_csv(
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
    text = format_csv(["a"], [[1.5]])
    assert text == "a\n1.5\n"
    # repr floats survive eval round trip
    assert float(text.splitlines()[1]) == 1.5


@pytest.mark.parametrize("metadata", [None, {"slit_width": np.float64(0.5), "flag": True}])
def test_write_csv_bytes_equal_format_csv(tmp_path, metadata):
    header = ["n", "value", "flag"]
    rows = [[np.int64(3), np.float64(0.1), True], [4, 1e-300, np.False_], [-1, 2.0, "x"]]
    path = tmp_path / "table.csv"
    write_csv(path, header, iter(rows), metadata)
    assert path.read_bytes() == format_csv(header, rows, metadata).encode("ascii")


def test_program_validation_errors_carry_step_index():
    with pytest.raises(ValueError, match="step 1"):
        OpticalProgram(
            dim=2,
            steps=(Propagate(Fraction(1, 4)), PhaseMask((0.0, 1.0, 2.0))),
        )
