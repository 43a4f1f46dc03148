"""Optical program compilation and the Bloch-state preparation law."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbotsim import (
    OpticalProgram,
    PhaseMask,
    Propagate,
    compile_program,
    diagonal_gate,
    hadamard_program,
    hadamard_via_talbot,
    pauli_shift,
    prepare_bloch_state,
    talbot_unitary,
)


def test_steps_apply_in_listed_order():
    mask = PhaseMask((0.3, -0.9))
    program = OpticalProgram(dim=2, steps=(Propagate(Fraction(1, 4)), mask))
    expected = diagonal_gate(np.array(mask.phases)) @ talbot_unitary(2, 1)
    assert np.abs(compile_program(program) - expected).max() < 1e-14

    flipped = OpticalProgram(dim=2, steps=(mask, Propagate(Fraction(1, 4))))
    expected_flipped = talbot_unitary(2, 1) @ diagonal_gate(np.array(mask.phases))
    assert np.abs(compile_program(flipped) - expected_flipped).max() < 1e-14


def test_two_quarter_steps_make_half_shift():
    program = OpticalProgram(
        dim=2, steps=(Propagate(Fraction(1, 4)), Propagate(Fraction(1, 4)))
    )
    assert np.abs(compile_program(program) - pauli_shift(2)).max() < 1e-12


def test_full_period_is_identity():
    for D in (2, 3, 4, 5):
        program = OpticalProgram(dim=D, steps=(Propagate(Fraction(1)),))
        assert np.abs(compile_program(program) - np.eye(D)).max() < 1e-10


def test_incompatible_distance_names_step_index():
    program = OpticalProgram(
        dim=3, steps=(Propagate(Fraction(1, 3)), Propagate(Fraction(1, 4)))
    )
    with pytest.raises(ValueError, match="step 1"):
        compile_program(program)


def test_negative_distance_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        Propagate(Fraction(-1, 4))


def test_mask_length_must_match_dim():
    with pytest.raises(ValueError, match="step 0"):
        OpticalProgram(dim=3, steps=(PhaseMask((0.0, 0.1)),))


def test_mask_positions_and_total_distance():
    program = OpticalProgram(
        dim=2,
        steps=(
            Propagate(Fraction(1, 4)),
            PhaseMask((0.0, 0.0)),
            Propagate(Fraction(1, 2)),
            PhaseMask((0.1, 0.2)),
        ),
    )
    assert program.total_distance == Fraction(3, 4)
    assert program.masks() == [
        (Fraction(1, 4), program.steps[1]),
        (Fraction(3, 4), program.steps[3]),
    ]


def test_hadamard_program_matches_matrix():
    matrix, program = hadamard_via_talbot()
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(matrix - hadamard).max() < 1e-12
    assert np.abs(compile_program(program) - hadamard).max() < 1e-12
    assert program.total_distance == Fraction(1, 2)
    assert program.masks() == [(Fraction(1, 4), program.steps[1])]
    assert np.abs(compile_program(hadamard_program()) - hadamard).max() < 1e-12


def test_prepare_bloch_state_pinned_populations():
    # theta = pi/2.7: populations cos^2, sin^2 (computed from the closed law)
    theta = np.pi / 2.7
    _, state = prepare_bloch_state(theta, np.pi / 2)
    assert abs(abs(state[0]) ** 2 - np.cos(theta) ** 2) < 1e-12
    assert abs(abs(state[1]) ** 2 - np.sin(theta) ** 2) < 1e-12


def test_prepare_bloch_state_total_distance_is_one_period():
    program, _ = prepare_bloch_state(0.4, 1.0)
    assert program.total_distance == Fraction(1)


@given(
    theta=st.floats(min_value=0.05, max_value=np.pi / 2 - 0.05),
    phi=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=150, deadline=None)
def test_prepare_bloch_state_amplitude_and_phase_law(theta, phi):
    _, state = prepare_bloch_state(theta, phi)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    assert abs(abs(state[0]) - abs(np.cos(theta))) < 1e-11
    assert abs(abs(state[1]) - abs(np.sin(theta))) < 1e-11
    relative = np.angle(state[1] * np.conj(state[0]))
    wrapped = np.angle(np.exp(1j * (relative - phi)))
    assert abs(wrapped) < 1e-10


@pytest.mark.parametrize("dim", [2.5, 2.0, True, "2"])
def test_program_dim_must_be_an_integer(dim):
    """A float or bool dim used to pass here and fail later in compile_program
    with a TypeError."""
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        OpticalProgram(dim=dim, steps=(Propagate(Fraction(1, 4)),))


def test_program_dim_is_stored_as_an_int():
    """A numpy dim compiled by way of gauss.py's pow(q, -1, r), which
    refused it with a TypeError."""
    program = OpticalProgram(np.int64(2), (Propagate(Fraction(1, 4)),))
    assert type(program.dim) is int
    assert np.array_equal(compile_program(program), talbot_unitary(2, 1))


def test_prepare_bloch_state_poles():
    _, north = prepare_bloch_state(0.0, 0.7)
    assert abs(abs(north[0]) - 1.0) < 1e-12
    _, south = prepare_bloch_state(np.pi / 2, 0.7)
    assert abs(abs(south[1]) - 1.0) < 1e-12


def test_program_step_validation():
    with pytest.raises(TypeError):
        OpticalProgram(dim=2, steps=("propagate",))
    with pytest.raises(ValueError):
        OpticalProgram(dim=0, steps=())
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            PhaseMask((0.0, bad))
