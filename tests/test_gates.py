"""Gate algebra tests; the independent oracle diagonalizes in Fourier space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbotsim import (
    circulant,
    clifford_phases,
    diagonal_gate,
    pauli_shift,
    qft_decomposition_even,
    qft_decomposition_odd,
    qft_matrix,
    talbot_cycle_length,
    talbot_step_coefficients,
    talbot_unitary,
)

DIMS = list(range(1, 13))


def oracle_unitary(D: int, q: int) -> np.ndarray:
    """Independent route: eigenvalues exp(-2i pi m^2 q / r_can) on the
    Fourier basis, assembled by dense matrix algebra (no rolls, no
    convolutions)."""
    r = 2 * D if D % 2 == 0 else D
    m = np.arange(D)
    F = np.exp(-2j * np.pi * np.outer(m, m) / D) / np.sqrt(D)
    eigenvalues = np.exp(-2j * np.pi * (m * m * (q % r) % r) / r)
    return F.conj().T @ np.diag(eigenvalues) @ F


@pytest.mark.parametrize("D", DIMS)
@pytest.mark.parametrize("q", [0, 1, 2, 3, 7])
def test_matches_fourier_oracle(D, q):
    assert np.abs(talbot_unitary(D, q) - oracle_unitary(D, q)).max() < 1e-12


@pytest.mark.parametrize("D", [128, 256])
def test_long_power_matches_fourier_oracle(D):
    """2D - 1 steps must not pile up the step's phase error: the even step's
    exponents are reduced mod 2D, so each step carries one-ulp phases."""
    q = 2 * D - 1
    assert np.abs(talbot_unitary(D, q) - oracle_unitary(D, q)).max() < 1e-13


def rowwise_reference_unitary(D: int, q: int) -> np.ndarray:
    """The step applied as a row-by-row cyclic convolution, one Python sum
    per entry: c_i = sum_k a_{i-k} b_k with indices mod D."""
    a = talbot_step_coefficients(D)
    idx = np.arange(D)
    column = np.zeros(D, dtype=complex)
    column[0] = 1.0
    for _ in range(q % talbot_cycle_length(D)):
        column = np.asarray([(a[(i - idx) % D] * column).sum() for i in range(D)])
    return circulant(column)


@pytest.mark.parametrize("D", [*DIMS, 64])
def test_bitwise_equal_to_rowwise_convolution(D):
    cycle = talbot_cycle_length(D)
    for q in (-1, 0, 1, 2, 3, D, 2 * D - 1, cycle + 1):
        U = talbot_unitary(D, q)
        reference = rowwise_reference_unitary(D, q)
        assert np.array_equal(U, reference), (D, q)
        assert np.array_equal(np.signbit(U.real), np.signbit(reference.real)), (D, q)
        assert np.array_equal(np.signbit(U.imag), np.signbit(reference.imag)), (D, q)


@pytest.mark.parametrize("D", DIMS)
def test_unitarity_and_cycle(D):
    U = talbot_unitary(D, 1)
    r = talbot_cycle_length(D)
    assert np.abs(U.conj().T @ U - np.eye(D)).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(U, r) - np.eye(D)).max() < 1e-10
    # no smaller power hits the identity for D > 1
    if D > 1:
        for p in range(1, r):
            assert np.abs(np.linalg.matrix_power(U, p) - np.eye(D)).max() > 1e-3, p


@pytest.mark.parametrize("D", DIMS)
def test_circulant_structure_is_exact(D):
    U = talbot_unitary(D, 3)
    column = U[:, 0]
    for j in range(D):
        assert np.array_equal(U[:, j], np.roll(column, j))


@pytest.mark.parametrize("D", [2, 4, 6, 8, 10, 12])
def test_even_half_carpet_is_half_shift(D):
    U = talbot_unitary(D, 1)
    assert np.abs(
        np.linalg.matrix_power(U, D) - pauli_shift(D, D // 2)
    ).max() < 1e-10


@given(
    D=st.integers(min_value=1, max_value=10),
    q1=st.integers(min_value=-6, max_value=12),
    q2=st.integers(min_value=-6, max_value=12),
)
@settings(max_examples=120, deadline=None)
def test_group_law(D, q1, q2):
    product = talbot_unitary(D, q1) @ talbot_unitary(D, q2)
    assert np.abs(product - talbot_unitary(D, q1 + q2)).max() < 1e-11


def test_negative_steps_invert():
    for D in (2, 3, 5, 8):
        U = talbot_unitary(D, 2) @ talbot_unitary(D, -2)
        assert np.abs(U - np.eye(D)).max() < 1e-12


def test_qubit_landmarks():
    quarter = np.exp(-1j * np.pi / 4) / np.sqrt(2) * np.array([[1, 1j], [1j, 1]])
    assert np.abs(talbot_unitary(2, 1) - quarter).max() < 1e-12
    assert np.abs(talbot_unitary(2, 2) - pauli_shift(2)).max() < 1e-12
    assert np.abs(talbot_unitary(2, 4) - np.eye(2)).max() < 1e-12
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    sandwich = (
        talbot_unitary(2, 1)
        @ diagonal_gate(np.array([np.pi / 4, -np.pi / 4]))
        @ talbot_unitary(2, 1)
    )
    assert np.abs(sandwich - hadamard).max() < 1e-12


def test_pauli_shift_basics():
    X = pauli_shift(2)
    assert np.array_equal(X, np.array([[0.0, 1.0], [1.0, 0.0]]))
    for D in (2, 3, 7):
        assert np.array_equal(
            np.linalg.matrix_power(pauli_shift(D), D), np.eye(D)
        )
        assert np.array_equal(pauli_shift(D, -1), pauli_shift(D).T)
    # shift moves |0> to |1>
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert np.argmax(pauli_shift(4) @ e0) == 1


def test_step_coefficients_are_first_column():
    for D in (2, 3, 4, 5, 9, 12):
        U = talbot_unitary(D, 1)
        assert np.abs(U[:, 0] - talbot_step_coefficients(D)).max() < 1e-14


def test_circulant_helper():
    c = np.array([1.0, 2.0, 3.0])
    M = circulant(c)
    assert np.array_equal(M[:, 1], np.array([3.0, 1.0, 2.0]))
    assert np.array_equal(M[:, 2], np.array([2.0, 3.0, 1.0]))


def test_diagonal_gate_and_two_pi_shift():
    phases = np.array([0.1, -0.4, 2.2])
    Z = diagonal_gate(phases)
    assert np.abs(Z - np.diag(np.exp(1j * phases))).max() == 0.0
    shifted = diagonal_gate(phases + 2 * np.pi)
    assert np.abs(Z - shifted).max() < 1e-12
    assert np.abs(diagonal_gate(np.zeros(5)) - np.eye(5)).max() == 0.0
    with pytest.raises(ValueError):
        diagonal_gate(np.zeros((2, 2)))


def test_clifford_phases_formula_and_normalizer():
    for D in (3, 5, 7, 9):
        omega = clifford_phases(D)
        d = np.arange(D)
        assert np.abs(omega - np.pi * d * (d - 1) / D).max() == 0.0
        V = diagonal_gate(omega)
        X = pauli_shift(D)
        clock = np.diag(np.exp(2j * np.pi * d / D))
        # conjugating the shift appends one clock layer (odd D exactly)
        assert np.abs(V @ X @ V.conj().T - X @ clock).max() < 1e-12


def test_qft_matrix_properties():
    for D in (2, 3, 4, 5, 8):
        F = qft_matrix(D)
        assert np.abs(F.conj().T @ F - np.eye(D)).max() < 1e-13
        uniform = np.full(D, 1 / np.sqrt(D))
        e0 = np.zeros(D)
        e0[0] = 1.0
        assert np.abs(F @ e0 - uniform).max() < 1e-13
        # F^2 is the parity permutation |d> -> |-d mod D>
        parity = np.eye(D)[:, (-np.arange(D)) % D]
        assert np.abs(F @ F - parity).max() < 1e-12


@pytest.mark.parametrize("D", [2, 4, 6, 8, 10, 12])
def test_even_decomposition_reconstructs_fourier(D):
    pre, post, report = qft_decomposition_even(D)
    sandwich = diagonal_gate(post) @ talbot_unitary(D, 1) @ diagonal_gate(pre)
    assert np.abs(sandwich - qft_matrix(D)).max() < 1e-12
    assert report.residual < 1e-12
    assert report.step_power == 1
    d = np.arange(D)
    assert np.abs(pre - (np.pi / 8 - np.pi * d**2 / D)).max() == 0.0


@pytest.mark.parametrize("D", range(1, 200, 2))
def test_odd_decomposition_reconstructs_fourier(D):
    """Every odd D < 200, so all four residues mod 8 appear; no phase is
    fitted, so the sandwich is F itself, global phase included."""
    pre, post, report = qft_decomposition_odd(D)
    assert report.step_power == (D + 1) // 2
    sandwich = diagonal_gate(post) @ talbot_unitary(D, report.step_power) @ diagonal_gate(pre)
    residual = np.abs(sandwich - qft_matrix(D)).max()
    assert residual < 1e-12
    assert report.residual == residual


def test_odd_decomposition_single_step_cannot_work():
    """Negative control: the same masks around a single step miss the target."""
    for D in (3, 5, 7):
        pre, post, _ = qft_decomposition_odd(D)
        single = diagonal_gate(post) @ talbot_unitary(D, 1) @ diagonal_gate(pre)
        target = qft_matrix(D)
        overlap = np.vdot(target, single)
        if abs(overlap) > 1e-12:
            single = single * abs(overlap) / overlap
        assert np.abs(single - target).max() > 0.1


def test_fourier_diagonalizes_every_step_power():
    for D in (2, 3, 4, 5, 6, 9, 10):
        F = qft_matrix(D)
        for q in (1, 2, 5):
            M = F @ talbot_unitary(D, q) @ F.conj().T
            off = M - np.diag(np.diagonal(M))
            assert np.abs(off).max() < 1e-12, (D, q)


def test_dimension_validation():
    with pytest.raises(ValueError):
        talbot_unitary(0)
    with pytest.raises(ValueError):
        pauli_shift(0)
    with pytest.raises(ValueError):
        qft_matrix(0)
    with pytest.raises(ValueError):
        qft_decomposition_even(5)
    with pytest.raises(ValueError):
        qft_decomposition_odd(6)
