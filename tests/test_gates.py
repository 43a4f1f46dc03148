"""Gate algebra tests; the independent oracle diagonalizes in Fourier space."""

import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbotsim import (
    circulant,
    gates,
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


def rowwise_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c_i = sum_k a_{i-k} b_k with indices mod D, one Python sum per entry."""
    D = len(b)
    idx = np.arange(D)
    return np.asarray([(a[(i - idx) % D] * b).sum() for i in range(D)])


def rowwise_reference_unitary(D: int, q: int) -> np.ndarray:
    """talbot_unitary's schedule with each convolution taken row by row: over
    the bits of q mod r, most significant first, every bit after the first
    squares the column and every set bit takes one step."""
    a = talbot_step_coefficients(D)
    column = np.zeros(D, dtype=complex)
    column[0] = 1.0
    for index, bit in enumerate(f"{q % talbot_cycle_length(D):b}"):
        if index:
            column = rowwise_convolution(column, column)
        if bit == "1":
            column = rowwise_convolution(a, column)
    return circulant(column)


def stepwise_reference_unitary(D: int, q: int) -> np.ndarray:
    """The plain loop: q mod r single steps, each taken row by row."""
    a = talbot_step_coefficients(D)
    column = np.zeros(D, dtype=complex)
    column[0] = 1.0
    for _ in range(q % talbot_cycle_length(D)):
        column = rowwise_convolution(a, column)
    return circulant(column)


@pytest.mark.parametrize("D", [*range(1, 41), 64])
def test_bitwise_equal_to_rowwise_convolution(D):
    # up to q mod r = 3 the schedule forms exactly the plain loop's products,
    # which golden_gate.json (D = 5, q = 3) was generated with
    cycle = talbot_cycle_length(D)
    for q in (-1, 0, 1, 2, 3, D, 2 * D - 1, cycle + 1):
        U = talbot_unitary(D, q)
        references = [rowwise_reference_unitary(D, q)]
        if q % cycle <= 3:
            references.append(stepwise_reference_unitary(D, q))
        for reference in references:
            assert np.array_equal(U, reference), (D, q)
            assert np.array_equal(np.signbit(U.real), np.signbit(reference.real)), (D, q)
            assert np.array_equal(np.signbit(U.imag), np.signbit(reference.imag)), (D, q)


def test_power_peak_memory_is_little_more_than_its_output():
    # one D x D product at a time and the circulant built once at the end;
    # the step matrix and a product per step took 2.1 x 16 D^2
    D = 256
    tracemalloc.start()
    try:
        talbot_unitary(D, 2 * D - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * D * D


def test_power_takes_logarithmically_many_convolutions(monkeypatch):
    # one view for the step, one per squaring and one for the final
    # circulant: 2 bit_length(q) at most, where the loop took q products
    calls = []
    view = gates._circulant_view
    monkeypatch.setattr(gates, "_circulant_view", lambda column: calls.append(1) or view(column))
    U = talbot_unitary(256, 511)
    assert 0 < len(calls) <= 2 * (511).bit_length()
    assert np.abs(U - oracle_unitary(256, 511)).max() < 1e-13


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


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 512])
def test_circulant_is_bitwise_the_rolled_columns(n):
    rng = np.random.default_rng(n)
    column = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    column[::3] = complex(0.0, -0.0)
    column[1::4] = complex(-0.0, 0.0)
    matrix = circulant(column)
    reference = np.empty((n, n), dtype=complex)
    for j in range(n):
        reference[:, j] = np.roll(column, j)
    assert matrix.shape == (n, n)
    assert matrix.flags.c_contiguous
    # compared as raw bits, so a -0.0 in either part must stay -0.0
    assert np.array_equal(matrix.view(np.uint64), reference.view(np.uint64))


def test_circulant_refuses_an_unholdable_size_before_any_work():
    # the n x n output is allocated first: the 2n doubled column is never
    # built, and the error names the shape that could not be held
    n = 2_000_000
    with pytest.raises(MemoryError, match=re.escape(f"({n}, {n})")):
        circulant(np.zeros(n, dtype=complex))


def test_circulant_peak_memory_is_its_output():
    # one preallocated matrix filled in one copy: stacking a list of rolled
    # columns would hold it twice, and grow until memory ran out for a huge D
    column = np.exp(1j * np.arange(512))
    tracemalloc.start()
    try:
        matrix = circulant(column)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * matrix.nbytes  # 4 MiB
    stacked = np.column_stack([np.roll(column, j) for j in range(len(column))])
    assert np.array_equal(matrix, stacked)
    assert matrix.flags.c_contiguous


def test_diagonal_gate_and_two_pi_shift():
    phases = np.array([0.1, -0.4, 2.2])
    Z = diagonal_gate(phases)
    assert np.abs(Z - np.diag(np.exp(1j * phases))).max() == 0.0
    shifted = diagonal_gate(phases + 2 * np.pi)
    assert np.abs(Z - shifted).max() < 1e-12
    assert np.abs(diagonal_gate(np.zeros(5)) - np.eye(5)).max() == 0.0
    with pytest.raises(ValueError):
        diagonal_gate(np.zeros((2, 2)))


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


def test_qft_matrix_phases_are_exact_at_large_dimension():
    # exp(-2i pi d j / D) from the residue d j mod D; the unreduced product
    # loses digits as d j grows (8.7e-13 at D = 1001)
    D = 1001
    picks = np.r_[0:D:37, D - 2, D - 1]
    F = qft_matrix(D)[np.ix_(picks, picks)]
    with mpmath.workdps(30):
        reference = [
            [complex(mpmath.expjpi(mpmath.mpf(-2 * int(d) * int(j)) / D) / mpmath.sqrt(D))
             for j in picks]
            for d in picks
        ]
    assert np.sqrt(D) * np.abs(F - reference).max() <= 2e-15


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


def test_numpy_integers_are_dimensions_and_steps():
    """A numpy integer used to pass the checks and fail in gauss.py's
    pow(q, -1, r) with a TypeError."""
    assert np.array_equal(talbot_unitary(np.int64(7), np.int64(3)), talbot_unitary(7, 3))
    assert np.array_equal(talbot_unitary(np.int32(4), 5), talbot_unitary(4, 5))
    assert talbot_cycle_length(np.int64(6)) == 12
    _, _, report = qft_decomposition_odd(np.int64(5))
    assert type(report.dim) is int
    assert report.residual < 1e-12
    with pytest.raises(ValueError, match="steps must be an integer"):
        talbot_unitary(3, 1.0)


@pytest.mark.parametrize(
    "dim", [3.0, True, np.float64(3.0), np.bool_(True), "3", 0],
    ids=["float", "bool", "np.float64", "np.bool_", "str", "zero"],
)
def test_non_integer_dimension_is_a_value_error(dim):
    # talbot_unitary takes any integer dimension and leaves the positive
    # rule to talbot_cycle_length, which the zero case reaches
    kind = "a positive integer" if type(dim) is int else "an integer"
    with pytest.raises(ValueError, match=re.escape(f"dimension must be {kind}, got {dim!r}")):
        talbot_unitary(dim, 1)
    positive = f"dimension must be a positive integer, got {dim!r}"
    with pytest.raises(ValueError, match=re.escape(positive)):
        talbot_cycle_length(dim)
