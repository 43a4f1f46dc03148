"""Qudit gates generated by fractional Talbot propagation.

A grating with D slits per period, illuminated so that each slit carries one
basis amplitude, evolves under free propagation by circulant unitaries: the
shift-copy weights of the fractional Talbot effect become the matrix columns.
Propagating by the canonical step (zeta = 1/(2D) for even D, 1/D for odd D)
and repeating generates a cyclic group of order 2D (even) or D (odd).
Interleaving propagation with programmable phase masks then yields the
Fourier transform, the qubit Hadamard, and general single-qudit circuits.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gauss import _integer, _root_of_unity, gauss_coefficients

__all__ = [
    "pauli_shift",
    "talbot_cycle_length",
    "talbot_step_coefficients",
    "talbot_unitary",
    "circulant",
    "diagonal_gate",
    "qft_matrix",
    "qft_decomposition_even",
    "qft_decomposition_odd",
    "DecompositionReport",
]


def pauli_shift(D: int, power: int = 1) -> np.ndarray:
    """Cyclic shift X^power on D levels: |d> -> |d + power mod D>."""
    D = _integer(D, "dimension", positive=True)
    return np.roll(np.eye(D), _integer(power, "power"), axis=0)


def talbot_cycle_length(D: int) -> int:
    """Order of the canonical Talbot step: 2D for even D, D for odd D."""
    D = _integer(D, "dimension", positive=True)
    return 2 * D if D % 2 == 0 else D


def talbot_step_coefficients(D: int) -> np.ndarray:
    """First column of the canonical single-step Talbot unitary.

    Even D: the surviving even-shift weights at zeta = 1/(2D), which land
    the r = 2D copies on the D slit sites.  Odd D: the weights at
    zeta = 1/D directly.
    """
    r = talbot_cycle_length(D)
    return gauss_coefficients(1, r)[:: r // D]


def _circulant_view(column: np.ndarray) -> np.ndarray:
    # Read-only (n, n) view whose row i, entry j is column[(i - j) mod n]:
    # window s of the reversed column laid twice end to end reads
    # column[(n-1-s-j) mod n] at j, so the windows from s = n-1 down are the
    # rows.  It holds 2n entries, not n^2.
    column = np.asarray(column)
    n = len(column)
    return sliding_window_view(np.concatenate((column[::-1],) * 2), n)[n - 1::-1]


def circulant(column: np.ndarray) -> np.ndarray:
    """Circulant matrix whose j-th column is the cyclic roll of `column` by j.

    The matrix is allocated first, so a size that cannot be held fails at
    once with MemoryError.  It is then filled in one copy from
    _circulant_view, the strided view that reads every row out of 2n
    entries.
    """
    column = np.asarray(column)
    n = len(column)
    matrix = np.empty((n, n), dtype=column.dtype)
    matrix[...] = _circulant_view(column)
    return matrix


def talbot_unitary(D: int, q: int = 1) -> np.ndarray:
    """Unitary for q canonical Talbot steps on D levels.

    q may be any integer; it is reduced mod the cycle length (2D even,
    D odd), so q = 0 gives the identity and negative q the inverse gate.
    The first column is powered by square-and-multiply over the bits of
    q mod r, most significant first: every bit after the first squares the
    column, every set bit takes one step, so O(log q) convolutions build
    U^q.  Each convolution is a row sum of (circulant view * column):
    numpy reduces each contiguous row exactly as it sums one 1-d vector,
    so entry i carries the bits of sum_k a_{i-k} b_k taken alone, with no
    FFT round-off asymmetry between entries.  Up to q mod r = 3 the
    schedule forms exactly the products of q single steps.  The matrix is
    built once, at the end, and is circulant by construction: column j
    equals column 0 rolled by j, bitwise.
    """
    D, q = _integer(D, "dimension"), _integer(q, "steps")
    step = _circulant_view(talbot_step_coefficients(D))
    column = np.zeros(D, dtype=complex)
    column[0] = 1.0
    for index, bit in enumerate(f"{q % talbot_cycle_length(D):b}"):
        if index:
            column = (_circulant_view(column) * column).sum(axis=1)
        if bit == "1":
            column = (step * column).sum(axis=1)
    return circulant(column)


def diagonal_gate(phases: np.ndarray) -> np.ndarray:
    """diag(exp(i phi_d)) for a real phase vector."""
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1:
        raise ValueError(f"phase vector must be 1-d, got shape {phases.shape}")
    return np.diag(np.exp(1j * phases))


def qft_matrix(D: int) -> np.ndarray:
    """Fourier matrix F[d, j] = exp(-2i pi d j / D) / sqrt(D), phase from d j mod D."""
    D = _integer(D, "dimension", positive=True)
    d = np.arange(D)
    return _root_of_unity(d, D, -1)[np.outer(d, d) % D] / np.sqrt(D)


@dataclass(frozen=True)
class DecompositionReport:
    """Residual bookkeeping for a mask/propagate/mask factorization."""

    dim: int
    step_power: int
    residual: float


def qft_decomposition_even(D: int) -> tuple[np.ndarray, np.ndarray, DecompositionReport]:
    """Phase masks (pre, post) such that post * U_step * pre = F for even D.

    Both masks equal Xi_d = pi/8 - pi d^2 / D and the sandwich reproduces
    the Fourier matrix exactly (not only up to global phase), because for
    even D the squared index difference (d - j)^2 is well defined mod 2D.
    """
    if D < 2 or D % 2:
        raise ValueError(f"D must be even and >= 2, got {D}")
    d = np.arange(D)
    xi = np.pi / 8 - np.pi * d**2 / D
    sandwich = diagonal_gate(xi) @ talbot_unitary(D, 1) @ diagonal_gate(xi)
    residual = float(np.abs(sandwich - qft_matrix(D)).max())
    return xi, xi, DecompositionReport(dim=D, step_power=1, residual=residual)


def qft_decomposition_odd(D: int) -> tuple[np.ndarray, np.ndarray, DecompositionReport]:
    """Phase masks (pre, post) such that post * U_step^h * pre = F for odd D.

    Here h = (D + 1)/2, the inverse of 2 mod D.  A single step cannot work
    for odd D: the step's quadratic mode phase exp(-2i pi h m^2 / D) would
    contribute cross terms exp(-2i pi h d j / D), and h = 1 mod D has no
    solution with 2h = 1 mod D except D = 1.  Powering the step to h fixes
    the cross term to the Fourier kernel, and the masks

        pre_d  = -pi (d^2 + D d) / D
        post_d = -pi (d^2 - D d) / D - arg b_0

    (equal mod 2 pi but for the constant; the +-D d split keeps each entry
    in a symmetric range) cancel the remaining index-squared phases.  The
    one constant left is the phase of the powered step's Gauss weight
    b_0 = (2|D) conj(eps_D) / sqrt(D), eps_D = 1 for D = 1 mod 4 and i for
    D = 3 mod 4; folding it into `post` makes the sandwich equal F exactly,
    like the even case, and the residual is taken with no phase fitted.
    """
    D = _integer(D, "dimension")
    if D < 1 or D % 2 == 0:
        raise ValueError(f"D must be odd and >= 1, got {D}")
    h = (D + 1) // 2
    d = np.arange(D)
    pre = -np.pi * (d**2 + D * d) / D
    post = -np.pi * (d**2 - D * d) / D - np.angle(gauss_coefficients(h, D)[0])
    sandwich = diagonal_gate(post) @ talbot_unitary(D, h) @ diagonal_gate(pre)
    residual = float(np.abs(sandwich - qft_matrix(D)).max())
    return pre, post, DecompositionReport(dim=D, step_power=h, residual=residual)
