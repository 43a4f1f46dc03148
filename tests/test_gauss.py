"""Gauss coefficient tests against literal brute-force sums."""

import cmath
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from talbotsim import gauss_coefficients, talbot_step_coefficients
from talbotsim.gauss import _jacobi_symbol

COPRIME_PAIRS = [
    (q, r) for r in range(1, 17) for q in range(1, r + 1) if gcd(q, r) == 1
]


def brute_weights(q: int, r: int) -> list:
    """Independent oracle: the defining sum, one scalar term at a time."""
    return [
        sum(cmath.exp(-2j * cmath.pi * (q * n * n - j * n) / r) for n in range(r)) / r
        for j in range(r)
    ]


def brute_legendre(a: int, p: int) -> int:
    """Legendre symbol by enumerating squares mod an odd prime p."""
    a %= p
    if a == 0:
        return 0
    return 1 if any((x * x) % p == a for x in range(1, p)) else -1


@pytest.mark.parametrize("q,r", COPRIME_PAIRS)
def test_matches_brute_force(q, r):
    values = np.asarray(gauss_coefficients(q, r))
    expected = np.asarray(brute_weights(q, r))
    assert np.abs(values - expected).max() < 1e-12


@pytest.mark.parametrize("q,r", COPRIME_PAIRS)
def test_mode_phase_identity(q, r):
    """The weights must resum to the quadratic mode phases, every mode."""
    values = np.asarray(gauss_coefficients(q, r))
    j = np.arange(r)
    for m in range(-12, 13):
        lhs = (values * np.exp(-2j * np.pi * m * j / r)).sum()
        rhs = cmath.exp(-2j * cmath.pi * (m * m * q % r) / r)
        assert abs(lhs - rhs) < 1e-12, (q, r, m)


def test_frozen_small_cases():
    # oracle-computed by brute_weights and checked by hand
    assert np.abs(np.asarray(gauss_coefficients(1, 1)) - [1.0]).max() < 1e-15
    assert np.abs(np.asarray(gauss_coefficients(1, 2)) - [0.0, 1.0]).max() < 1e-15
    quarter = np.asarray(gauss_coefficients(1, 4))
    expected = np.array(
        [cmath.exp(-1j * cmath.pi / 4) / cmath.sqrt(2), 0.0,
         cmath.exp(1j * cmath.pi / 4) / cmath.sqrt(2), 0.0]
    )
    assert np.abs(quarter - expected).max() < 1e-14


def test_weights_unimodular_times_sqrt_r():
    # every surviving weight has modulus 1/sqrt(#nonzero)
    for q, r in COPRIME_PAIRS:
        values = np.asarray(gauss_coefficients(q, r))
        moduli = np.abs(values)
        surviving = moduli > 1e-12
        count = int(surviving.sum())
        assert np.abs(moduli[surviving] - 1.0 / np.sqrt(count)).max() < 1e-12


def test_q_reduction_and_negatives():
    base = np.asarray(gauss_coefficients(3, 8))
    assert np.abs(np.asarray(gauss_coefficients(11, 8)) - base).max() < 1e-14
    assert np.abs(np.asarray(gauss_coefficients(-5, 8)) - base).max() < 1e-14


def test_rejects_reducible_and_bad_denominator():
    with pytest.raises(ValueError, match="lowest terms"):
        gauss_coefficients(2, 4)
    with pytest.raises(ValueError, match="positive"):
        gauss_coefficients(1, 0)


def closed_form_even(D: int) -> np.ndarray:
    """The q = 1 weights at r = 2D as the even-D gate step was first written:
    b_2d = exp(-i pi/4) exp(i pi d^2 / D) / sqrt(D), d^2 not reduced."""
    d = np.arange(D)
    return np.exp(-1j * np.pi / 4) * np.exp(1j * np.pi * d**2 / D) / np.sqrt(D)


def closed_form_odd(D: int) -> np.ndarray:
    """The q = 1 weights at odd r = D as the odd-D gate step was first
    written: b_d = c_D exp(i pi (D+1)^2 d^2 / (2D)) / sqrt(D), c_D = 1 or -i.
    The golden gate outputs were generated from these bits."""
    d = np.arange(D)
    prefactor = (1.0 if D % 4 == 1 else -1j) / np.sqrt(D)
    exponent = ((D + 1) ** 2 * d**2) % (4 * D)
    return prefactor * np.exp(1j * np.pi * exponent / (2 * D))


def assert_bitwise_equal(actual, expected):
    assert np.array_equal(actual, expected)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(actual)), np.signbit(part(expected)))


@pytest.mark.parametrize("D", [2, 4, 6, 8, 10, 12])
def test_closed_form_even_matches_direct(D):
    values = gauss_coefficients(1, 2 * D)
    assert np.abs(values[::2] - closed_form_even(D)).max() < 1e-12
    assert np.all(values[1::2] == 0)
    assert np.array_equal(talbot_step_coefficients(D), values[::2])
    # where d^2 < 2D needs no reduction the bits are the old ones; at D = 2
    # that is the whole qubit step `prepare` is built from
    unreduced = np.arange(D) ** 2 < 2 * D
    assert_bitwise_equal(values[::2][unreduced], closed_form_even(D)[unreduced])


@pytest.mark.parametrize("D", [1, 3, 5, 7, 9, 11, 13, 15])
def test_closed_form_odd_matches_direct(D):
    """The odd step is bitwise the first-written closed form, signbits
    included, for every odd dimension below 2000 (this case takes those
    congruent to D mod 16)."""
    for dim in range(D, 2000, 16):
        assert_bitwise_equal(talbot_step_coefficients(dim), closed_form_odd(dim))


def test_matches_vectorised_direct_sum():
    """Every coprime q/r with r < 130 and q in [-r, 2r) against the defining
    sum as one matrix product; the vanishing parity is exactly zero."""
    for r in range(1, 130):
        qs = [q for q in range(-r, 2 * r) if gcd(q, r) == 1]
        n = np.arange(r)
        quadratic = np.exp(-2j * np.pi * (np.outer(qs, n * n) % r) / r)
        fourier = np.exp(2j * np.pi * (np.outer(n, n) % r) / r) / r
        direct = quadratic @ fourier
        values = np.array([gauss_coefficients(q, r) for q in qs])
        assert np.abs(values - direct).max() < 1e-13, r
        if r % 4 == 0:
            assert np.all(values[:, 1::2] == 0), r
        elif r % 4 == 2:
            assert np.all(values[:, ::2] == 0), r


@pytest.mark.parametrize("q,r", [(1, 4096), (-7, 4096), (1, 4098), (-7, 4098)])
def test_memory_is_output_sized(q, r):
    # an r x r exponent matrix alone would be 134 MB at r = 4096
    tracemalloc.start()
    try:
        values = gauss_coefficients(q, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (r,)
    assert peak < 1_000_000


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_jacobi_matches_legendre_on_primes(p):
    for a in range(0, p + 3):
        assert _jacobi_symbol(a, p) == brute_legendre(a, p), (a, p)


def test_jacobi_frozen_values():
    assert _jacobi_symbol(2, 3) == -1
    assert _jacobi_symbol(2, 15) == 1
    assert _jacobi_symbol(7, 1) == 1
    assert _jacobi_symbol(0, 9) == 0


def test_jacobi_rejects_even_or_nonpositive():
    with pytest.raises(ValueError):
        _jacobi_symbol(3, 4)
    with pytest.raises(ValueError):
        _jacobi_symbol(3, -5)


@given(
    a=st.integers(min_value=0, max_value=400),
    m=st.sampled_from([3, 5, 7, 9, 11, 15, 21, 35]),
    n=st.sampled_from([3, 5, 7, 9, 11, 15, 21, 35]),
)
@settings(max_examples=200, deadline=None)
def test_jacobi_multiplicative_in_denominator(a, m, n):
    assert _jacobi_symbol(a, m * n) == _jacobi_symbol(a, m) * _jacobi_symbol(a, n)


@given(
    r=st.integers(min_value=1, max_value=24),
    q=st.integers(min_value=1, max_value=200),
    m=st.integers(min_value=-30, max_value=30),
)
@settings(max_examples=200, deadline=None)
def test_mode_identity_random(r, q, m):
    assume(gcd(q, r) == 1)
    values = np.asarray(gauss_coefficients(q, r))
    j = np.arange(r)
    lhs = (values * np.exp(-2j * np.pi * m * j / r)).sum()
    rhs = cmath.exp(-2j * cmath.pi * ((m * m * q) % r) / r)
    assert abs(lhs - rhs) < 1e-11
