"""Replica amplitudes of the fractional Talbot effect.

At a reduced propagation distance zeta = q/r (in units of twice the Talbot
length, gcd(q, r) = 1) a periodic field revives as a superposition of r
copies of itself shifted by multiples of period/r.  The copy weights are
quadratic Gauss sums.  Completing the square evaluates all r of them in
closed form for every q/r, in O(r) time and memory, each phase taken from
an integer exponent mod r (Hannay & Berry, Physica D 1, 267 (1980); Berry &
Klein, J. Mod. Opt. 43, 2139 (1996)).
"""

from math import gcd

import numpy as np

__all__ = ["gauss_coefficients", "jacobi_symbol"]


def gauss_coefficients(q: int, r: int) -> np.ndarray:
    """Weights b_j = (1/r) sum_n exp(-2i pi (q n^2 - j n) / r), j = 0 .. r-1.

    The q in the exponent multiplies only the quadratic term; this is what
    makes the defining property

        sum_j b_j exp(-2i pi m j / r) = exp(-2i pi m^2 q / r)

    hold for every integer mode index m, i.e. the shifted copies resum to
    the quadratic mode phases of paraxial propagation.

    No sum is taken.  With e(x) = exp(2i pi x), inverses mod r and q
    reduced mod r:

    - r odd: b_j = (q|r) conj(eps_r) / sqrt(r) * e(j^2 (4q)^-1 / r), where
      eps_r = 1 for r = 1 mod 4 and i for r = 3 mod 4.
    - r = 0 mod 4: odd j vanish and
      b_2k = (r|q) exp(-+i pi/4) / sqrt(r/2) * e(k^2 q^-1 / r), with the
      upper sign for q = 1 mod 4.
    - r = 2 mod 4: even j vanish; splitting n mod r into n mod 2 and
      n mod s, s = r/2, makes each odd j the odd-modulus weight at s with q
      and j scaled by 2^-1 mod s.

    Requires r >= 1 and gcd(q, r) = 1; reduce the fraction q/r first.
    """
    if r < 1:
        raise ValueError(f"denominator must be positive, got r={r}")
    if gcd(q, r) != 1:
        raise ValueError(
            f"q/r must be in lowest terms, got q={q}, r={r} with gcd {gcd(q, r)}"
        )
    q %= r
    j = np.arange(r)
    if r % 2:
        return _odd_modulus_weights(q, r, j)
    values = np.zeros(r, dtype=complex)
    if r % 4 == 2:
        s = r // 2
        half = pow(2, -1, s)
        values[1::2] = _odd_modulus_weights(q * half % s, s, j[1::2] * half % s)
        return values
    k = j[: r // 2]
    exponent = (k * k % r) * pow(q, -1, r) % r
    unit = np.exp(-1j * np.pi / 4) if q % 4 == 1 else np.exp(1j * np.pi / 4)
    if jacobi_symbol(r, q) < 0:
        unit = -unit
    values[::2] = unit * np.exp(2j * np.pi * exponent / r) / np.sqrt(r // 2)
    return values


def _odd_modulus_weights(q: int, r: int, j: np.ndarray) -> np.ndarray:
    """b_j for odd r and 0 <= q, j < r: the odd-r case of gauss_coefficients."""
    prefactor = (1.0 if r % 4 == 1 else -1j) / np.sqrt(r)
    if jacobi_symbol(q, r) < 0:
        prefactor = -prefactor
    # Integer exponents mod r keep each phase exact to one ulp.  The float
    # operations here and in the r = 0 mod 4 branch run in the order of the
    # earlier q = 1 formulas, so odd and qubit gate steps keep their bits.
    exponent = (j * j % r) * pow(4 * q, -1, r) % r
    return prefactor * np.exp(2j * np.pi * exponent / r)


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n, by quadratic reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
