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

__all__ = ["gauss_coefficients"]


def _integer(value, name: str, positive: bool = False) -> int:
    """value as a Python int, so pow(q, -1, r) takes a numpy integer too.

    The package's one integer rule: bool and every type but int and
    np.integer raise ValueError (int() would truncate 1.5 and read True as
    1), and so does a value below 1 when `positive`.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (
        positive and value < 1
    ):
        kind = "a positive integer" if positive else "an integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _read_only(value, dtype) -> np.ndarray:
    """value as a dtype array behind a read-only view, for a frozen field.

    asarray returns the caller's own array when it already has the dtype, so
    only the view is frozen: the caller can still write to its array (and the
    view sees that), and no field is copied.
    """
    view = np.asarray(value, dtype=dtype).view()
    view.setflags(write=False)
    return view


def _root_of_unity(p: np.ndarray, r: int, sign: int) -> np.ndarray:
    """exp(sign 2i pi p / r), sign +1 or -1, for an integer array p.

    Every exact rational phase is taken here from the residue p mod r, so
    its error does not grow with p (a conjugate would flip signed zeros).
    """
    return np.exp((2j if sign > 0 else -2j) * np.pi * (p % r) / r)


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
    q, r = _integer(q, "q"), _integer(r, "r", positive=True)
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
    unit = np.exp(-1j * np.pi / 4) if q % 4 == 1 else np.exp(1j * np.pi / 4)
    if _jacobi_symbol(r, q) < 0:
        unit = -unit
    values[::2] = unit * _root_of_unity((k * k % r) * pow(q, -1, r), r, 1) / np.sqrt(r // 2)
    return values


def _odd_modulus_weights(q: int, r: int, j: np.ndarray) -> np.ndarray:
    """b_j for odd r and 0 <= q, j < r: the odd-r case of gauss_coefficients."""
    prefactor = (1.0 if r % 4 == 1 else -1j) / np.sqrt(r)
    if _jacobi_symbol(q, r) < 0:
        prefactor = -prefactor
    # the pinned gate bytes hold this operand order, here and for r = 0 mod 4
    return prefactor * _root_of_unity((j * j % r) * pow(4 * q, -1, r), r, 1)


def _jacobi_symbol(a: int, n: int) -> int:
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
