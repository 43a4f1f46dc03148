"""Periodic gratings and their truncated mode expansions.

Lengths are in units of the grating period: x and the slit width a are
dimensionless ratios to the period.
A field is represented by complex amplitudes on the plane-wave modes
exp(2i pi m x), m = -M .. M.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GratingSpec",
    "ModeField",
    "grating_coefficients",
    "basis_wavefunction",
    "mean_orthogonality",
]

# Complex entries per synthesis block, here and for carpet rows: work is
# batched up to this size, so temporaries stay bounded however many modes a
# field carries.
_BLOCK_ENTRIES = 1 << 18


def _require_integer(value, name: str) -> None:
    """Mode counts index the modes -M..M, so only integers make sense."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GratingSpec:
    """Geometry of a slit grating.

    slit_width: open fraction a of each period, 0 < a <= 1.
    mode_truncation: modes -M..M retained in expansions.
    """

    slit_width: float = 0.5
    mode_truncation: int = 64

    def __post_init__(self):
        if not 0 < self.slit_width <= 1:
            raise ValueError(f"slit_width must be in (0, 1], got {self.slit_width}")
        _require_integer(self.mode_truncation, "mode_truncation")
        if self.mode_truncation < 1:
            raise ValueError(
                f"mode_truncation must be >= 1, got {self.mode_truncation}"
            )


@dataclass(frozen=True)
class ModeField:
    """Complex amplitudes on modes exp(2i pi m x), m = -truncation..truncation."""

    coefficients: np.ndarray
    truncation: int

    def __post_init__(self):
        _require_integer(self.truncation, "truncation")
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.shape != (2 * self.truncation + 1,):
            raise ValueError(
                f"expected {2 * self.truncation + 1} coefficients for "
                f"truncation {self.truncation}, got shape {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.truncation, self.truncation + 1)

    def norm(self) -> float:
        """L2 norm over one period (Parseval)."""
        return float(np.linalg.norm(self.coefficients))

    def normalized(self) -> "ModeField":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero field")
        return ModeField(self.coefficients / n, self.truncation)

    def inner(self, other: "ModeField") -> complex:
        """<self|other> over one period; truncations must match."""
        if other.truncation != self.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )
        return complex(np.vdot(self.coefficients, other.coefficients))

    def translated(self, delta: float) -> "ModeField":
        """Field shifted by +delta periods: psi(x) -> psi(x - delta)."""
        phases = np.exp(-2j * np.pi * self.modes * float(delta))
        return ModeField(self.coefficients * phases, self.truncation)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Complex field values at positions x (in periods), as a flat vector.

        Positions are summed in blocks of at most _BLOCK_ENTRIES complex
        entries, so memory is bounded by the output, not by samples x modes.
        """
        x = np.asarray(x, dtype=float).ravel()
        M = self.truncation
        nonnegative = np.arange(M + 1)
        values = np.empty(len(x), dtype=complex)
        block = max(1, _BLOCK_ENTRIES // (2 * M + 1))
        for lo in range(0, len(x), block):
            chunk = x[lo:lo + block]
            phases = np.empty((len(chunk), 2 * M + 1), dtype=complex)
            # exp(2i pi x m) for m >= 0 only: the argument for -m is the
            # exact negation and cexp is conjugate-symmetric, so mode -m is
            # the conjugate of mode m bit for bit.
            np.exp(2j * np.pi * np.outer(chunk, nonnegative), out=phases[:, M:])
            np.conjugate(phases[:, :M:-1], out=phases[:, :M])
            values[lo:lo + block] = phases @ self.coefficients
        return values


def grating_coefficients(spec: GratingSpec) -> ModeField:
    """Mode amplitudes of one transparent slit per period, slit on [0, a).

    A_m = (1/period) * integral over the slit of exp(-2i pi m x) dx
        = a exp(-i pi m a) sin(pi m a) / (pi m a),    A_0 = a.
    """
    a = spec.slit_width
    m = np.arange(-spec.mode_truncation, spec.mode_truncation + 1)
    coeffs = np.empty(m.shape, dtype=complex)
    nonzero = m != 0
    mn = m[nonzero]
    coeffs[nonzero] = (
        a
        * np.exp(-1j * np.pi * mn * a)
        * np.sin(np.pi * mn * a)
        / (np.pi * mn * a)
    )
    coeffs[~nonzero] = a
    return ModeField(coeffs, spec.mode_truncation)


def basis_wavefunction(spec: GratingSpec, D: int, d: int) -> ModeField:
    """Slit state |d> of a D-level encoding: the slit translated to [d/D, d/D + a).

    Translation covariance is exact in mode space: the coefficients of |d>
    are those of |0> times exp(-2i pi m d / D).
    """
    if D < 1:
        raise ValueError(f"dimension must be positive, got {D}")
    if not 0 <= d < D:
        raise ValueError(f"level must satisfy 0 <= d < D, got {d}")
    return grating_coefficients(spec).translated(d / D)


def mean_orthogonality(D: int, a_over_ell: float) -> float:
    """Mean squared overlap |<d|d'>|^2 over distinct slit states, exactly.

    The states are unit-normalized indicator combs of width a at offsets
    d/D on the unit circle, so each pair overlap is the periodic interval
    intersection divided by a.  Returns 0 iff a <= 1/D (disjoint slits)
    and 1 at a = 1 (all slits coincide with the full period).
    """
    if D < 2:
        raise ValueError(f"need at least two levels, got D={D}")
    if not 0 < a_over_ell <= 1:
        raise ValueError(f"slit ratio must be in (0, 1], got {a_over_ell}")
    a = float(a_over_ell)
    total = 0.0
    for k in range(1, D):
        delta = k / D
        # periodic intersection of [0, a) and [delta, delta + a) mod 1
        intersection = max(0.0, a - delta) + max(0.0, a - (1.0 - delta))
        total += (D - k) * (intersection / a) ** 2
    return 2.0 * total / (D * (D - 1))
