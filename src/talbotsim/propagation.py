"""Free-space propagation: paraxial mode phases and the full angular spectrum.

Paraxial propagation of a periodic field multiplies mode m by
exp(-2i pi m^2 zeta), where zeta is the distance in units of twice the
Talbot length.  The angular-spectrum propagator makes no paraxial
approximation and serves as the brute-force reference for everything the
mode picture predicts; the two routes are kept independent on purpose.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gates import talbot_cycle_length, talbot_unitary
from .gauss import _integer, _read_only, _root_of_unity
from .grating import GratingSpec, ModeField, _slit_states
from .programs import OpticalProgram

__all__ = [
    "propagate_paraxial",
    "ReplicaDecomposition",
    "replica_decompose",
    "CrosscheckResult",
    "gate_crosscheck",
    "SampledField",
    "PropagationReport",
    "angular_spectrum",
]

# Switches between the two integer paths: at or below it the residue
# product (m^2 mod r) * q stays under 10^18, inside int64; above it the
# residues are taken in Python ints.
_MAX_EXACT_DENOMINATOR = 10**9


def _paraxial_phases(m: np.ndarray, zeta) -> np.ndarray:
    """exp(-2i pi m^2 zeta) for integer modes m.

    A Fraction zeta is exact: the phase comes from the integer residue
    q m^2 mod r, and above the int64 bound each phase takes the correctly
    rounded p / r of two Python ints.  Any other zeta is taken as float,
    reduced mod 1, and may be an array: the result then has one row of
    phases per zeta value.
    """
    if isinstance(zeta, Fraction):
        r = zeta.denominator
        if r <= _MAX_EXACT_DENOMINATOR:
            return _root_of_unity((m * m) % r * (zeta.numerator % r), r, -1)
        residues = m.astype(object) ** 2 * (zeta.numerator % r) % r
        return np.exp(-2j * np.pi * (residues / r).astype(float))
    frac = np.mod(np.asarray(zeta, dtype=float), 1.0)
    return np.exp(-2j * np.pi * np.mod(np.multiply.outer(frac, m.astype(float) ** 2), 1.0))


def propagate_paraxial(field: ModeField, zeta) -> ModeField:
    """Propagate by zeta carpet periods (twice the Talbot length per unit).

    Pass a Fraction for exact arithmetic: phases are computed from integer
    residues q m^2 mod r, so revivals at integer zeta are bitwise exact.
    Floats are reduced mod 1 before use, which keeps the carpet periodicity
    exact there too.
    """
    phases = _paraxial_phases(field.modes, zeta)
    return ModeField(field.coefficients * phases)


def _slit_basis(spec: GratingSpec, D: int) -> np.ndarray:
    """Mode coefficients of the D slit states, one column per level.

    Raises ValueError when the states are linearly dependent (fewer modes
    than levels, or slits that tile the period), since no projection onto
    them is then unique.  Rank, not the lstsq condition number, decides:
    a wide matrix reports only as many singular values as it has rows.
    """
    basis = np.ascontiguousarray(_slit_states(spec, D, np.arange(D)).T)
    rank = np.linalg.matrix_rank(basis)
    if rank < D:
        raise ValueError(
            f"the {D} slit states of width {spec.slit_width!r} on "
            f"{len(basis)} modes are linearly dependent (rank {rank})"
        )
    return basis


def _project(columns: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Least-squares weights of `target` on `columns`, with fit diagnostics.

    Returns (weights, residual, condition): the residual is the fit error
    relative to |target| (0 for a zero target) and the condition number is
    the ratio of extreme singular values of `columns` (inf when rank
    deficient).
    """
    weights, _, _, singular_values = np.linalg.lstsq(columns, target, rcond=None)
    scale = float(np.linalg.norm(target))
    residual = float(np.linalg.norm(columns @ weights - target)) / scale if scale else 0.0
    condition = (
        float(singular_values[0] / singular_values[-1])
        if singular_values[-1] > 0
        else float("inf")
    )
    return weights, residual, condition


def _walk(basis: np.ndarray, program: OpticalProgram, start: ModeField):
    """Walk `start` through `program`, one slit state per column of `basis`.

    Each mask projects onto the slit states, phases and resynthesizes.  Returns
    segments [(zeta_start, ModeField)] and the mask residuals.
    """
    segments, residuals = [(Fraction(0), start)], []
    for z, mask in program.masks():
        z0, field = segments[-1]
        arrived = propagate_paraxial(field, z - z0)
        weights, residual, _ = _project(basis, arrived.coefficients)
        residuals.append(residual)
        masked = basis @ (weights * np.exp(1j * np.asarray(mask.phases)))
        segments.append((z, ModeField(masked)))
    return segments, residuals


@dataclass(frozen=True)
class ReplicaDecomposition:
    """Least-squares weights of period/r translates in a propagated field.

    `orthogonal` is the geometric statement slit_width <= 1/r (translated
    slits disjoint), or None when the slit width was not supplied; the
    weights themselves are exact either way as long as the translates are
    linearly independent, which `condition_number` quantifies.
    """

    zeta: Fraction
    coefficients: np.ndarray
    residual: float
    condition_number: float
    orthogonal: bool | None


def replica_decompose(
    field: ModeField, zeta, slit_width: float | None = None
) -> ReplicaDecomposition:
    """Decompose the field propagated by zeta = q/r onto its r translates.

    zeta must be exact (Fraction or int); floats are refused because the
    translate count is the reduced denominator.  Translate j has mode m
    times exp(-2i pi m j / r), from the residue (m mod r) j mod r.  The
    weights reproduce gauss_coefficients(q, r) whenever the translates are
    linearly independent, since the shifted-copy identity holds mode by mode.
    """
    if isinstance(zeta, float):
        raise TypeError("zeta must be an exact rational (Fraction or int)")
    zeta = Fraction(zeta)
    r = zeta.denominator
    if 2 * field.truncation + 1 < r:
        raise ValueError(
            f"truncation {field.truncation} cannot resolve {r} translates; "
            f"need mode_truncation >= {(r - 1) // 2 + 1}"
        )
    roots = _root_of_unity(np.multiply.outer(np.arange(r), np.arange(r)), r, -1)
    translates = field.coefficients[:, None] * roots[field.modes % r]
    propagated = propagate_paraxial(field, zeta).coefficients
    weights, residual, condition = _project(translates, propagated)
    orthogonal = None if slit_width is None else bool(slit_width * r <= 1.0)
    return ReplicaDecomposition(
        zeta=zeta,
        coefficients=weights,
        residual=residual,
        condition_number=condition,
        orthogonal=orthogonal,
    )


@dataclass(frozen=True)
class CrosscheckResult:
    """Wave-optics reconstruction of a Talbot gate vs its matrix definition."""

    dim: int
    steps: int
    max_deviation: float
    max_projection_residual: float

    @property
    def certified(self) -> bool:
        """Every entry within 1e-6 and every projection residual within 1e-4."""
        return bool(self.max_deviation <= 1e-6 and self.max_projection_residual <= 1e-4)


def gate_crosscheck(
    D: int,
    q: int = 1,
    spec: GratingSpec | None = None,
) -> CrosscheckResult:
    """Rebuild the q-step Talbot unitary from brute wave propagation.

    Each slit state is propagated paraxially by q canonical steps (one phase
    vector serves every column) and projected back onto the slit basis; the
    resulting columns are compared to talbot_unitary(D, q) entry by entry,
    global phase included: no phase is fitted, so a wrong constant on either
    side fails the check.  The two routes share no code: one is a Gauss-sum
    circulant, the other a mode expansion of the physical field.  Certified
    means every entry agrees within 1e-6 and every projection residual stays
    within 1e-4.
    """
    D, q = _integer(D, "dimension"), _integer(q, "steps")
    if spec is None:
        spec = GratingSpec(slit_width=1.0 / (2 * D), mode_truncation=256)
    basis = _slit_basis(spec, D)
    M = spec.mode_truncation
    phases = _paraxial_phases(np.arange(-M, M + 1), Fraction(q, talbot_cycle_length(D)))
    projections = [_project(basis, column * phases) for column in basis.T]
    reconstructed = np.column_stack([weights for weights, _, _ in projections])
    max_residual = max(residual for _, residual, _ in projections)
    deviation = float(np.abs(reconstructed - talbot_unitary(D, q)).max())
    return CrosscheckResult(D, q, deviation, max_residual)


@dataclass(frozen=True)
class SampledField:
    """Complex field samples on a uniform grid centred on x = 0.

    Positions are x_j = (j - N/2) dx with dx = extent / N; N must be a
    power of two so spectra split cleanly at the Nyquist edge.
    """

    amplitudes: np.ndarray
    extent: float

    def __post_init__(self):
        amps = _read_only(self.amplitudes, complex)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be 1-d, got shape {amps.shape}")
        n = amps.shape[0]
        if n < 2 or n & (n - 1):
            raise ValueError(f"sample count must be a power of two >= 2, got {n}")
        if not 0 < self.extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dx(self) -> float:
        return self.extent / len(self.amplitudes)

    def norm(self) -> float:
        norm = float(np.linalg.norm(self.amplitudes) * math.sqrt(self.dx))
        if norm == 0 and self.amplitudes.any():
            # the squares underflowed: take the norm of the samples scaled
            # to a largest modulus of 1 and scale it back
            moduli = np.abs(self.amplitudes)
            scale = float(moduli.max())
            norm = float(np.linalg.norm(moduli / scale) * math.sqrt(self.dx)) * scale
        return norm

    def normalized(self) -> "SampledField":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero field")
        amplitudes = self.amplitudes
        if 1.0 / n == math.inf:
            # complex division multiplies by 1 / n, which overflows for a
            # subnormal n.  Scaling both sides by a power of two is exact, and
            # 2^64 lifts even 2^-1074 to where 1 / n is finite.
            amplitudes, n = amplitudes * 2.0**64, n * 2.0**64
        with np.errstate(invalid="ignore", over="ignore"):
            amplitudes = amplitudes / n
        # a NaN or infinite norm, or a quotient past the float range, leaves
        # NaN, inf or all-zero samples instead of raising
        if not (n < math.inf and np.isfinite(amplitudes).all()):
            raise ValueError(f"cannot normalize a field of norm {n}")
        return SampledField(amplitudes, self.extent)


@dataclass(frozen=True)
class PropagationReport:
    """Diagnostics of the angular-spectrum steps of one field, at any distance."""

    dropped_norm_fraction: float
    evanescent_mode_count: int
    aliasing_risk: bool
    grid_spacing_over_quarter_wavelength: float


def angular_spectrum(field: SampledField, wavelength: float):
    """Exact scalar propagation of `field` at `wavelength`: (report, propagate).

    propagate(z) returns the field propagated by distance z; wavelength, z
    and the field's extent share one length unit.  Each spatial frequency kx
    advances by exp(i z sqrt(k^2 - kx^2)); evanescent components (|kx| > k)
    are dropped and the lost norm fraction reported.  `aliasing_risk` flags
    spectral energy within 10% of the Nyquist edge, where the periodic grid
    no longer represents free space faithfully.  A grid spacing at or below a
    quarter wavelength resolves every propagating frequency; coarser grids
    remain exact for fields that are band-limited well inside the Nyquist
    window, so the spacing ratio is reported rather than enforced.  None of
    the report depends on z.

    The z-independent half runs here, once: the forward FFT, the power
    sums, the evanescent and Nyquist masks and k_z.  propagate(z) applies
    only the z-dependent phase and the inverse FFT.

    fftfreq negates exactly, so k_z[n - j] == k_z[j] bit for bit, and |kx|
    grows with j up to the Nyquist bin n/2: the propagating bins are the
    prefix 0..kept-1 and its mirror n-kept+1..n-1 (a kept Nyquist bin is
    its own mirror, written twice with the same product).  Each call takes
    the phase on the prefix only, writes both runs and zeroes the
    evanescent gap of one buffer, and inverts it there in place.  The
    returned field is a read-only view of that buffer, valid until the
    next call: copy its amplitudes to keep them.
    """
    if not 0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength}")
    k = 2.0 * np.pi / wavelength
    if not k * k < math.inf:
        raise ValueError(f"wavelength {wavelength} is too small: (2 pi / wavelength)^2 overflows")
    n = len(field.amplitudes)
    dx = field.dx
    spectrum = np.fft.fft(field.amplitudes)
    kx = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)

    total_power = float(np.abs(spectrum) ** 2 @ np.ones(n))
    evanescent = np.abs(kx) > k
    dropped = float((np.abs(spectrum[evanescent]) ** 2).sum())

    nyquist = np.pi / dx
    near_edge = np.abs(kx) >= 0.9 * nyquist
    edge_power = float((np.abs(spectrum[near_edge]) ** 2).sum())

    report = PropagationReport(
        dropped_norm_fraction=dropped / total_power if total_power > 0 else 0.0,
        evanescent_mode_count=int(evanescent.sum()),
        aliasing_risk=bool(total_power > 0 and edge_power / total_power > 1e-12),
        grid_spacing_over_quarter_wavelength=float(dx / (wavelength / 4.0)),
    )
    kept = n // 2 + 1 - int(evanescent[: n // 2 + 1].sum())
    mirror = n - kept + 1
    kz = np.sqrt(np.maximum(k**2 - kx[:kept] ** 2, 0.0))
    # the full-length setup arrays go before the buffer comes
    del kx, evanescent, near_edge
    propagated = np.empty(n, dtype=complex)

    def propagate(z: float) -> SampledField:
        phase = 1j * z * kz
        np.exp(phase, out=phase)
        # phase first, straight into the buffer: complex products round by
        # operand order, and the pinned fidelity CSVs hold exp * spectrum.
        # Never write `phase * spectrum[idx]`: above 256 KiB NumPy's
        # temporary elision computes it in place in the indexed temporary,
        # which swaps the operands and moves the CSV bytes.
        np.multiply(phase, spectrum[:kept], out=propagated[:kept])
        np.multiply(phase[:0:-1], spectrum[mirror:], out=propagated[mirror:])
        del phase
        # the previous call's inverse FFT filled the gap
        propagated[kept:mirror] = 0
        np.fft.ifft(propagated, out=propagated)
        return SampledField(propagated, field.extent)

    return report, propagate
