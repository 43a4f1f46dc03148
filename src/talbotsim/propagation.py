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
from .grating import GratingSpec, ModeField, basis_wavefunction
from .programs import OpticalProgram, PhaseMask, Propagate

__all__ = [
    "propagate_paraxial",
    "ReplicaDecomposition",
    "replica_decompose",
    "CrosscheckResult",
    "gate_crosscheck",
    "SampledField",
    "PropagationReport",
    "propagate_angular_spectrum",
]

# Fractions with larger denominators carry no physical meaning and take the
# float path; at or below it the residue product (m^2 mod r) * q stays under
# 10^18, inside int64.
_MAX_EXACT_DENOMINATOR = 10**9


def _paraxial_phases(m: np.ndarray, zeta) -> np.ndarray:
    """exp(-2i pi m^2 zeta) for integer modes m.

    A Fraction zeta with a small enough denominator r is exact: the phase
    comes from the integer residue q m^2 mod r.  Any other zeta is taken as
    float, reduced mod 1, and may be an array: the result then has one row
    of phases per zeta value.
    """
    if isinstance(zeta, Fraction) and zeta.denominator <= _MAX_EXACT_DENOMINATOR:
        q = zeta.numerator % zeta.denominator
        r = zeta.denominator
        exponent = ((m * m) % r) * q % r
        return np.exp(-2j * np.pi * exponent / r)
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
    return ModeField(field.coefficients * phases, field.truncation)


def _slit_basis(spec: GratingSpec, D: int) -> np.ndarray:
    """Mode coefficients of the D slit states, one column per level.

    Raises ValueError when the states are linearly dependent (fewer modes
    than levels, or slits that tile the period), since no projection onto
    them is then unique.  Rank, not the lstsq condition number, decides:
    a wide matrix reports only as many singular values as it has rows.
    """
    basis = np.column_stack(
        [basis_wavefunction(spec, D, d).coefficients for d in range(D)]
    )
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
    segments [(zeta_start, ModeField)], mask residuals, end weights, end residual.
    """
    segments, residuals = [(Fraction(0), start)], []
    masks = [step for step in program.steps if isinstance(step, PhaseMask)]
    for z, mask in zip(program.mask_positions(), masks):
        z0, field = segments[-1]
        arrived = propagate_paraxial(field, z - z0)
        weights, residual, _ = _project(basis, arrived.coefficients)
        residuals.append(residual)
        masked = basis @ (weights * np.exp(1j * np.asarray(mask.phases)))
        segments.append((z, ModeField(masked, start.truncation)))
    z0, field = segments[-1]
    arrived = propagate_paraxial(field, program.total_distance - z0)
    weights, residual, _ = _project(basis, arrived.coefficients)
    return segments, residuals, weights, residual


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
    translate count is the reduced denominator.  The weights reproduce
    gauss_coefficients(q, r) whenever the translate family is linearly
    independent, since the shifted-copy identity holds mode by mode.
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
    translates = np.column_stack(
        [field.translated(j / r).coefficients for j in range(r)]
    )
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
    certified: bool


def gate_crosscheck(
    D: int,
    q: int = 1,
    spec: GratingSpec | None = None,
) -> CrosscheckResult:
    """Rebuild the q-step Talbot unitary from brute wave propagation.

    Each slit state is propagated paraxially by q canonical steps and
    projected back onto the slit basis; the resulting columns are compared
    to talbot_unitary(D, q) entry by entry, global phase included: no phase
    is fitted, so a wrong constant on either side fails the check.  The two
    routes share no code: one is a Gauss-sum circulant, the other a mode
    expansion of the physical field.  Certified means every entry agrees
    within 1e-6 and every projection residual stays within 1e-4.
    """
    if spec is None:
        spec = GratingSpec(slit_width=1.0 / (2 * D), mode_truncation=256)
    r = talbot_cycle_length(D)
    basis = _slit_basis(spec, D)
    program = OpticalProgram(D, (Propagate(Fraction(q % r, r)),))  # Propagate refuses q < 0
    walks = [_walk(basis, program, ModeField(column, spec.mode_truncation)) for column in basis.T]
    reconstructed = np.column_stack([weights for _, _, weights, _ in walks])
    max_residual = max(residual for _, _, _, residual in walks)
    deviation = float(np.abs(reconstructed - talbot_unitary(D, q)).max())
    return CrosscheckResult(
        dim=D,
        steps=q,
        max_deviation=deviation,
        max_projection_residual=max_residual,
        certified=bool(deviation <= 1e-6 and max_residual <= 1e-4),
    )


@dataclass(frozen=True)
class SampledField:
    """Complex field samples on a uniform grid centred on x = 0.

    Positions are x_j = (j - N/2) dx with dx = extent / N; N must be a
    power of two so spectra split cleanly at the Nyquist edge.
    """

    amplitudes: np.ndarray
    extent: float
    wavelength: float

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be 1-d, got shape {amps.shape}")
        n = amps.shape[0]
        if n < 2 or n & (n - 1):
            raise ValueError(f"sample count must be a power of two >= 2, got {n}")
        if not 0 < self.extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if not 0 < self.wavelength < math.inf:
            raise ValueError(f"wavelength must be positive and finite, got {self.wavelength}")
        wavenumber = 2.0 * math.pi / self.wavelength
        if not wavenumber * wavenumber < math.inf:
            raise ValueError(
                f"wavelength {self.wavelength} is too small: (2 pi / wavelength)^2 overflows"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dx(self) -> float:
        return self.extent / len(self.amplitudes)

    @property
    def x(self) -> np.ndarray:
        n = len(self.amplitudes)
        return (np.arange(n) - n // 2) * self.dx

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
        return SampledField(amplitudes, self.extent, self.wavelength)


@dataclass(frozen=True)
class PropagationReport:
    """Diagnostics of one angular-spectrum step."""

    distance: float
    dropped_norm_fraction: float
    evanescent_mode_count: int
    aliasing_risk: bool
    grid_spacing_over_quarter_wavelength: float


def _angular_spectrum(field: SampledField):
    """The z-independent half of propagate_angular_spectrum, done once.

    Runs the forward FFT, the power sums, the evanescent and Nyquist masks
    and k_z, and returns propagate(z) -> (SampledField, PropagationReport),
    which applies only the z-dependent phase and the inverse FFT.

    fftfreq negates exactly, so k_z[n - j] == k_z[j] bit for bit, and |kx|
    grows with j up to the Nyquist bin n/2: the propagating bins are the
    prefix 0..kept-1 and its mirror n-kept+1..n-1 (a kept Nyquist bin is
    its own mirror, written twice with the same product).  Each call takes
    the phase on the prefix only and writes both runs into one buffer
    whose evanescent bins stay zero.
    """
    n = len(field.amplitudes)
    dx = field.dx
    spectrum = np.fft.fft(field.amplitudes)
    kx = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    k = 2.0 * np.pi / field.wavelength

    total_power = float(np.abs(spectrum) ** 2 @ np.ones(n))
    evanescent = np.abs(kx) > k
    dropped = float((np.abs(spectrum[evanescent]) ** 2).sum())
    dropped_fraction = dropped / total_power if total_power > 0 else 0.0

    nyquist = np.pi / dx
    near_edge = np.abs(kx) >= 0.9 * nyquist
    edge_power = float((np.abs(spectrum[near_edge]) ** 2).sum())
    aliasing = bool(total_power > 0 and edge_power / total_power > 1e-12)

    evanescent_count = int(evanescent.sum())
    kept = n // 2 + 1 - int(evanescent[: n // 2 + 1].sum())
    mirror = n - kept + 1
    kz = np.sqrt(np.maximum(k**2 - kx[:kept] ** 2, 0.0))
    spacing_ratio = float(dx / (field.wavelength / 4.0))
    # the full-length setup arrays go before the buffer comes
    del kx, evanescent, near_edge
    propagated = np.zeros(n, dtype=complex)

    def propagate(z: float) -> tuple[SampledField, PropagationReport]:
        phase = np.exp(1j * z * kz)
        # phase first, straight into the buffer: complex products round by
        # operand order, and the pinned fidelity CSVs hold exp * spectrum.
        # Never write `phase * spectrum[idx]`: above 256 KiB NumPy's
        # temporary elision computes it in place in the indexed temporary,
        # which swaps the operands and moves the CSV bytes.
        np.multiply(phase, spectrum[:kept], out=propagated[:kept])
        np.multiply(phase[:0:-1], spectrum[mirror:], out=propagated[mirror:])
        del phase
        out = SampledField(np.fft.ifft(propagated), field.extent, field.wavelength)
        report = PropagationReport(
            distance=float(z),
            dropped_norm_fraction=dropped_fraction,
            evanescent_mode_count=evanescent_count,
            aliasing_risk=aliasing,
            grid_spacing_over_quarter_wavelength=spacing_ratio,
        )
        return out, report

    return propagate


def propagate_angular_spectrum(
    field: SampledField, z: float
) -> tuple[SampledField, PropagationReport]:
    """Exact scalar propagation by distance z (same length units as extent).

    Each spatial frequency kx advances by exp(i z sqrt(k^2 - kx^2));
    evanescent components (|kx| > k) are dropped and the lost norm fraction
    reported.  `aliasing_risk` flags spectral energy within 10% of the
    Nyquist edge, where the periodic grid no longer represents free space
    faithfully.  A grid spacing at or below a quarter wavelength resolves
    every propagating frequency; coarser grids remain exact for fields that
    are band-limited well inside the Nyquist window, so the spacing ratio
    is reported rather than enforced.
    """
    return _angular_spectrum(field)(z)
