"""Talbot carpets: intensity maps over one transverse period.

A carpet samples |psi(x, zeta)|^2 on a rectangular grid, x across one
grating period and zeta along the propagation axis in carpet periods
(twice the Talbot length per unit).  Programs interleave phase masks, and
the field walks through them (propagation._walk): at each mask it is
projected onto the slit basis, phased and resynthesized, the residual
recorded so a mask placed away from a revival plane is visible.

Rows are synthesized on the x-grid j / x_steps, where mode m is
indistinguishable from FFT bin m mod x_steps: the paraxial phases of a
block of rows form one (rows, modes) array, the modes fold onto their bins,
and one batched inverse FFT along x gives every row of the block.  The CLI
hands a carpet's CSV to serialize.write_csv as three float64 columns
(zeta repeated, x tiled, the intensity raveled), which it streams to disk
a block of rows at a time, each distinct value of a column rendered once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gauss import _integer, _read_only
from .grating import (
    _BLOCK_ENTRIES,
    GratingSpec,
    ModeField,
    grating_coefficients,
)
from .programs import OpticalProgram
from .propagation import _paraxial_phases, _slit_basis, _walk

__all__ = [
    "CarpetImage",
    "Revival",
    "render_carpet",
    "render_program_carpet",
    "detect_revivals",
]


@dataclass(frozen=True)
class CarpetImage:
    """Intensity carpet normalized to peak 1, rows ordered by zeta."""

    intensity: np.ndarray
    zeta: np.ndarray
    x: np.ndarray
    mask_positions: tuple = ()
    mask_residuals: tuple = ()

    def __post_init__(self):
        for name in ("intensity", "zeta", "x"):
            object.__setattr__(self, name, _read_only(getattr(self, name), float))
        if self.intensity.shape != (len(self.zeta), len(self.x)):
            raise ValueError(
                f"intensity shape {self.intensity.shape} does not match "
                f"{len(self.zeta)} zeta rows and {len(self.x)} x columns"
            )


def _sample_grid(z_steps: int, x_steps: int, zeta_span) -> tuple[np.ndarray, np.ndarray]:
    z_steps, x_steps = _integer(z_steps, "z_steps"), _integer(x_steps, "x_steps")
    if z_steps < 2 or x_steps < 2:
        raise ValueError(f"need at least a 2x2 grid, got {z_steps}x{x_steps}")
    lo, hi = zeta_span
    try:
        start, stop = float(lo), float(hi)
    except OverflowError:
        start = stop = math.nan
    # linspace of a span whose width overflows gives NaN and inf rows
    if not (-math.inf < start < stop and stop - start < math.inf):
        raise ValueError(f"zeta span must increase with finite ends and width, got [{lo}, {hi}]")
    return np.linspace(start, stop, z_steps), np.arange(x_steps) / x_steps


def _intensity_rows(segments, zeta_grid, x_steps: int) -> np.ndarray:
    """|psi(x_j, zeta)|^2 on x_j = j / x_steps for every zeta, peak-normalized.

    segments: list of (zeta_start, ModeField); each row propagates the last
    segment starting at or before it (rows before every start use the
    first).  On the grid j / x_steps mode m is indistinguishable from bin
    m mod x_steps, so the modes of a block of rows fold onto FFT bins and
    one inverse FFT along x synthesizes the whole block.
    """
    rows = np.empty((len(zeta_grid), x_steps))
    starts = [s for s, _ in segments]
    owner = np.maximum(np.searchsorted(starts, zeta_grid, side="right") - 1, 0)
    for index, (z0, field) in enumerate(segments):
        picked = np.flatnonzero(owner == index)
        m = field.modes
        # column c of `padded` holds a mode congruent to c mod x_steps, so
        # summing its x_steps-wide periods folds every mode onto its bin
        offset = m[0] % x_steps
        width = -(-(offset + len(m)) // x_steps) * x_steps
        block = max(1, _BLOCK_ENTRIES // width)
        for lo in range(0, len(picked), block):
            chunk = picked[lo:lo + block]
            padded = np.zeros((len(chunk), width), dtype=complex)
            padded[:, offset:offset + len(m)] = field.coefficients * _paraxial_phases(
                m, zeta_grid[chunk] - z0
            )
            bins = padded.reshape(len(chunk), -1, x_steps).sum(axis=1)
            rows[chunk] = np.abs(np.fft.ifft(bins, axis=1, norm="forward")) ** 2
    peak = rows.max()
    if peak > 0:
        rows /= peak
    return rows


def render_carpet(
    spec: GratingSpec,
    zeta_span=(0.0, 1.0),
    z_steps: int = 257,
    x_steps: int = 256,
) -> CarpetImage:
    """Free carpet of the bare grating over `zeta_span` carpet periods."""
    zeta_grid, x_grid = _sample_grid(z_steps, x_steps, zeta_span)
    start = grating_coefficients(spec).normalized()
    rows = _intensity_rows([(0.0, start)], zeta_grid, len(x_grid))
    return CarpetImage(intensity=rows, zeta=zeta_grid, x=x_grid)


def render_program_carpet(
    spec: GratingSpec,
    program: OpticalProgram,
    z_steps: int = 257,
    x_steps: int = 256,
    initial_level: int = 0,
) -> CarpetImage:
    """Carpet of a program acting on one slit state of a D-level encoding.

    The transverse period hosts D slits (program.dim); the input occupies
    slit `initial_level`.  Masks act at their cumulative positions.
    """
    basis = _slit_basis(spec, program.dim)
    level = _integer(initial_level, "level")
    if not 0 <= level < program.dim:
        raise ValueError(f"level must satisfy 0 <= d < D, got {level}")
    start = ModeField(basis[:, level]).normalized()
    segments, residuals = _walk(basis, program, start)
    total = program.total_distance
    if total == 0:
        raise ValueError("program has zero total propagation distance")
    zeta_grid, x_grid = _sample_grid(z_steps, x_steps, (0, total))
    float_segments = [(float(s), f) for s, f in segments]
    rows = _intensity_rows(float_segments, zeta_grid, len(x_grid))
    return CarpetImage(
        intensity=rows,
        zeta=zeta_grid,
        x=x_grid,
        mask_positions=tuple(s for s, _ in float_segments[1:]),
        mask_residuals=tuple(residuals),
    )


@dataclass(frozen=True)
class Revival:
    """A carpet row matching row zero up to a cyclic shift."""

    zeta: float
    shift: float
    similarity: float


def detect_revivals(image: CarpetImage, threshold: float = 1.0 - 1e-9) -> list[Revival]:
    """Rows whose intensity equals row zero up to a cyclic shift.

    Similarity is the cosine overlap of intensity rows maximized over
    integer grid shifts (computed by FFT cross-correlation); `shift` is in
    periods, meaning row ~= roll(row0, shift * x_steps).  Row zero itself
    is skipped.
    """
    base = image.intensity[0]
    base_spectrum = np.fft.rfft(base)
    base_norm = float(np.linalg.norm(base))
    out: list[Revival] = []
    n = len(base)
    for i in range(1, len(image.zeta)):
        row = image.intensity[i]
        corr = np.fft.irfft(np.fft.rfft(row) * np.conj(base_spectrum), n=n)
        shift_index = int(np.argmax(corr))
        row_norm = float(np.linalg.norm(row))
        if row_norm == 0 or base_norm == 0:
            continue
        similarity = float(corr[shift_index]) / (row_norm * base_norm)
        if similarity >= threshold:
            out.append(
                Revival(
                    zeta=float(image.zeta[i]),
                    shift=shift_index / n,
                    similarity=similarity,
                )
            )
    return out
