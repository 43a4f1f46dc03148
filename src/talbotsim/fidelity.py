"""Revival fidelity of finite gratings under exact propagation.

An infinite periodic comb revives perfectly every carpet period.  With a
Gaussian envelope of width sigma (roughly sigma illuminated slits) the
diffraction orders walk apart and the revival degrades; this module
quantifies that with the full angular-spectrum propagator, no paraxial
shortcut, and optionally appends the ideal periodic control computed in
the mode picture.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grating import GratingSpec, ModeField, grating_coefficients
from .propagation import (
    PropagationReport,
    SampledField,
    _angular_spectrum,
    propagate_paraxial,
)

__all__ = [
    "FidelityRow",
    "synthesize_gaussian_comb",
    "revival_fidelity",
    "fidelity_sweep",
]

DEFAULT_N_SLITS = (5.0, 20.0, 100.0)
DEFAULT_M_LIST = tuple(range(1, 11))
DEFAULT_SLIT_WIDTH = 0.5
DEFAULT_WAVELENGTH = 0.01
DEFAULT_MODE_TRUNCATION = 4
DEFAULT_SAMPLES = 2**16
DEFAULT_EXTENT_FACTOR = 16.0
MIN_EXTENT_FACTOR = 8.0


@dataclass(frozen=True)
class FidelityRow:
    """Overlap fidelity |<psi(0)|psi(m periods)>|^2 for one configuration."""

    n_slits: float
    talbot_periods: int
    fidelity: float
    dropped_norm_fraction: float
    aliasing_risk: bool
    periodic_control: bool = False


def synthesize_gaussian_comb(
    spec: GratingSpec,
    sigma: float,
    wavelength: float,
    n_x: int = DEFAULT_SAMPLES,
    extent_factor: float = DEFAULT_EXTENT_FACTOR,
) -> SampledField:
    """Sample the truncated slit comb times a Gaussian envelope.

    The envelope is exp(-x^2 / (2 sigma^2)); sigma, in periods, also
    counts the illuminated slits.  The field carries wavelength (the ratio
    lambda/period) to the angular-spectrum propagator; the comb itself does
    not depend on it.  The grid spans extent_factor * sigma;
    factors below 8 are refused because the wrapped tails would alias
    through the periodic FFT boundary.
    """
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not MIN_EXTENT_FACTOR <= extent_factor < math.inf:
        raise ValueError(
            f"extent_factor must be finite and >= {MIN_EXTENT_FACTOR}, got {extent_factor}"
        )
    n = int(n_x)
    if n < 2 or n & (n - 1):
        raise ValueError(f"n_x must be a power of two >= 2, got {n_x}")
    extent = extent_factor * sigma
    x = (np.arange(n) - n // 2) * (extent / n)
    comb = grating_coefficients(spec).evaluate(x)
    envelope = np.exp(-(x**2) / (2.0 * sigma**2))
    field = SampledField(comb * envelope, extent, wavelength)
    return field.normalized()


def _revival_fidelities(field: SampledField, m_list):
    """Yield (m, fidelity, report) for each m, from one spectrum of field.

    Fidelity after m carpet periods (z = 2 m / wavelength in period
    units).  Each propagated field is dropped before its row is yielded,
    so one lives at a time.
    """
    propagate = _angular_spectrum(field)
    for m in m_list:
        propagated, report = propagate(2.0 * m / field.wavelength)
        overlap = np.vdot(field.amplitudes, propagated.amplitudes) * field.dx
        del propagated
        yield m, float(abs(overlap) ** 2), report


def revival_fidelity(field: SampledField, m: int) -> tuple[float, PropagationReport]:
    """Fidelity after m carpet periods (z = 2 m / wavelength in period units)."""
    [(_, fidelity, report)] = _revival_fidelities(field, (m,))
    return fidelity, report


def _periodic_control(comb: ModeField, m: int) -> float:
    """Ideal infinite-comb fidelity at integer periods, exact in mode space.

    comb is the normalized grating comb.
    """
    revived = propagate_paraxial(comb, Fraction(m))
    return float(abs(comb.inner(revived)) ** 2)


def fidelity_sweep(
    n_slits=DEFAULT_N_SLITS,
    m_list=DEFAULT_M_LIST,
    *,
    slit_width: float = DEFAULT_SLIT_WIDTH,
    wavelength: float = DEFAULT_WAVELENGTH,
    mode_truncation: int = DEFAULT_MODE_TRUNCATION,
    n_x: int = DEFAULT_SAMPLES,
    extent_factor: float = DEFAULT_EXTENT_FACTOR,
    include_periodic_control: bool = False,
) -> list[FidelityRow]:
    """Fidelity table over envelope widths and revival orders.

    Rows are ordered by n_slits then by m.  With include_periodic_control,
    control rows (n_slits = inf, exact mode arithmetic) are appended; they
    sit at fidelity 1 for every m and anchor the envelope as the only
    decay mechanism.  n_slits and m_list may be any iterables; each is
    read once.
    """
    n_slits = tuple(float(n) for n in n_slits)
    m_list = tuple(int(m) for m in m_list)
    spec = GratingSpec(slit_width=slit_width, mode_truncation=mode_truncation)
    rows: list[FidelityRow] = []
    for n in n_slits:
        # the generator holds the only reference to this width's field, so
        # the field is freed with it, before the next width is synthesized
        revivals = _revival_fidelities(
            synthesize_gaussian_comb(
                spec, n, wavelength, n_x=n_x, extent_factor=extent_factor
            ),
            m_list,
        )
        for m, fidelity, report in revivals:
            rows.append(
                FidelityRow(
                    n_slits=n,
                    talbot_periods=m,
                    fidelity=fidelity,
                    dropped_norm_fraction=report.dropped_norm_fraction,
                    aliasing_risk=report.aliasing_risk,
                )
            )
    if include_periodic_control:
        comb = grating_coefficients(spec).normalized()
        for m in m_list:
            rows.append(
                FidelityRow(
                    n_slits=float("inf"),
                    talbot_periods=m,
                    fidelity=_periodic_control(comb, m),
                    dropped_norm_fraction=0.0,
                    aliasing_risk=False,
                    periodic_control=True,
                )
            )
    return rows
