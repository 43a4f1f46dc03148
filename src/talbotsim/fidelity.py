"""Revival fidelity of finite gratings under exact propagation.

An infinite periodic comb revives perfectly every carpet period.  With a
Gaussian envelope of width sigma (roughly sigma illuminated slits) the
diffraction orders walk apart and the revival degrades; this module
quantifies that with the full angular-spectrum propagator, no paraxial
shortcut, and optionally appends the ideal periodic control, exact by
the Talbot identity: exp(-2i pi m^2 zeta) = 1 for every mode at integer zeta.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gauss import _integer
from .grating import GratingSpec, grating_coefficients
from .propagation import SampledField, angular_spectrum

__all__ = [
    "FidelityRow",
    "synthesize_gaussian_comb",
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
    n_x: int = DEFAULT_SAMPLES,
    extent_factor: float = DEFAULT_EXTENT_FACTOR,
) -> SampledField:
    """Sample the truncated slit comb times a Gaussian envelope.

    The envelope is exp(-x^2 / (2 sigma^2)); sigma, in periods, also
    counts the illuminated slits.  The grid of n_x samples, a power of
    two, spans extent_factor * sigma; factors below 8 are refused because
    the wrapped tails would alias through the periodic FFT boundary.
    """
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not (0 < sigma * sigma and 2.0 * sigma * sigma < math.inf):
        raise ValueError(
            f"sigma {sigma} is out of range: sigma^2 underflows or 2 sigma^2 overflows"
        )
    if not MIN_EXTENT_FACTOR <= extent_factor < math.inf:
        raise ValueError(
            f"extent_factor must be finite and >= {MIN_EXTENT_FACTOR}, got {extent_factor}"
        )
    n = _integer(n_x, "n_x")
    if n < 2 or n & (n - 1):
        raise ValueError(f"n_x must be a power of two >= 2, got {n_x}")
    extent = extent_factor * sigma
    edge = extent / 2  # the largest |x| of the grid, exactly
    if not edge * edge / (2.0 * sigma**2) < math.inf:
        raise ValueError(
            f"extent_factor {extent_factor} times sigma {sigma} overflows the envelope's "
            "x^2 / (2 sigma^2) at the grid's edge"
        )
    x = (np.arange(n) - n // 2) * (extent / n)
    comb = grating_coefficients(spec).evaluate(x)
    comb *= np.exp(-(x**2) / (2.0 * sigma**2))
    del x
    return SampledField(comb, extent).normalized()


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
    control rows (n_slits = inf) are appended at |<c|c>|^2 of the normalized
    comb's coefficients c, exact by the Talbot identity; they read 1 to
    rounding and anchor the envelope as the only decay mechanism.  n_slits
    and m_list may be any iterables; each is read once.
    """
    n_slits = tuple(float(n) for n in n_slits)
    m_list = tuple(_integer(m, "revival order") for m in m_list)
    spec = GratingSpec(slit_width=slit_width, mode_truncation=mode_truncation)
    rows: list[FidelityRow] = []
    for n in n_slits:
        field = synthesize_gaussian_comb(spec, n, n_x=n_x, extent_factor=extent_factor)
        report, propagate = angular_spectrum(field, wavelength)
        for m in m_list:
            z = 2.0 * m / wavelength  # m carpet periods, in period units
            overlap = np.vdot(field.amplitudes, propagate(z).amplitudes) * field.dx
            rows.append(
                FidelityRow(
                    n_slits=n,
                    talbot_periods=m,
                    fidelity=float(abs(overlap) ** 2),
                    dropped_norm_fraction=report.dropped_norm_fraction,
                    aliasing_risk=report.aliasing_risk,
                )
            )
        # this width's field and buffer go before the next width is synthesized
        del field, propagate
    if include_periodic_control:
        c = grating_coefficients(spec).normalized().coefficients
        control = float(abs(np.vdot(c, c)) ** 2)
        rows += [
            FidelityRow(n_slits=math.inf, talbot_periods=m, fidelity=control,
                        dropped_norm_fraction=0.0, aliasing_risk=False, periodic_control=True)
            for m in m_list
        ]
    return rows
