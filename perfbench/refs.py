"""Independent numpy references for the figures the benchmark checks.

Nothing here imports talbotsim: each reference is the textbook formula,
written a different way from the package (diagonalize by a DFT instead of
convolving Gauss sums; one batched inverse FFT per carpet instead of a dense
mode matrix per row), so agreement is evidence rather than a tautology.
"""

import numpy as np


def talbot_gate(D: int, q: int) -> np.ndarray:
    """q canonical Talbot steps on D levels, from its DFT eigenvalues.

    The step is zeta = 1/(2D) for even D and 1/D for odd D.  Modes m and
    m + D pick up the same phase exp(-2 pi i m^2 zeta), so U^q is circulant
    with eigenvalue exp(-2 pi i ((k^2 q) mod r) / r) on DFT mode k, where
    r = 2D (even) or D (odd); the exponent is reduced in integers first.
    Column 0 is the inverse DFT of those eigenvalues.
    """
    r = 2 * D if D % 2 == 0 else D
    k = np.arange(D, dtype=np.int64)
    exponent = ((k * k) % r) * (q % r) % r
    column = np.fft.ifft(np.exp(-2j * np.pi * exponent / r))
    rows = np.arange(D)
    return column[(rows[:, None] - rows[None, :]) % D]


def phase_aligned_error(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Largest entry deviation after rotating candidate onto reference's phase."""
    overlap = np.vdot(candidate, reference)
    if abs(overlap) > 0:
        candidate = candidate * (overlap / abs(overlap))
    return float(np.abs(candidate - reference).max())


def _wrap(angles: np.ndarray) -> np.ndarray:
    return np.angle(np.exp(1j * angles))


def interaction_phases(diagonal: np.ndarray, D: int) -> np.ndarray:
    """chi[d, f] = arg g_df - arg g_d0 - arg g_0f + arg g_00, wrapped."""
    phases = np.angle(diagonal).reshape(D, D)
    return _wrap(phases - phases[:, :1] - phases[:1, :] + phases[0, 0])


def cz_deviations(matrix: np.ndarray, D: int, k: int) -> dict:
    """How far a heralded matrix is from (1/3) CZ_k up to local phases.

    modulus: every diagonal entry should have modulus 1/3; off_diagonal:
    every other entry should vanish; success: every basis input should
    herald with probability 1/9 (column norm squared); chi: the
    gauge-invariant interaction phases should be pi at (k, k) only.
    """
    diagonal = np.diagonal(matrix)
    off = matrix - np.diag(diagonal)
    ideal = np.ones(D * D)
    ideal[k * D + k] = -1.0
    chi = interaction_phases(diagonal, D) - interaction_phases(ideal.astype(complex), D)
    return {
        "modulus": float(np.abs(np.abs(diagonal) - 1.0 / 3.0).max()),
        "off_diagonal": float(np.abs(off).max()),
        "success": float(np.abs((np.abs(matrix) ** 2).sum(axis=0) - 1.0 / 9.0).max()),
        "chi": float(np.abs(_wrap(chi)).max()),
    }


def slit_coefficients(slit_ratio: float, truncation: int) -> np.ndarray:
    """A_m of one slit [0, a) per period: a e^{-i pi m a} sinc(m a), m = -M..M."""
    m = np.arange(-truncation, truncation + 1)
    return slit_ratio * np.exp(-1j * np.pi * m * slit_ratio) * np.sinc(m * slit_ratio)


def free_carpet(slit_ratio: float, truncation: int, zeta: np.ndarray,
                x_steps: int) -> np.ndarray:
    """|psi(x_j, zeta)|^2 on x_j = j / x_steps, normalized to peak 1.

    Mode m advances by exp(-2 pi i m^2 zeta); all rows get their phases at
    once, modes fold onto FFT bins m mod x_steps, and one inverse FFT along
    x gives every row.
    """
    m = np.arange(-truncation, truncation + 1)
    phased = slit_coefficients(slit_ratio, truncation) * np.exp(
        -2j * np.pi * np.mod(np.outer(zeta, m * m), 1.0)
    )
    bins = np.zeros((len(zeta), x_steps), dtype=complex)
    np.add.at(bins, (slice(None), m % x_steps), phased)
    intensity = np.abs(np.fft.ifft(bins, axis=1) * x_steps) ** 2
    return intensity / intensity.max()


def envelope_fidelity(slit_ratio: float, truncation: int, wavelength: float,
                      width: float, n_x: int, extent_factor: float,
                      periods) -> np.ndarray:
    """Revival fidelity |<psi(0)|psi(z_m)>|^2 of a Gaussian-enveloped comb.

    The comb (modes -M..M of the slit grating) times exp(-x^2 / 2 width^2)
    is sampled on n_x points over extent_factor * width, and propagated by
    the exact angular spectrum over z_m = 2 m / wavelength with evanescent
    components dropped.
    """
    extent = extent_factor * width
    dx = extent / n_x
    x = (np.arange(n_x) - n_x // 2) * dx
    m = np.arange(-truncation, truncation + 1)
    comb = np.zeros(n_x, dtype=complex)
    for mode, amplitude in zip(m, slit_coefficients(slit_ratio, truncation)):
        comb += amplitude * np.exp(2j * np.pi * mode * x)
    psi = comb * np.exp(-(x ** 2) / (2.0 * width ** 2))
    psi /= np.sqrt(np.vdot(psi, psi).real * dx)
    spectrum = np.fft.fft(psi)
    k = 2.0 * np.pi / wavelength
    kx = 2.0 * np.pi * np.fft.fftfreq(n_x, d=dx)
    propagating = np.abs(kx) <= k
    kz = np.sqrt(np.where(propagating, k * k - kx * kx, 0.0))
    out = []
    for period in periods:
        z = 2.0 * period / wavelength
        moved = np.fft.ifft(np.where(propagating, spectrum * np.exp(1j * z * kz), 0.0))
        out.append(abs(np.vdot(psi, moved) * dx) ** 2)
    return np.array(out)
