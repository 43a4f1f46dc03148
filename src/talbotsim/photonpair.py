"""Two-photon interference on slit-resolved beam splitters.

Two photons occupy paths a and b, each carrying a D-level slit encoding.
A slitwise beam splitter mixes the same level of both paths with its own
transmission/reflection pair, which makes Hong-Ou-Mandel interference
level-selective.  Post-selecting on one photon per path after a
transmission-dominated splitter and balancing filters yields a probabilistic
controlled-Z gate on the pair.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gauss import _integer

__all__ = [
    "SDBSSpec",
    "control_splitter",
    "filter_splitter",
    "sdbs_mode_map",
    "PostSelectedOperator",
    "build_cz",
    "ideal_cz_matrix",
    "interaction_phase_signature",
    "schmidt_coefficients",
]


def _wrap(angles) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(angles)))


@dataclass(frozen=True)
class SDBSSpec:
    """Slitwise dual beam splitter: per-level transmission t_d, reflection r_d.

    Level d of path a mixes only with level d of path b through the block
    [[t_d, i r_d], [i r_d, t_d]]; unitarity requires |t_d|^2 + |r_d|^2 = 1
    with t_d conj(r_d) real.
    """

    dim: int
    transmission: np.ndarray
    reflection: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dimension", positive=True))
        t = np.asarray(self.transmission, dtype=complex)
        r = np.asarray(self.reflection, dtype=complex)
        if t.shape != (self.dim,) or r.shape != (self.dim,):
            raise ValueError(
                f"transmission/reflection must have shape ({self.dim},), "
                f"got {t.shape} and {r.shape}"
            )
        if not (np.isfinite(t).all() and np.isfinite(r).all()):
            raise ValueError("transmission/reflection amplitudes must be finite")
        power = np.abs(t) ** 2 + np.abs(r) ** 2
        if np.abs(power - 1.0).max() > 1e-12:
            raise ValueError("each level needs |t|^2 + |r|^2 = 1")
        if np.abs((t * r.conj()).imag).max() > 1e-12:
            raise ValueError("t_d conj(r_d) must be real for a unitary block")
        t.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "transmission", t)
        object.__setattr__(self, "reflection", r)


def _control(D, k) -> tuple[int, int]:
    """(D, k) as ints by the package's integer rule, with 0 <= k < D."""
    D, k = _integer(D, "dimension", positive=True), _integer(k, "control level")
    if not 0 <= k < D:
        raise ValueError(f"control level must satisfy 0 <= k < {D}, got {k}")
    return D, k


def control_splitter(D: int, k: int) -> SDBSSpec:
    """Level k transmits with amplitude 1/sqrt(3); every other level reflects."""
    D, k = _control(D, k)
    t = np.zeros(D)
    r = np.ones(D)
    t[k] = 1.0 / math.sqrt(3.0)
    r[k] = math.sqrt(2.0 / 3.0)
    return SDBSSpec(dim=D, transmission=t, reflection=r)


def filter_splitter(D: int, k: int) -> SDBSSpec:
    """Balancing filter: level k passes, others attenuate to 1/sqrt(3)."""
    D, k = _control(D, k)
    t = np.full(D, 1.0 / math.sqrt(3.0))
    r = np.full(D, math.sqrt(2.0 / 3.0))
    t[k] = 1.0
    r[k] = 0.0
    return SDBSSpec(dim=D, transmission=t, reflection=r)


def sdbs_mode_map(spec: SDBSSpec) -> np.ndarray:
    """Single-photon unitary of the splitter on extended modes (2D x 2D)."""
    t = np.diag(spec.transmission)
    ir = np.diag(1j * spec.reflection)
    return np.block([[t, ir], [ir, t]])


@dataclass(frozen=True)
class PostSelectedOperator:
    """Coincidence-heralded two-qudit operation (not trace preserving).

    `matrix` maps input coincidence amplitudes (flattened D x D, index
    d * D + f) to unnormalized output ones; `success_probabilities` lists
    |column|^2 per basis input.  `local_corrections` are single-path phase
    masks (alpha on a, beta on b, plus a global angle) that rotate the
    matrix onto its ideal target; they commute with any later slit-basis
    processing and are declared rather than physically applied.
    """

    dim: int
    control_level: int
    matrix: np.ndarray
    success_probabilities: np.ndarray
    path_swap_levels: tuple
    correction_alpha: np.ndarray
    correction_beta: np.ndarray
    correction_global: float

    @property
    def path_swap_applied(self) -> bool:
        return len(self.path_swap_levels) > 0

    def corrected_matrix(self) -> np.ndarray:
        """Matrix after the declared local phase corrections."""
        phase = np.exp(1j * self.correction_global) * np.outer(
            np.exp(1j * self.correction_alpha), np.exp(1j * self.correction_beta)
        )
        return phase.reshape(-1)[:, None] * self.matrix

    def apply(self, state_a: np.ndarray, state_b: np.ndarray) -> tuple[np.ndarray, float]:
        """Output coincidence amplitudes and success probability for a product input."""
        u = np.asarray(state_a, dtype=complex)
        v = np.asarray(state_b, dtype=complex)
        out = (self.matrix @ np.kron(u, v)).reshape(self.dim, self.dim)
        return out, float(np.linalg.norm(out) ** 2)


def ideal_cz_matrix(D: int, k: int) -> np.ndarray:
    """Controlled-Z on levels: phase -1 exactly when both photons sit at k."""
    D, k = _control(D, k)
    diag = np.ones(D * D)
    diag[k * D + k] = -1.0
    return np.diag(diag)


def build_cz(D: int, k: int) -> PostSelectedOperator:
    """Post-selected controlled-Z at control level k.

    Construction: the control splitter (t_k = 1/sqrt(3), full reflection
    elsewhere), a declared path relabeling on the fully reflected levels
    (each such block is i times a path swap, so relabeling the outputs
    absorbs it into i times the identity), then per-path balancing filters
    whose surviving-amplitude action scales coincidences by t_d on each
    side.  Every basis input succeeds with probability 1/9 and the
    heralded matrix is diagonal: input (a, d)(b, f) picks up i for each
    photon on a reflected level and, at d = f = k, the Hong-Ou-Mandel
    factor t_k^2 - r_k^2 = -1/3, so its entry is
    (1/3) i^{[d != k] + [f != k]} (-1)^{[d = f = k]}.  The residual phases
    are returned as declared local corrections, after which the matrix is
    exactly (1/3) ideal_cz_matrix(D, k).

    All D^2 coincident inputs (a, d)(b, f) are evolved at once: with mode
    map U the coincidence amplitude of output (a, i)(b, j) is
    U[i, D+f] U[D+j, d] + U[i, d] U[D+j, D+f], the two photon orderings of
    the symmetric input.  The 1/sqrt(2) of the input state multiplies the
    path-a factor and the sqrt(2) of post-selection the sum, where the
    one-state-at-a-time evolution psi -> U psi U^T puts them, so the
    entries carry the same bits as that route (signed zeros included).
    """
    D, k = _control(D, k)
    swap_levels = tuple(d for d in range(D) if d != k)
    U = sdbs_mode_map(control_splitter(D, k))
    # the path relabeling a_d <-> b_d swaps rows d and D + d of the mode map
    a = np.array(swap_levels, dtype=int)
    U[a], U[D + a] = U[D + a], U[a]
    filter_t = filter_splitter(D, k).transmission.real
    half = 1.0 / math.sqrt(2.0)

    # coincidence[i, j, d, f]: input (a, d)(b, f) -> output (a, i)(b, j);
    # the second ordering is added one output row i at a time, so no
    # temporary is as large as the matrix
    coincidence = np.einsum("if,jd->ijdf", U[:D, D:] * half, U[D:, :D])
    direct = U[:D, :D] * half
    for i in range(D):
        coincidence[i] += np.einsum("d,jf->jdf", direct[i], U[D:, D:])
    coincidence *= math.sqrt(2.0)
    coincidence *= filter_t[:, None, None, None]
    coincidence *= filter_t[None, :, None, None]
    matrix = coincidence.reshape(D * D, D * D)
    # column norms over blocks of D columns: the same sums, with
    # temporaries of D columns instead of two of the whole matrix
    success = np.concatenate(
        [np.linalg.norm(matrix[:, lo:lo + D], axis=0) for lo in range(0, D * D, D)]
    ) ** 2

    alpha, beta, gamma = _diagonal_corrections(matrix, D, k)
    return PostSelectedOperator(
        dim=D,
        control_level=k,
        matrix=matrix,
        success_probabilities=success,
        path_swap_levels=swap_levels,
        correction_alpha=alpha,
        correction_beta=beta,
        correction_global=gamma,
    )


def _diagonal_corrections(matrix: np.ndarray, D: int, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Phases alpha_d + beta_f + gamma turning diag(matrix) into the CZ pattern.

    Solvable because the interaction signature of the heralded matrix
    already matches the ideal gate; the split uses the d = 0 row/column as
    gauge, target phase pi at (k, k) and 0 elsewhere.
    """
    diag = np.diagonal(matrix).reshape(D, D)
    target = np.where(
        (np.arange(D)[:, None] == k) & (np.arange(D)[None, :] == k), np.pi, 0.0
    )
    needed = target - np.angle(diag)
    gamma = needed[0, 0]
    alpha = needed[:, 0] - gamma
    beta = needed[0, :] - alpha[0] - gamma
    return _wrap(alpha), _wrap(beta), float(_wrap(gamma))


def interaction_phase_signature(matrix: np.ndarray) -> np.ndarray:
    """Gauge-invariant two-photon phases chi[d, f] of a diagonal operator.

    chi[d, f] = arg g_df - arg g_d0 - arg g_0f + arg g_00, wrapped to
    (-pi, pi], where g is the operator diagonal.  Single-path phase masks
    on either side cancel out of chi, so it isolates the genuine
    interaction.  Requires a finite diagonal matrix (off-diagonal entries
    at most 1e-10) of uniform nonzero modulus.  A real or complex matrix
    is read in place: no temporary is larger than its off-diagonal moduli.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    D = math.isqrt(n)
    if matrix.shape != (n, n) or D * D != n:
        raise ValueError(f"expected a D^2 x D^2 matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix entries must be finite")
    # the flat entries after the first, n + 1 per row, lead with the n
    # off-diagonal entries between two diagonal ones
    off_diagonal = matrix.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]
    off_norm = float(np.abs(off_diagonal).max(initial=0.0))
    if off_norm > 1e-10:
        raise ValueError(f"matrix is not diagonal: max off-diagonal {off_norm:.3e} > 1e-10")
    diagonal = np.diagonal(matrix).astype(complex)
    moduli = np.abs(diagonal)
    if moduli.min() <= 0 or (moduli.max() - moduli.min()) / moduli.max() > 1e-8:
        raise ValueError("diagonal moduli must be uniform and nonzero")
    phases = np.angle(diagonal).reshape(D, D)
    chi = phases - phases[:, :1] - phases[:1, :] + phases[0, 0]
    return _wrap(chi)


def schmidt_coefficients(amplitudes) -> np.ndarray:
    """Normalized Schmidt spectrum of a D x D coincidence amplitude matrix.

    Returns singular values scaled to unit 2-norm, descending.
    """
    C = np.asarray(amplitudes, dtype=complex)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {C.shape}")
    s = np.linalg.svd(C, compute_uv=False)
    norm = np.linalg.norm(s)
    if norm == 0:
        raise ValueError("zero matrix has no Schmidt spectrum")
    return s / norm

