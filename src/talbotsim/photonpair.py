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

from .gauss import _integer, _read_only

__all__ = [
    "SDBSSpec",
    "control_splitter",
    "filter_splitter",
    "sdbs_mode_map",
    "PostSelectedOperator",
    "build_cz",
    "ideal_cz_matrix",
    "interaction_phase_signature",
    "cz_figures_of_merit",
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

    transmission: np.ndarray
    reflection: np.ndarray

    def __post_init__(self):
        t = _read_only(self.transmission, complex)
        r = _read_only(self.reflection, complex)
        if t.ndim != 1 or t.shape != r.shape or not len(t):
            raise ValueError(
                "transmission/reflection must be 1-d vectors of one nonzero length, "
                f"got shapes {t.shape} and {r.shape}"
            )
        if not (np.isfinite(t).all() and np.isfinite(r).all()):
            raise ValueError("transmission/reflection amplitudes must be finite")
        power = np.abs(t) ** 2 + np.abs(r) ** 2
        if np.abs(power - 1.0).max() > 1e-12:
            raise ValueError("each level needs |t|^2 + |r|^2 = 1")
        if np.abs((t * r.conj()).imag).max() > 1e-12:
            raise ValueError("t_d conj(r_d) must be real for a unitary block")
        object.__setattr__(self, "transmission", t)
        object.__setattr__(self, "reflection", r)

    @property
    def dim(self) -> int:
        return len(self.transmission)


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
    return SDBSSpec(transmission=t, reflection=r)


def filter_splitter(D: int, k: int) -> SDBSSpec:
    """Balancing filter: level k passes, others attenuate to 1/sqrt(3)."""
    D, k = _control(D, k)
    t = np.full(D, 1.0 / math.sqrt(3.0))
    r = np.full(D, math.sqrt(2.0 / 3.0))
    t[k] = 1.0
    r[k] = 0.0
    return SDBSSpec(transmission=t, reflection=r)


def sdbs_mode_map(spec: SDBSSpec) -> np.ndarray:
    """Single-photon unitary of the splitter on extended modes (2D x 2D)."""
    t = np.diag(spec.transmission)
    ir = np.diag(1j * spec.reflection)
    return np.block([[t, ir], [ir, t]])


@dataclass(frozen=True)
class PostSelectedOperator:
    """Coincidence-heralded two-qudit operation (not trace preserving).

    Each photon keeps its level, so the operation is its D^2 `diagonal`:
    input coincidence (d, f), index d * D + f, leaves as itself with that
    unnormalized amplitude.  Everything else is read from it: `matrix` is
    the dense D^2 x D^2 view, `success_probabilities` lists |diagonal|^2,
    and `corrections()` returns the single-path phase masks (alpha on a,
    beta on b, plus a global angle) that rotate it onto its ideal target;
    they commute with any later slit-basis processing and are declared
    rather than physically applied.  `path_swap_levels` are the levels
    whose outputs a_d and b_d the construction relabels, all but k.
    """

    dim: int
    control_level: int
    diagonal: np.ndarray

    def __post_init__(self):
        D, k = _control(self.dim, self.control_level)
        diagonal = _read_only(self.diagonal, complex)
        if diagonal.shape != (D * D,):
            raise ValueError(f"diagonal must have shape ({D * D},), got {diagonal.shape}")
        object.__setattr__(self, "dim", D)
        object.__setattr__(self, "control_level", k)
        object.__setattr__(self, "diagonal", diagonal)

    @property
    def success_probabilities(self) -> np.ndarray:
        return np.abs(self.diagonal) ** 2

    @property
    def path_swap_levels(self) -> tuple:
        return tuple(d for d in range(self.dim) if d != self.control_level)

    @property
    def matrix(self) -> np.ndarray:
        """np.diag(diagonal), built on each access: 16 D^4 bytes."""
        return np.diag(self.diagonal)

    def corrections(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Phases (alpha_d, beta_f, gamma) turning the diagonal into the CZ pattern.

        Solvable because the interaction signature of the heralded operator
        already matches the ideal gate; the split uses the d = 0 row/column
        as gauge.  Each phase is wrapped to (-pi, pi].
        """
        D = self.dim
        target = np.angle(_ideal_cz_diagonal(D, self.control_level)).reshape(D, D)
        needed = target - np.angle(self.diagonal.reshape(D, D))
        gamma = needed[0, 0]
        alpha = needed[:, 0] - gamma
        beta = needed[0, :] - alpha[0] - gamma
        return _wrap(alpha), _wrap(beta), float(_wrap(gamma))

    def corrected_matrix(self) -> np.ndarray:
        """Matrix after the declared local phase corrections."""
        alpha, beta, gamma = self.corrections()
        phase = np.exp(1j * gamma) * np.outer(np.exp(1j * alpha), np.exp(1j * beta))
        return np.diag(phase.reshape(-1) * self.diagonal)

    def apply(self, state_a: np.ndarray, state_b: np.ndarray) -> tuple[np.ndarray, float]:
        """Output coincidence amplitudes and success probability for a product input."""
        shape_a, shape_b = np.shape(state_a), np.shape(state_b)
        if not shape_a == shape_b == (self.dim,):
            raise ValueError(f"states must have shape ({self.dim},), got {shape_a} and {shape_b}")
        out = (self.diagonal * np.kron(state_a, state_b)).reshape(self.dim, self.dim)
        return out, float(np.linalg.norm(out) ** 2)


def ideal_cz_matrix(D: int, k: int) -> np.ndarray:
    """Controlled-Z on levels: phase -1 exactly when both photons sit at k."""
    return np.diag(_ideal_cz_diagonal(*_control(D, k)))


def _ideal_cz_diagonal(D: int, k: int) -> np.ndarray:
    return np.where(np.arange(D * D) == k * D + k, -1.0, 1.0)


def build_cz(D: int, k: int) -> PostSelectedOperator:
    """Post-selected controlled-Z at control level k.

    Construction: the control splitter (t_k = 1/sqrt(3), full reflection
    elsewhere), a declared path relabeling on the fully reflected levels
    (each such block is i times a path swap, so relabeling the outputs
    absorbs it into i times the identity), then per-path balancing filters
    whose surviving-amplitude action scales coincidences by t_d on each
    side.  Every basis input succeeds with probability 1/9 and the
    heralded operator is diagonal: input (a, d)(b, f) picks up i for each
    photon on a reflected level and, at d = f = k, the Hong-Ou-Mandel
    factor t_k^2 - r_k^2 = -1/3, so its entry is
    (1/3) i^{[d != k] + [f != k]} (-1)^{[d = f = k]}.  The residual phases
    are returned as declared local corrections, after which the operator
    is exactly (1/3) ideal_cz_matrix(D, k).

    The splitter mixes a_d only with b_d, so input (a, d)(b, f) leaves
    only as itself, with the amplitude of its two photon orderings: both
    photons stay, (own_d / sqrt(2)) own_f, or, when d = f, both cross,
    (cross_d / sqrt(2)) cross_d.  The relabeling picks which of t_d and
    i r_d is `own`: i r_d on the relabeled levels, t_k at k.  The
    1/sqrt(2) of the input state multiplies the path-a factor and the
    sqrt(2) of post-selection the sum, where the per-state evolution
    psi -> U psi U^T of the mode map U puts them, so the entries carry
    that route's bits (signed zeros included).  No array is larger than
    the diagonal.
    """
    splitter = control_splitter(D, k)  # checks (D, k)
    t, ir = splitter.transmission, 1j * splitter.reflection
    relabeled = np.arange(D) != k
    own, cross = np.where(relabeled, ir, t), np.where(relabeled, t, ir)
    filter_t = filter_splitter(D, k).transmission.real
    half = 1.0 / math.sqrt(2.0)
    # entry (d, f) of each D x D array belongs to input (a, d)(b, f)
    exchange = np.diag((cross * half) * cross)
    direct = (own * half)[:, None] * own
    diagonal = ((exchange + direct) * math.sqrt(2.0) * filter_t[:, None] * filter_t).reshape(-1)
    return PostSelectedOperator(dim=D, control_level=k, diagonal=diagonal)


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
    return _signature(np.diagonal(matrix))


def _signature(diagonal: np.ndarray) -> np.ndarray:
    # interaction_phase_signature of the operator with this D^2 diagonal
    diagonal = np.asarray(diagonal, dtype=complex)
    moduli = np.abs(diagonal)
    if moduli.min() <= 0 or (moduli.max() - moduli.min()) / moduli.max() > 1e-8:
        raise ValueError("diagonal moduli must be uniform and nonzero")
    D = math.isqrt(diagonal.size)
    phases = np.angle(diagonal).reshape(D, D)
    return _wrap(phases - phases[:, :1] - phases[:1, :] + phases[0, 0])


def cz_figures_of_merit(op: PostSelectedOperator):
    """The heralded CZ's figures of merit as (name, value) pairs, in order.

    [min, max] of |diagonal| and of the success probabilities, then
    max |chi - chi_ideal| against ideal_cz_matrix, all from D^2 values.
    Each pair is computed when asked for, so the ranges come out before
    non-uniform moduli make the last one raise ValueError.
    """
    moduli = np.abs(op.diagonal)
    yield "modulus_range", [float(moduli.min()), float(moduli.max())]
    success = op.success_probabilities
    yield "success_probability_range", [float(success.min()), float(success.max())]
    chi_ideal = _signature(_ideal_cz_diagonal(op.dim, op.control_level))
    yield "interaction_phase_deviation", float(np.abs(_signature(op.diagonal) - chi_ideal).max())


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

