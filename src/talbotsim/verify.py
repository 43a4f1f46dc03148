"""Self-verification suites: algebra, qft, crosscheck, czgate.

Each suite is a generator of (name, value, tolerance) rows, one per
deterministic check, and `run_suite` turns each row into one plain dict
{suite, name, value, tolerance, passed}.  These are the same quantities
the test suite asserts; the CLI exposes them so an installed package can
be validated without a test runner.  A suite whose library call raises
ValueError or MemoryError keeps the rows it yielded before, ends with one
failed row named "error: <message>" (value NaN, tolerance 0), and the
other suites still run.
"""

import numpy as np

from .gates import (
    pauli_shift,
    qft_decomposition_even,
    qft_decomposition_odd,
    qft_matrix,
    talbot_cycle_length,
    talbot_unitary,
)
from .gauss import gauss_coefficients
from .photonpair import (
    build_cz,
    control_splitter,
    cz_figures_of_merit,
    ideal_cz_matrix,
    schmidt_coefficients,
    sdbs_mode_map,
)
from .programs import compile_program, hadamard_program
from .propagation import gate_crosscheck

__all__ = ["run_suite", "format_report"]


def _clifford_residual(u: np.ndarray, q: int) -> float:
    """Largest deviation of a q-step gate's first column u from a Clifford one.

    Every Talbot power maps the clock Z to c X^a Z: a = q mod D and
    c = exp(i pi q / D) for even D, a = 2q mod D and c = exp(2i pi q / D)
    for odd D.  On a circulant's first column that reads
    u[n] = c w^(n - a) u[n - a], indices mod D, with w = exp(2i pi / D).
    Nothing here comes from the gate builder.
    """
    D = len(u)
    if D % 2 == 0:
        a, c = q % D, np.exp(1j * np.pi * q / D)
    else:
        a, c = 2 * q % D, np.exp(2j * np.pi * q / D)
    shifted = (np.arange(D) - a) % D
    return np.abs(u - c * np.exp(2j * np.pi * shifted / D) * u[shifted]).max()


def _algebra():
    for D in range(2, 13):
        U = talbot_unitary(D, 1)
        eye = np.eye(D)
        yield f"unitarity D={D}", np.abs(U.conj().T @ U - eye).max(), 1e-10
        column = U[:, 0]
        rolled = np.column_stack([np.roll(column, j) for j in range(D)])
        yield f"circulant D={D}", np.abs(U - rolled).max(), 0.0
        r = talbot_cycle_length(D)
        yield (f"cycle U^{r}=1 D={D}",
               np.abs(np.linalg.matrix_power(U, r) - eye).max(), 1e-10)
        if D % 2 == 0:
            half = np.linalg.matrix_power(U, D) - pauli_shift(D, D // 2)
            yield f"half carpet U^{D}=X^{D // 2} D={D}", np.abs(half).max(), 1e-10
        # the defining sum over n, as an independent check of the closed form
        n = np.arange(r)
        direct = np.exp(-2j * np.pi * ((n * n - n[:, None] * n) % r) / r).mean(axis=1)
        yield (f"closed form D={D}",
               np.abs(gauss_coefficients(1, r) - direct).max(), 1e-12)
        # with circulant structure and the closed form's b_0, the Clifford
        # relation fixes the whole gate
        yield f"clifford D={D} q=1", _clifford_residual(column, 1), 1e-12
        yield (f"clifford D={D} q={r - 1}",
               _clifford_residual(talbot_unitary(D, r - 1)[:, 0], r - 1), 1e-12)
    yield "clifford D=256 q=1", _clifford_residual(talbot_unitary(256, 1)[:, 0], 1), 1e-12
    # qubit landmarks
    landmark = np.exp(-1j * np.pi / 4) / np.sqrt(2) * np.array([[1, 1j], [1j, 1]])
    yield "qubit quarter step", np.abs(talbot_unitary(2, 1) - landmark).max(), 1e-12
    yield ("qubit half step = X",
           np.abs(talbot_unitary(2, 2) - pauli_shift(2)).max(), 1e-12)
    yield "qubit full step = 1", np.abs(talbot_unitary(2, 4) - np.eye(2)).max(), 1e-12
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    yield ("hadamard program",
           np.abs(compile_program(hadamard_program()) - hadamard).max(), 1e-12)


def _qft():
    for D in (2, 4, 6, 8, 10):
        yield f"even sandwich D={D}", qft_decomposition_even(D)[2].residual, 1e-10
    for D in (3, 5, 7, 9, 11):
        yield f"odd sandwich D={D}", qft_decomposition_odd(D)[2].residual, 1e-10
    for D in range(2, 12):
        F = qft_matrix(D)
        diagonalized = F @ talbot_unitary(D, 1) @ F.conj().T
        off = diagonalized - np.diag(np.diagonal(diagonalized))
        yield f"fourier diagonalizes step D={D}", np.abs(off).max(), 1e-10


def _crosscheck():
    for D in (2, 3, 4, 5):
        result = gate_crosscheck(D)
        yield f"wave vs matrix D={D}", result.max_deviation, 1e-6
        yield f"projection residual D={D}", result.max_projection_residual, 1e-4


def _czgate():
    for D in (2, 3, 4):
        for k in range(D):
            op = build_cz(D, k)
            figures = cz_figures_of_merit(op)
            yield (f"uniform modulus 1/3 D={D} k={k}",
                   max(abs(m - 1.0 / 3.0) for m in next(figures)[1]), 1e-10)
            yield (f"success 1/9 D={D} k={k}",
                   max(abs(p - 1.0 / 9.0) for p in next(figures)[1]), 1e-10)
            # build_cz keeps only the diagonal of each D x D block of the
            # mode map, which is exact when every other entry is 0; its
            # relabeling swaps rows of one level, so it moves none of them
            U = sdbs_mode_map(control_splitter(D, k))
            level = np.arange(2 * D) % D
            yield (f"diagonality D={D} k={k}",
                   np.abs(U[level[:, None] != level]).max(), 1e-10)
            yield f"interaction phases D={D} k={k}", next(figures)[1], 1e-9
            corrected = op.corrected_matrix() - ideal_cz_matrix(D, k) / 3.0
            yield f"corrected matrix D={D} k={k}", np.abs(corrected).max(), 1e-10
            # i per reflected photon, and the Hong-Ou-Mandel factor
            # t_k^2 - r_k^2 = -1/3 when both sit at k; no phase is fitted
            p = np.full(D, 1j)
            p[k] = 1.0
            g = np.outer(p, p) / 3.0
            g[k, k] = -1.0 / 3.0
            yield (f"closed form D={D} k={k}",
                   np.abs(op.diagonal - g.reshape(-1)).max(), 1e-15)
    # entangling power on a qubit pair of uniform superpositions
    plus = np.full(2, 1.0 / np.sqrt(2.0))
    out, _ = build_cz(2, 1).apply(plus, plus)
    schmidt = schmidt_coefficients(out)
    yield "schmidt spectrum D=2", np.abs(schmidt - 1.0 / np.sqrt(2.0)).max(), 1e-9


_SUITES = {
    "algebra": _algebra,
    "qft": _qft,
    "crosscheck": _crosscheck,
    "czgate": _czgate,
}


def run_suite(name: str) -> dict:
    """Run one suite (or 'all'); returns {suite, checks, all_passed}."""
    if name == "all":
        suites = list(_SUITES)
    elif name in _SUITES:
        suites = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {[*_SUITES, 'all']}")
    checks = []
    for suite in suites:
        try:
            # extend appends each row as the suite yields it, so the rows
            # before a raise stay
            checks.extend(_row(suite, *row) for row in _SUITES[suite]())
        except (ValueError, MemoryError) as error:
            checks.append(_row(suite, f"error: {error}", float("nan"), 0.0))
    return {
        "suite": name,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def _row(suite: str, name: str, value, tolerance: float) -> dict:
    """One check as the report prints it; NaN never passes."""
    value = float(value)
    return {"suite": suite, "name": name, "value": value, "tolerance": tolerance,
            "passed": bool(value <= tolerance)}


def format_report(result: dict) -> str:
    lines = []
    for check in result["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(
            f"[{status}] {check['suite']}: {check['name']} "
            f"value={check['value']:.3e} tol={check['tolerance']:.1e}"
        )
    verdict = "all checks passed" if result["all_passed"] else "FAILURES present"
    lines.append(f"suite '{result['suite']}': {verdict}")
    return "\n".join(lines) + "\n"
