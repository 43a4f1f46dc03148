"""Self-verification suites: algebra, qft, crosscheck, czgate.

Each suite runs a fixed list of deterministic checks and reports one
(value, tolerance, passed) record per check.  These are the same
quantities the test suite asserts; the CLI exposes them so an installed
package can be validated without a test runner.
"""

from dataclasses import asdict, dataclass

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
    ideal_cz_matrix,
    interaction_phase_signature,
    schmidt_coefficients,
)
from .programs import compile_program, hadamard_program
from .propagation import gate_crosscheck

__all__ = ["Check", "run_suite", "suite_names", "format_report"]


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    value: float
    tolerance: float
    passed: bool


def _check(suite: str, name: str, value: float, tolerance: float) -> Check:
    value = float(value)
    return Check(
        suite=suite, name=name, value=value, tolerance=tolerance,
        passed=bool(value <= tolerance),
    )


def _run_algebra(dims=tuple(range(2, 13))) -> list[Check]:
    checks = []
    for D in dims:
        U = talbot_unitary(D, 1)
        eye = np.eye(D)
        checks.append(_check(
            "algebra", f"unitarity D={D}",
            np.abs(U.conj().T @ U - eye).max(), 1e-10,
        ))
        column = U[:, 0]
        rolled = np.column_stack([np.roll(column, j) for j in range(D)])
        checks.append(_check(
            "algebra", f"circulant D={D}", np.abs(U - rolled).max(), 0.0,
        ))
        r = talbot_cycle_length(D)
        checks.append(_check(
            "algebra", f"cycle U^{r}=1 D={D}",
            np.abs(np.linalg.matrix_power(U, r) - eye).max(), 1e-10,
        ))
        if D % 2 == 0:
            checks.append(_check(
                "algebra", f"half carpet U^{D}=X^{D // 2} D={D}",
                np.abs(np.linalg.matrix_power(U, D) - pauli_shift(D, D // 2)).max(),
                1e-10,
            ))
        # the defining sum over n, as an independent check of the closed form
        n = np.arange(r)
        direct = np.exp(-2j * np.pi * ((n * n - n[:, None] * n) % r) / r).mean(axis=1)
        checks.append(_check(
            "algebra", f"closed form D={D}",
            np.abs(gauss_coefficients(1, r) - direct).max(), 1e-12,
        ))
    # qubit landmarks
    U4 = talbot_unitary(2, 1)
    landmark = np.exp(-1j * np.pi / 4) / np.sqrt(2) * np.array([[1, 1j], [1j, 1]])
    checks.append(_check(
        "algebra", "qubit quarter step", np.abs(U4 - landmark).max(), 1e-12,
    ))
    checks.append(_check(
        "algebra", "qubit half step = X",
        np.abs(talbot_unitary(2, 2) - pauli_shift(2)).max(), 1e-12,
    ))
    checks.append(_check(
        "algebra", "qubit full step = 1",
        np.abs(talbot_unitary(2, 4) - np.eye(2)).max(), 1e-12,
    ))
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    checks.append(_check(
        "algebra", "hadamard program",
        np.abs(compile_program(hadamard_program()) - hadamard).max(), 1e-12,
    ))
    return checks


def _run_qft(even=(2, 4, 6, 8, 10), odd=(3, 5, 7, 9, 11)) -> list[Check]:
    checks = []
    for D in even:
        _, _, report = qft_decomposition_even(D)
        checks.append(_check("qft", f"even sandwich D={D}", report.residual, 1e-10))
    for D in odd:
        _, _, report = qft_decomposition_odd(D)
        checks.append(_check("qft", f"odd sandwich D={D}", report.residual, 1e-10))
    for D in sorted((*even, *odd)):
        F = qft_matrix(D)
        U = talbot_unitary(D, 1)
        diagonalized = F @ U @ F.conj().T
        off = diagonalized - np.diag(np.diagonal(diagonalized))
        checks.append(_check(
            "qft", f"fourier diagonalizes step D={D}", np.abs(off).max(), 1e-10,
        ))
    return checks


def _run_crosscheck(dims=(2, 3, 4, 5)) -> list[Check]:
    checks = []
    for D in dims:
        result = gate_crosscheck(D)
        checks.append(_check(
            "crosscheck", f"wave vs matrix D={D}", result.max_deviation, 1e-6,
        ))
        checks.append(_check(
            "crosscheck", f"projection residual D={D}",
            result.max_projection_residual, 1e-4,
        ))
    return checks


def _run_czgate(dims=(2, 3, 4)) -> list[Check]:
    checks = []
    for D in dims:
        for k in range(D):
            op = build_cz(D, k)
            moduli = np.abs(np.diagonal(op.matrix))
            checks.append(_check(
                "czgate", f"uniform modulus 1/3 D={D} k={k}",
                np.abs(moduli - 1.0 / 3.0).max(), 1e-10,
            ))
            checks.append(_check(
                "czgate", f"success 1/9 D={D} k={k}",
                np.abs(op.success_probabilities - 1.0 / 9.0).max(), 1e-10,
            ))
            off = op.matrix - np.diag(np.diagonal(op.matrix))
            checks.append(_check(
                "czgate", f"diagonality D={D} k={k}", np.abs(off).max(), 1e-10,
            ))
            chi = interaction_phase_signature(op.matrix)
            chi_ideal = interaction_phase_signature(ideal_cz_matrix(D, k))
            checks.append(_check(
                "czgate", f"interaction phases D={D} k={k}",
                np.abs(chi - chi_ideal).max(), 1e-9,
            ))
            corrected_residual = np.abs(
                op.corrected_matrix() - ideal_cz_matrix(D, k) / 3.0
            ).max()
            checks.append(_check(
                "czgate", f"corrected matrix D={D} k={k}", corrected_residual, 1e-10,
            ))
            # i per reflected photon, and the Hong-Ou-Mandel factor
            # t_k^2 - r_k^2 = -1/3 when both sit at k; no phase is fitted
            p = np.full(D, 1j)
            p[k] = 1.0
            g = np.outer(p, p) / 3.0
            g[k, k] = -1.0 / 3.0
            checks.append(_check(
                "czgate", f"closed form D={D} k={k}",
                np.abs(op.matrix - np.diag(g.reshape(-1))).max(), 1e-15,
            ))
    # entangling power on a qubit pair of uniform superpositions
    plus = np.full(2, 1.0 / np.sqrt(2.0))
    out, _ = build_cz(2, 1).apply(plus, plus)
    schmidt = schmidt_coefficients(out)
    checks.append(_check(
        "czgate", "schmidt spectrum D=2",
        np.abs(schmidt - 1.0 / np.sqrt(2.0)).max(), 1e-9,
    ))
    return checks


_SUITES = {
    "algebra": _run_algebra,
    "qft": _run_qft,
    "crosscheck": _run_crosscheck,
    "czgate": _run_czgate,
}


def suite_names() -> list:
    return list(_SUITES)


def run_suite(name: str) -> dict:
    """Run one suite (or 'all'); returns {suite, checks, all_passed}."""
    if name == "all":
        checks = [c for suite in _SUITES.values() for c in suite()]
    elif name in _SUITES:
        checks = _SUITES[name]()
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {[*_SUITES, 'all']}")
    return {
        "suite": name,
        "checks": [asdict(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
    }


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
