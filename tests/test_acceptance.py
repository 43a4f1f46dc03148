"""Acceptance criteria for the package, one printed verdict line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines on
passing criteria too (pytest shows captured output only for failures by
default).  Each criterion states its tolerance explicitly and carries a
wall-clock budget so regressions in speed fail loudly.

Criterion 6b is expected to fail: it pins the mean squared slit overlap
for two levels at slit ratio 3/4 to the stated value 1/9 although the
periodic-overlap arithmetic (verified against an independent numerical
integration in test_grating.py) yields 4/9.  The pin is kept as stated to
document the discrepancy rather than silently adjusting either side; see
that test's docstring for the derivation.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import numpy as np

from talbotsim import (
    GratingSpec,
    build_cz,
    diagonal_gate,
    fidelity_sweep,
    gate_crosscheck,
    gauss_coefficients,
    grating_coefficients,
    hadamard_via_talbot,
    ideal_cz_matrix,
    interaction_phase_signature,
    mean_orthogonality,
    pauli_shift,
    qft_decomposition_even,
    qft_decomposition_odd,
    qft_matrix,
    replica_decompose,
    schmidt_coefficients,
    talbot_cycle_length,
    talbot_unitary,
)


def _verdict(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPTANCE] criterion {number} ({name}): {status}")
    assert not failures, f"criterion {number} ({name}): {failures}"


def test_criterion_1_gate_algebra():
    """Circulant unitaries, exact cycle lengths, closed forms; dims 2..12."""
    start = time.perf_counter()
    failures = []
    for D in range(2, 13):
        r = talbot_cycle_length(D)
        U = talbot_unitary(D, 1)
        if np.abs(U @ U.conj().T - np.eye(D)).max() > 1e-10:
            failures.append(f"D={D}: not unitary at 1e-10")
        # circulant structure is exact: every column is a roll of column 0
        for j in range(1, D):
            if not np.array_equal(U[:, j], np.roll(U[:, 0], j)):
                failures.append(f"D={D}: column {j} is not a cyclic roll")
                break
        powers = U.copy()
        for p in range(2, r + 1):
            powers = powers @ U
            if p < r and np.abs(powers - np.eye(D)).max() < 1e-3:
                failures.append(f"D={D}: cycle shorter than {r} (power {p})")
        if np.abs(powers - np.eye(D)).max() > 1e-10:
            failures.append(f"D={D}: U^{r} deviates from identity at 1e-10")
        if D % 2 == 0:
            half = np.linalg.matrix_power(U, D)
            if np.abs(half - pauli_shift(D, D // 2)).max() > 1e-10:
                failures.append(f"D={D}: half-cycle is not the half-period shift")
        n = np.arange(r)
        direct = np.exp(-2j * np.pi * ((n * n - n[:, None] * n) % r) / r).mean(axis=1)
        if np.abs(gauss_coefficients(1, r) - direct).max() > 1e-12:
            failures.append(f"D={D}: closed form deviates from the direct sum at 1e-12")
    elapsed = time.perf_counter() - start
    if elapsed > 1.0:
        failures.append(f"budget exceeded: {elapsed:.2f}s > 1s")
    _verdict(1, "qudit gate algebra", failures)


def test_criterion_2_qubit_landmarks():
    """Two-level special cases at 1e-12."""
    failures = []
    U = talbot_unitary(2, 1)
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    quarter = np.exp(-1j * np.pi / 4) * (np.eye(2) + 1j * X) / math.sqrt(2.0)
    if np.abs(U - quarter).max() > 1e-12:
        failures.append("single step deviates from exp(-i pi/4)(I + iX)/sqrt(2)")
    if np.abs(U @ U - X).max() > 1e-12:
        failures.append("two steps deviate from the level swap")
    if np.abs(np.linalg.matrix_power(U, 4) - np.eye(2)).max() > 1e-12:
        failures.append("four steps deviate from identity")
    H, _ = hadamard_via_talbot()
    target = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    if np.abs(H - target).max() > 1e-12:
        failures.append("step-mask-step sandwich deviates from Hadamard")
    _verdict(2, "qubit landmarks", failures)


def test_criterion_3_fourier_factorization():
    """Mask-step-mask factorization of the Fourier transform at 1e-10."""
    start = time.perf_counter()
    failures = []
    for D in (2, 4, 6, 8, 10):
        pre, post, report = qft_decomposition_even(D)
        sandwich = diagonal_gate(post) @ talbot_unitary(D, report.step_power) @ diagonal_gate(pre)
        if np.abs(sandwich - qft_matrix(D)).max() > 1e-10:
            failures.append(f"even D={D}: sandwich deviates at 1e-10")
        if report.step_power != 1:
            failures.append(f"even D={D}: unexpected step power {report.step_power}")
    for D in (3, 5, 7, 9, 11):
        pre, post, report = qft_decomposition_odd(D)
        if report.step_power != (D + 1) // 2:
            failures.append(f"odd D={D}: step power {report.step_power} != (D+1)/2")
        sandwich = diagonal_gate(post) @ talbot_unitary(D, report.step_power) @ diagonal_gate(pre)
        overlap = np.vdot(qft_matrix(D), sandwich)
        aligned = sandwich / (overlap / abs(overlap))
        if np.abs(aligned - qft_matrix(D)).max() > 1e-10:
            failures.append(f"odd D={D}: aligned sandwich deviates at 1e-10")
    for D in range(2, 13):
        F = qft_matrix(D)
        diag = F @ talbot_unitary(D, 1) @ F.conj().T
        off = diag - np.diag(np.diagonal(diag))
        if np.abs(off).max() > 1e-10:
            failures.append(f"D={D}: Fourier basis does not diagonalize the step")
        if np.abs(np.abs(np.diagonal(diag)) - 1.0).max() > 1e-10:
            failures.append(f"D={D}: step eigenvalues are not unimodular")
    elapsed = time.perf_counter() - start
    if elapsed > 1.0:
        failures.append(f"budget exceeded: {elapsed:.2f}s > 1s")
    _verdict(3, "fourier factorization", failures)


def test_criterion_4_wave_gate_crosscheck():
    """Independent wave-optics propagation reproduces the gate at 1e-6."""
    start = time.perf_counter()
    failures = []
    for D in (2, 3, 4, 5):
        result = gate_crosscheck(D)
        if not result.certified:
            failures.append(f"D={D}: crosscheck not certified")
        if result.max_deviation > 1e-6:
            failures.append(f"D={D}: deviation {result.max_deviation:.2e} > 1e-6")
        if result.max_projection_residual > 1e-4:
            failures.append(
                f"D={D}: projection residual {result.max_projection_residual:.2e}"
            )
    elapsed = time.perf_counter() - start
    if elapsed > 10.0:
        failures.append(f"budget exceeded: {elapsed:.2f}s > 10s")
    _verdict(4, "wave-gate crosscheck", failures)


def test_criterion_5_revival_weights():
    """Fractional-distance copy weights match the number-theoretic form at 1e-9."""
    failures = []
    field = grating_coefficients(GratingSpec(slit_width=1 / 17, mode_truncation=40))
    for r in range(1, 17):
        for q in range(1, r + 1):
            if gcd(q, r) != 1:
                continue
            dec = replica_decompose(field, Fraction(q, r), slit_width=1 / 17)
            expected = np.asarray(gauss_coefficients(q, r))
            if np.abs(dec.coefficients - expected).max() > 1e-9:
                failures.append(f"(q, r) = ({q}, {r}) deviates at 1e-9")
    full = replica_decompose(field, Fraction(1), slit_width=1 / 17)
    if not (len(full.coefficients) == 1 and abs(full.coefficients[0] - 1) < 1e-9):
        failures.append("full-period weights are not the single unit copy")
    half = replica_decompose(field, Fraction(1, 2), slit_width=1 / 17)
    if np.abs(half.coefficients - np.array([0.0, 1.0])).max() > 1e-9:
        failures.append("half-period weights are not the pure shifted copy")
    _verdict(5, "revival weight decomposition", failures)


def test_criterion_6a_orthogonality_limits():
    """Mean squared slit overlap: exactly 0 when disjoint, exactly 1 when full."""
    failures = []
    for D in range(2, 7):
        for factor in (0.2, 0.5, 0.95):
            a = factor / D
            value = mean_orthogonality(D, a)
            if value != 0.0:
                failures.append(f"D={D}, a={a}: expected exact 0, got {value!r}")
        # at the touching width the binary rounding of 1/D decides whether
        # the measure-zero contact registers; it stays at double-rounding
        # scale either way
        if mean_orthogonality(D, 1.0 / D) > 1e-30:
            failures.append(f"D={D}: touching slits overlap above rounding scale")
        if abs(mean_orthogonality(D, 1.0) - 1.0) > 1e-15:
            failures.append(f"D={D}: full-width overlap is not 1")
    _verdict("6a", "slit overlap limits", failures)


def test_criterion_6b_pinned_two_level_overlap():
    """Pinned value: mean squared overlap 1/9 at two levels, slit ratio 3/4.

    This criterion is kept as stated and is expected to fail.  For D = 2
    the single off-diagonal overlap is between a slit of width a = 3/4 and
    its copy shifted by half a period.  On the periodic cell the two
    indicator functions intersect in two stripes of total length
    max(0, a - 1/2) + max(0, a - 1/2) = 1/2, so the normalized overlap is
    (1/2) / (3/4) = 2/3 and its square is 4/9 (independently confirmed by
    numerical integration in test_grating.py).  The stated value 1/9 would
    need overlap 1/3, which no placement of a 3/4-width slit on a unit
    cell with half-period spacing produces; the non-wrapping model that
    yields (a - 1/2)/a = 1/3 contradicts the exact full-width limit of
    criterion 6a.  The pin therefore documents a discrepancy, and this
    red line is the honest outcome.
    """
    value = mean_orthogonality(2, 0.75)
    failures = []
    if abs(value - 1.0 / 9.0) > 1e-10:
        failures.append(f"pinned 1/9, computed {value!r} (= 4/9)")
    _verdict("6b", "pinned two-level overlap value", failures)


def test_criterion_7_postselected_controlled_z():
    """Heralded CZ: moduli 1/3, success 1/9, ideal interaction phases."""
    start = time.perf_counter()
    failures = []
    for D in (2, 3, 4, 5):
        for k in range(D):
            op = build_cz(D, k)
            moduli = np.abs(np.diagonal(op.matrix))
            if np.abs(moduli - 1 / 3).max() > 1e-10:
                failures.append(f"D={D}, k={k}: moduli deviate from 1/3")
            if np.abs(op.success_probabilities - 1 / 9).max() > 1e-10:
                failures.append(f"D={D}, k={k}: success deviates from 1/9")
            chi = interaction_phase_signature(op.matrix)
            ideal = interaction_phase_signature(ideal_cz_matrix(D, k))
            dev = np.abs(np.angle(np.exp(1j * (chi - ideal)))).max()
            if dev > 1e-9:
                failures.append(f"D={D}, k={k}: interaction phases deviate {dev:.2e}")
            corrected = op.corrected_matrix()
            if np.abs(corrected - ideal_cz_matrix(D, k) / 3.0).max() > 1e-10:
                failures.append(f"D={D}, k={k}: corrected matrix is not CZ/3")
    op = build_cz(2, 1)
    plus = np.full(2, 1 / math.sqrt(2))
    out, _ = op.apply(plus, plus)
    schmidt = schmidt_coefficients(out)
    if np.abs(schmidt - 1 / math.sqrt(2)).max() > 1e-9:
        failures.append("plus-plus input does not come out maximally entangled")
    elapsed = time.perf_counter() - start
    if elapsed > 5.0:
        failures.append(f"budget exceeded: {elapsed:.2f}s > 5s")
    _verdict(7, "post-selected controlled-z", failures)


def test_criterion_8_fidelity_decay():
    """Finite-envelope revival fidelity: decaying in distance, restored by width."""
    start = time.perf_counter()
    failures = []
    rows = fidelity_sweep()
    table = {(row.n_slits, row.talbot_periods): row.fidelity for row in rows}
    if not table[(100.0, 10)] > 0.9:
        failures.append(f"wide envelope at 10 periods: {table[(100.0, 10)]:.4f} <= 0.9")
    for n in (5.0, 20.0, 100.0):
        series = [table[(n, m)] for m in range(1, 11)]
        if not all(a > b + 1e-6 for a, b in zip(series, series[1:])):
            failures.append(f"n_slits={n}: fidelity is not strictly decaying in m")
    for m in range(1, 11):
        series = [table[(n, m)] for n in (5.0, 20.0, 100.0)]
        if not all(a + 1e-6 < b for a, b in zip(series, series[1:])):
            failures.append(f"m={m}: fidelity is not strictly increasing in width")
    elapsed = time.perf_counter() - start
    if elapsed > 120.0:
        failures.append(f"budget exceeded: {elapsed:.2f}s > 120s")
    _verdict(8, "finite-grating fidelity decay", failures)


def test_criterion_9_deterministic_outputs(tmp_path):
    """Identical invocations produce byte-identical stdout and files."""
    start = time.perf_counter()
    failures = []

    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "talbotsim", *args],
            capture_output=True,
            env=dict(os.environ),
            check=False,
        )

    json_a = tmp_path / "a.json"
    json_b = tmp_path / "b.json"
    first = run(["verify", "--suite", "algebra", "--json-out", str(json_a)])
    second = run(["verify", "--suite", "algebra", "--json-out", str(json_b)])
    if first.returncode != 0 or second.returncode != 0:
        failures.append("verify runs did not exit 0")
    if first.stdout != second.stdout:
        failures.append("verify stdout differs between runs")
    if json_a.read_bytes() != json_b.read_bytes():
        failures.append("verify JSON report differs between runs")
    else:
        payload = json.loads(json_a.read_text())
        if not payload["all_passed"]:
            failures.append("verify suite reported failures")

    sweep = ["fidelity", "--n-slits", "5", "--m-max", "2", "--n-x", "4096"]
    one = run(sweep)
    two = run(sweep)
    if one.returncode != 0 or two.returncode != 0:
        failures.append("fidelity runs did not exit 0")
    if one.stdout != two.stdout:
        failures.append("fidelity stdout differs between runs")

    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        failures.append(f"budget exceeded: {elapsed:.2f}s > 60s")
    _verdict(9, "deterministic outputs", failures)
