"""Two-photon interference, the heralded CZ construction, and its invariants.

Oracle: a four-path mode space (a, b, dump-a, dump-b) in which the
balancing filters are honest unitary couplers into dump paths and the
path relabeling is an explicit permutation.  Coincidences between a and b
are extracted once, at the end.  The production `build_cz` uses a shortcut
(the splitter's two vectors, filters as amplitude scalings, relabeling
absorbed); the oracle validates both the shortcut and the claim that
intermediate post-selection is never needed (a photon in a dump path can
no longer reach a and b).
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbotsim import (
    PostSelectedOperator,
    SDBSSpec,
    build_cz,
    control_splitter,
    cz_figures_of_merit,
    filter_splitter,
    ideal_cz_matrix,
    interaction_phase_signature,
    postselected_to_json,
    schmidt_coefficients,
    sdbs_mode_map,
)

# ---------------------------------------------------------------------------
# four-path oracle
# ---------------------------------------------------------------------------


def four_path_unitary(D: int, k: int) -> np.ndarray:
    """Physical CZ circuit on 4D modes: a, b, dump-a, dump-b."""
    n = 4 * D
    # control splitter between a and b, dumps untouched
    U1 = np.eye(n, dtype=complex)
    inner = sdbs_mode_map(control_splitter(D, k))
    U1[: 2 * D, : 2 * D] = inner
    # path relabeling a_d <-> b_d on the reflected levels
    P = np.eye(n, dtype=complex)
    for d in range(D):
        if d != k:
            P[[d, D + d]] = P[[D + d, d]]
    # per-level filters: a_d couples to dump-a_d, b_d to dump-b_d
    filt = filter_splitter(D, k)
    U2 = np.eye(n, dtype=complex)
    for d in range(D):
        t = filt.transmission[d]
        r = filt.reflection[d]
        for path, dump in ((d, 2 * D + d), (D + d, 3 * D + d)):
            U2[path, path] = t
            U2[path, dump] = 1j * r
            U2[dump, path] = 1j * r
            U2[dump, dump] = t
    U = U2 @ P @ U1
    assert np.abs(U @ U.conj().T - np.eye(n)).max() < 1e-12
    return U


def four_path_cz_matrix(D: int, k: int) -> np.ndarray:
    """Heralded matrix from the full dump-port model, end-only coincidences."""
    U = four_path_unitary(D, k)
    G = np.zeros((D * D, D * D), dtype=complex)
    for d in range(D):
        for f in range(D):
            psi = np.zeros((4 * D, 4 * D), dtype=complex)
            psi[d, D + f] = psi[D + f, d] = 1.0 / math.sqrt(2.0)
            out = U @ psi @ U.T
            C = math.sqrt(2.0) * out[:D, D : 2 * D]
            G[:, d * D + f] = C.reshape(-1)
    return G


@pytest.mark.parametrize("D,k", [(2, 0), (2, 1), (3, 0), (3, 2), (4, 1), (5, 3)])
def test_build_cz_matches_four_path_oracle(D, k):
    op = build_cz(D, k)
    oracle = four_path_cz_matrix(D, k)
    assert np.abs(op.matrix - oracle).max() < 1e-12


def _swap_matrix(D: int, swapped_levels) -> np.ndarray:
    """Path relabeling a_d <-> b_d on the given levels, identity elsewhere."""
    P = np.eye(2 * D)
    for d in swapped_levels:
        P[[d, D + d]] = P[[D + d, d]]
    return P


def _cz_by_state_evolution(D: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, success) of `build_cz`, evolving one coincident input at a time.

    Modes are indexed p * D + d for path p (0 = a, 1 = b) and level d.  A
    two-photon state is a symmetric psi of unit Frobenius norm, |state> =
    2^{-1/2} sum_ij psi_ij c_i^+ c_j^+ |0>, and evolves as U psi U^T with the
    mode map U of `build_cz`.  Input (a, d)(b, f) is psi[d, D+f] = psi[D+f, d]
    = 2^{-1/2}; its coincidences are sqrt(2) psi[:D, D:], filtered by t_d on
    each side.
    """
    U = _swap_matrix(D, set(range(D)) - {k}) @ sdbs_mode_map(control_splitter(D, k))
    filter_t = filter_splitter(D, k).transmission.real
    matrix = np.zeros((D * D, D * D), dtype=complex)
    for d in range(D):
        for f in range(D):
            psi = np.zeros((2 * D, 2 * D), dtype=complex)
            psi[d, D + f] = psi[D + f, d] = 1.0 / math.sqrt(2.0)
            C = math.sqrt(2.0) * (U @ psi @ U.T)[:D, D:]
            matrix[:, d * D + f] = (filter_t[:, None] * C * filter_t[None, :]).reshape(-1)
    return matrix, np.linalg.norm(matrix, axis=0) ** 2


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6, 7, 8])
def test_build_cz_bitwise_equal_to_per_state_evolution(D):
    for k in range(D):
        op = build_cz(D, k)
        matrix, success = _cz_by_state_evolution(D, k)
        assert np.array_equal(op.matrix, matrix), k
        assert np.array_equal(op.success_probabilities, success), k
        assert np.array_equal(np.signbit(op.matrix.real), np.signbit(matrix.real)), k
        assert np.array_equal(np.signbit(op.matrix.imag), np.signbit(matrix.imag)), k


@pytest.mark.parametrize(
    "D,k", [(D, k) for D in range(2, 9) for k in range(D)] + [(24, 0), (24, 5), (24, 23)]
)
def test_build_cz_matches_closed_form(D, k):
    # a factor i per reflected photon; both photons at k interfere with
    # t_k^2 - r_k^2 = 1/3 - 2/3 (Hong-Ou-Mandel), after the filters' 1/3
    p = np.full(D, 1j)
    p[k] = 1.0
    g = np.outer(p, p).reshape(-1) / 3.0
    g[k * D + k] = -1.0 / 3.0
    matrix = build_cz(D, k).matrix
    assert np.abs(np.diagonal(matrix) - g).max() <= 1e-15
    assert np.count_nonzero(matrix - np.diag(np.diagonal(matrix))) == 0


@pytest.mark.parametrize("k", [0, 7, 15])
def test_build_cz_memory_is_output_sized(k):
    for D in (16, 48):
        tracemalloc.start()
        try:
            op = build_cz(D, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.diagonal.shape == (D * D,)
        assert op.matrix.shape == (D * D, D * D)
        # in units of one complex D^2 vector: the exchange and direct
        # terms, their sum and the products that scale it by sqrt(2) and
        # the filters, one or two held at a time; 5.2 to 6.4 measured
        assert peak < 7 * 16 * D**2, (D, peak)


def test_postselected_operator_stores_only_its_diagonal():
    names = [field.name for field in dataclasses.fields(PostSelectedOperator)]
    assert names == ["dim", "control_level", "diagonal"]


def test_postselected_diagonal_is_read_only():
    # the operator is frozen, so its success probabilities, corrections and
    # JSON cannot change under it
    op = build_cz(2, 1)
    assert not op.diagonal.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        op.diagonal[0] = 0


def test_postselected_control_level_must_be_a_level():
    # an out-of-range k read the CZ as corrected to the identity
    with pytest.raises(ValueError, match="control level"):
        PostSelectedOperator(dim=2, control_level=5, diagonal=build_cz(2, 1).diagonal)


def test_postselected_diagonal_must_match_the_dimension():
    with pytest.raises(ValueError, match=r"shape \(9,\)"):
        PostSelectedOperator(dim=3, control_level=1, diagonal=build_cz(2, 1).diagonal)


@pytest.mark.parametrize("factor", [2, 2j])
def test_replaced_diagonal_reports_its_own_figures(factor):
    # every figure is read from the diagonal, so an operator with another
    # diagonal cannot carry the old one's success or corrections
    heralded = build_cz(3, 1)
    op = dataclasses.replace(heralded, diagonal=factor * heralded.diagonal)
    assert np.abs(op.success_probabilities - 4 / 9).max() < 1e-15
    ideal = ideal_cz_matrix(3, 1)
    assert np.abs(op.corrected_matrix() - 2 * ideal / 3).max() < 1e-15
    assert op.path_swap_levels == (0, 2)


def _dense_figures(op) -> dict:
    """The figures of merit as czgate computed them from the dense matrix."""
    D, k = op.dim, op.control_level
    moduli = np.abs(np.diagonal(op.matrix))
    chi = interaction_phase_signature(op.matrix)
    chi_ideal = interaction_phase_signature(ideal_cz_matrix(D, k))
    return {
        "modulus_range": [float(moduli.min()), float(moduli.max())],
        "success_probability_range": [
            float(op.success_probabilities.min()),
            float(op.success_probabilities.max()),
        ],
        "interaction_phase_deviation": float(np.abs(chi - chi_ideal).max()),
    }


@pytest.mark.parametrize(
    "D,k", [(D, k) for D in range(2, 9) for k in range(D)] + [(24, 0), (24, 5), (24, 23)]
)
def test_cz_figures_of_merit_bitwise_equal_to_dense(D, k):
    op = build_cz(D, k)
    figures = list(cz_figures_of_merit(op))
    # repr tells 0.0 from -0.0 and prints every bit of a float
    assert repr(figures) == repr(list(_dense_figures(op).items()))


def test_cz_figures_of_merit_give_the_ranges_before_the_phases_raise():
    op = build_cz(3, 1)
    uneven = dataclasses.replace(op, diagonal=op.diagonal * np.arange(1, 10))
    figures = cz_figures_of_merit(uneven)
    name, (low, high) = next(figures)
    assert name == "modulus_range"
    assert (low, high) == pytest.approx((1 / 3, 3.0))
    assert next(figures)[0] == "success_probability_range"
    with pytest.raises(ValueError, match="uniform"):
        next(figures)


@pytest.mark.parametrize("ideal", [False, True], ids=["heralded", "ideal"])
def test_interaction_phase_signature_memory_is_one_matrix(ideal):
    # the complex heralded matrix and the real ideal one are both read in
    # place: the largest temporary is the off-diagonal moduli, half of a
    # complex D^4 matrix
    D, k = 16, 7
    matrix = ideal_cz_matrix(D, k) if ideal else build_cz(D, k).matrix
    tracemalloc.start()
    try:
        chi = interaction_phase_signature(matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chi.shape == (D, D)
    assert peak < 16 * D**4


# ---------------------------------------------------------------------------
# splitter algebra and Hong-Ou-Mandel
# ---------------------------------------------------------------------------


def test_sdbs_mode_map_is_unitary_and_blockwise():
    spec = SDBSSpec(
        transmission=np.array([1.0, 0.6, 1 / math.sqrt(2)]),
        reflection=np.array([0.0, 0.8, 1 / math.sqrt(2)]),
    )
    U = sdbs_mode_map(spec)
    assert np.abs(U @ U.conj().T - np.eye(6)).max() < 1e-12
    # level d of path a talks only to level d of path b
    for d in range(3):
        row = np.abs(U[d]) > 0
        assert set(np.nonzero(row)[0]) <= {d, 3 + d}


def pair_state(u, v) -> np.ndarray:
    """Symmetric two-photon amplitudes psi: photon u on path a, v on path b."""
    D = len(u)
    psi = np.zeros((2 * D, 2 * D), dtype=complex)
    psi[:D, D:] = np.outer(u, v) / math.sqrt(2.0)
    return psi + psi.T


def coincidences(spec: SDBSSpec, psi: np.ndarray) -> tuple[np.ndarray, float]:
    """C = sqrt(2) (U psi U^T)[a, b] after the splitter, and |C|_F^2."""
    U = sdbs_mode_map(spec)
    C = math.sqrt(2.0) * (U @ psi @ U.T)[: spec.dim, spec.dim :]
    return C, float(np.linalg.norm(C) ** 2)


def balanced(D: int) -> SDBSSpec:
    """50/50 on every level: pairwise Hong-Ou-Mandel on the whole register."""
    amp = np.full(D, 1.0 / math.sqrt(2.0))
    return SDBSSpec(transmission=amp, reflection=amp)


def test_hom_dip_follows_t2_minus_r2():
    # same level in, coincidence amplitude t^2 - r^2; balanced -> exact dip
    for t in (1.0, 0.9, 1 / math.sqrt(2), 0.3):
        r = math.sqrt(1.0 - t * t)
        spec = SDBSSpec(transmission=np.array([t, t]), reflection=np.array([r, r]))
        C, success = coincidences(spec, pair_state(np.eye(2)[0], np.eye(2)[0]))
        expected = t * t - r * r
        assert abs(C[0, 0] - expected) < 1e-12
        assert abs(success - expected**2) < 1e-12


def test_distinct_levels_do_not_interfere():
    C, success = coincidences(balanced(3), pair_state(np.eye(3)[0], np.eye(3)[2]))
    # transmitted-transmitted lands at (0, 2), reflected-reflected at (2, 0)
    assert abs(C[0, 2] - 0.5) < 1e-12
    assert abs(C[2, 0] + 0.5) < 1e-12
    assert abs(success - 0.5) < 1e-12


def test_balanced_register_hom_on_plus_states():
    # identical single-photon states bunch completely on a uniform 50/50
    # register: same-level terms die by t^2 - r^2 = 0, and the (d, f) /
    # (f, d) cross terms cancel pairwise, so the coincidence rate is zero
    plus = np.full(2, 1.0 / math.sqrt(2.0))
    C, success = coincidences(balanced(2), pair_state(plus, plus))
    assert np.abs(C).max() < 1e-12
    assert abs(success) < 1e-12


def test_splitter_factories():
    c = control_splitter(3, 1)
    assert type(c.dim) is int and c.dim == 3
    assert abs(c.transmission[1] - 1 / math.sqrt(3)) < 1e-15
    assert c.transmission[0] == 0.0 and c.reflection[0] == 1.0
    f = filter_splitter(3, 1)
    assert f.transmission[1] == 1.0 and f.reflection[1] == 0.0
    assert abs(f.transmission[2] - 1 / math.sqrt(3)) < 1e-15
    with pytest.raises(ValueError, match="control level"):
        control_splitter(3, 3)
    with pytest.raises(ValueError, match="control level"):
        filter_splitter(3, -1)


def test_sdbs_spec_validation():
    with pytest.raises(ValueError, match=r"\|t\|\^2"):
        SDBSSpec(transmission=np.array([1.0, 1.0]), reflection=np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="real"):
        SDBSSpec(
            transmission=np.array([1j / math.sqrt(2)]),
            reflection=np.array([1.0 / math.sqrt(2)]),
        )
    for t, r in [
        (np.zeros(3), np.ones(2)),
        (np.zeros(0), np.zeros(0)),
        (np.zeros((2, 2)), np.ones((2, 2))),
        (0.0, 1.0),
    ]:
        with pytest.raises(ValueError, match="1-d vectors of one nonzero length"):
            SDBSSpec(transmission=t, reflection=r)
    with pytest.raises(ValueError, match="finite"):
        SDBSSpec(transmission=np.array([np.nan]), reflection=np.array([0.0]))


# ---------------------------------------------------------------------------
# heralded CZ figures of merit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("D", [2, 3, 4])
def test_cz_figures_all_control_levels(D):
    for k in range(D):
        op = build_cz(D, k)
        moduli = np.abs(np.diagonal(op.matrix))
        assert np.abs(moduli - 1.0 / 3.0).max() < 1e-12, (D, k)
        off = op.matrix - np.diag(np.diagonal(op.matrix))
        assert np.abs(off).max() < 1e-14
        assert np.abs(op.success_probabilities - 1.0 / 9.0).max() < 1e-12
        chi = interaction_phase_signature(op.matrix)
        ideal_chi = interaction_phase_signature(ideal_cz_matrix(D, k))
        assert np.abs(chi - ideal_chi).max() < 1e-9
        corrected = op.corrected_matrix()
        assert np.abs(corrected - ideal_cz_matrix(D, k) / 3.0).max() < 1e-12


def test_cz_declares_path_swap_on_reflected_levels():
    op = build_cz(4, 2)
    assert op.path_swap_levels == (0, 1, 3)
    assert op.control_level == 2


def test_cz_apply_is_linear_in_the_inputs():
    rng = np.random.default_rng(11)
    op = build_cz(3, 1)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    out, success = op.apply(u, v)
    manual = np.zeros(9, dtype=complex)
    for d in range(3):
        for f in range(3):
            manual += u[d] * v[f] * op.matrix[:, d * 3 + f]
    assert np.abs(out.reshape(-1) - manual).max() < 1e-12
    assert abs(success - 1.0 / 9.0) < 1e-12


@pytest.mark.parametrize(
    "shape_a,shape_b",
    [((1,), (1,)), ((4,), (1,)), ((3, 1), (2,))],
    ids=["both-short", "kron-sized", "column"],
)
def test_cz_apply_refuses_states_of_the_wrong_shape(shape_a, shape_b):
    # the first two used to broadcast to an output with a success
    # probability, the third to fail with NumPy's broadcasting message
    op = build_cz(2, 1)
    message = rf"\(2,\), got {re.escape(str(shape_a))} and {re.escape(str(shape_b))}"
    with pytest.raises(ValueError, match=message):
        op.apply(np.ones(shape_a), np.ones(shape_b))


@pytest.mark.parametrize("D", range(2, 13))
def test_corrected_matrix_is_the_ideal_cz_over_three(D):
    # no phase fitted: the declared corrections alone reach the target,
    # and the JSON payload declares the same corrections
    for k in range(D):
        op = build_cz(D, k)
        assert np.abs(op.corrected_matrix() - ideal_cz_matrix(D, k) / 3.0).max() <= 1e-15
        alpha, beta, gamma = op.corrections()
        assert postselected_to_json(op)["local_corrections"] == {
            "path_a_phases": alpha.tolist(),
            "path_b_phases": beta.tolist(),
            "global_phase": gamma,
        }


def test_cz_entangles_plus_plus_input():
    op = build_cz(2, 1)
    plus = np.full(2, 1.0 / math.sqrt(2.0))
    out, success = op.apply(plus, plus)
    assert abs(success - 1.0 / 9.0) < 1e-12
    s = schmidt_coefficients(out)
    assert np.abs(s - 1.0 / math.sqrt(2.0)).max() < 1e-9


def test_schmidt_of_product_and_bell():
    product = np.outer(np.array([1.0, 0.0]), np.array([0.6, 0.8]))
    s = schmidt_coefficients(product)
    assert np.abs(s - np.array([1.0, 0.0])).max() < 1e-12
    bell = np.eye(2) / math.sqrt(2.0)
    s = schmidt_coefficients(bell)
    assert np.abs(s - 1.0 / math.sqrt(2.0)).max() < 1e-12
    with pytest.raises(ValueError, match="square"):
        schmidt_coefficients(np.ones((2, 3)))
    with pytest.raises(ValueError, match="zero"):
        schmidt_coefficients(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# interaction phase signature
# ---------------------------------------------------------------------------


def test_signature_of_ideal_cz():
    chi = interaction_phase_signature(ideal_cz_matrix(3, 1))
    expected = np.zeros((3, 3))
    expected[1, 1] = np.pi
    assert np.abs(chi - expected).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
    beta=st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
    gamma=st.floats(-10, 10, allow_nan=False),
)
def test_signature_invariant_under_local_phases(alpha, beta, gamma):
    base = ideal_cz_matrix(3, 2)
    chi_base = interaction_phase_signature(base)
    local = np.exp(
        1j * (np.add.outer(np.asarray(alpha), np.asarray(beta)) + gamma)
    ).reshape(-1)
    dressed = np.diag(local) @ base
    chi = interaction_phase_signature(dressed)
    dev = np.angle(np.exp(1j * (chi - chi_base)))
    assert np.abs(dev).max() < 1e-9


def test_signature_rejects_bad_matrices():
    with pytest.raises(ValueError, match="diagonal"):
        interaction_phase_signature(np.ones((4, 4)))
    with pytest.raises(ValueError, match="uniform"):
        interaction_phase_signature(np.diag([1.0, 2.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match=r"D\^2"):
        interaction_phase_signature(np.eye(5))
    with pytest.raises(ValueError, match="nonzero|uniform"):
        interaction_phase_signature(np.diag([0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        interaction_phase_signature(np.diag([np.nan, 1.0, 1.0, 1.0]))


def test_corrections_are_wrapped_and_consistent():
    op = build_cz(3, 0)
    alpha, beta, gamma = op.corrections()
    for arr in (alpha, beta):
        assert np.all(arr <= np.pi) and np.all(arr > -np.pi)
    assert -np.pi < gamma <= np.pi
    # corrections are single-path: corrected matrix has the same signature
    chi_raw = interaction_phase_signature(op.matrix)
    chi_corr = interaction_phase_signature(op.corrected_matrix())
    dev = np.angle(np.exp(1j * (chi_raw - chi_corr)))
    assert np.abs(dev).max() < 1e-9
