"""Grating mode coefficients against quadrature, orthogonality against
dense-grid integration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbotsim import (
    GratingSpec,
    ModeField,
    basis_wavefunction,
    grating_coefficients,
    mean_orthogonality,
)


def quadrature_coefficient(a: float, m: int, panels: int = 64, order: int = 10) -> complex:
    """Independent oracle: composite Gauss-Legendre integration of
    (1/period) * integral_0^a exp(-2i pi m x) dx."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0 + 0.0j
    edges = np.linspace(0.0, a, panels + 1)
    for left, right in zip(edges[:-1], edges[1:]):
        half = (right - left) / 2.0
        x = left + half * (nodes + 1.0)
        total += half * (weights * np.exp(-2j * np.pi * m * x)).sum()
    return total


def grid_orthogonality(D: int, a: float, n: int = 600_000) -> float:
    """Independent oracle: midpoint integration of normalized indicator combs."""
    x = (np.arange(n) + 0.5) / n
    slits = [((x - d / D) % 1.0) < a for d in range(D)]
    total = 0.0
    for i in range(D):
        for j in range(i):
            overlap = (slits[i] & slits[j]).mean() / a
            total += overlap**2
    return 2.0 * total / (D * (D - 1))


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.75, 1.0])
def test_coefficients_match_quadrature(a):
    spec = GratingSpec(slit_width=a, mode_truncation=8)
    field = grating_coefficients(spec)
    for index, m in enumerate(field.modes):
        expected = quadrature_coefficient(a, int(m))
        assert abs(field.coefficients[index] - expected) < 1e-13, (a, m)


def test_zeroth_coefficient_is_slit_width():
    for a in (0.2, 0.5, 0.9):
        field = grating_coefficients(GratingSpec(slit_width=a, mode_truncation=4))
        assert abs(field.coefficients[4] - a) < 1e-15


def test_half_width_first_mode_frozen_value():
    # quadrature oracle gives -i/pi at a = 1/2, m = 1
    field = grating_coefficients(GratingSpec(slit_width=0.5, mode_truncation=2))
    value = field.coefficients[list(field.modes).index(1)]
    assert abs(value - (-1j / np.pi)) < 1e-15


def test_fully_open_grating_is_flat():
    field = grating_coefficients(GratingSpec(slit_width=1.0, mode_truncation=32))
    m0 = list(field.modes).index(0)
    assert abs(field.coefficients[m0] - 1.0) < 1e-15
    others = np.delete(field.coefficients, m0)
    assert np.abs(others).max() < 1e-15


def test_parseval_norm_against_grid():
    spec = GratingSpec(slit_width=0.3, mode_truncation=400)
    field = grating_coefficients(spec)
    x = (np.arange(200_000) + 0.5) / 200_000
    values = field.evaluate(x)
    grid_norm_sq = float(np.mean(np.abs(values) ** 2))
    assert abs(field.norm() ** 2 - grid_norm_sq) < 1e-6


def test_evaluate_shape_and_blocks_match_dense_sum():
    field = grating_coefficients(GratingSpec(slit_width=0.3, mode_truncation=300))
    x = np.linspace(-2.0, 3.0, 3 * 1000).reshape(3, 1000)
    dense = np.exp(2j * np.pi * np.outer(x, field.modes)) @ field.coefficients
    values = field.evaluate(x)
    # 601 modes give blocks of 436 positions, so the 3000 span several
    assert values.shape == (3000,)
    assert np.abs(values - dense).max() < 1e-12
    assert field.evaluate(0.25).shape == (1,)
    assert field.evaluate(np.array([])).shape == (0,)


@pytest.mark.parametrize("M", [1, 4, 16, 128])
def test_evaluate_is_bitwise_the_dense_sum(M):
    # evaluate computes exp for modes 0..M only and conjugates them for
    # -M..-1; the bits must equal the full dense product
    field = grating_coefficients(GratingSpec(slit_width=0.3, mode_truncation=M))
    n = 4096
    grids = [
        np.random.default_rng(M).uniform(-40.0, 40.0, 3000),
        np.array([0.0, -0.0, 0.5, -0.5]),
        (np.arange(n) - n // 2) * (16.0 * 20.5 / n),
    ]
    for x in grids:
        dense = np.exp(2j * np.pi * np.outer(x, field.modes)) @ field.coefficients
        values = field.evaluate(x)
        assert np.array_equal(values.view(np.uint64), dense.view(np.uint64))


def test_evaluate_memory_is_output_sized():
    field = grating_coefficients(GratingSpec(slit_width=0.3, mode_truncation=128))
    x = np.linspace(0.0, 1.0, 1 << 16, endpoint=False)
    tracemalloc.start()
    try:
        values = field.evaluate(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == x.shape
    # the dense 2^16 x 257 phase matrix alone is 270 MB
    assert peak < 32 * 2**20


def test_translation_covariance_on_grid():
    spec = GratingSpec(slit_width=0.2, mode_truncation=64)
    x = np.linspace(0.0, 1.0, 701, endpoint=False)
    base = basis_wavefunction(spec, 4, 0)
    for d in range(4):
        shifted = basis_wavefunction(spec, 4, d)
        assert np.abs(shifted.evaluate(x + d / 4) - base.evaluate(x)).max() < 1e-12


def test_translation_covariance_exact_in_mode_space():
    spec = GratingSpec(slit_width=0.2, mode_truncation=16)
    base = grating_coefficients(spec)
    for D, d in [(2, 1), (3, 2), (5, 3)]:
        direct = basis_wavefunction(spec, D, d).coefficients
        manual = base.coefficients * np.exp(-2j * np.pi * base.modes * (d / D))
        assert np.abs(direct - manual).max() < 1e-15


def test_basis_level_validation():
    spec = GratingSpec()
    with pytest.raises(ValueError):
        basis_wavefunction(spec, 3, 3)
    with pytest.raises(ValueError):
        basis_wavefunction(spec, 0, 0)


def test_mode_field_validation_and_inner():
    spec = GratingSpec(slit_width=0.25, mode_truncation=32)
    f = grating_coefficients(spec)
    assert abs(f.inner(f) - f.norm() ** 2) < 1e-14
    with pytest.raises(ValueError):
        f.inner(grating_coefficients(GratingSpec(slit_width=0.25, mode_truncation=16)))


def test_spec_validation():
    with pytest.raises(ValueError):
        GratingSpec(slit_width=0.0)
    with pytest.raises(ValueError):
        GratingSpec(slit_width=1.2)
    with pytest.raises(ValueError):
        GratingSpec(mode_truncation=0)


@pytest.mark.parametrize("bad", [2.5, float("nan"), True])
def test_mode_counts_must_be_integers(bad):
    with pytest.raises(ValueError, match="must be an integer"):
        GratingSpec(mode_truncation=bad)
    with pytest.raises(ValueError, match="must be an integer"):
        ModeField(np.zeros(6), bad)
    assert GratingSpec(mode_truncation=np.int64(3)).mode_truncation == 3
    assert ModeField(np.zeros(7), np.int64(3)).truncation == 3


@pytest.mark.parametrize("D", [2, 3, 4, 5])
@pytest.mark.parametrize("a", [0.15, 1.0 / 3.0, 0.5, 0.6, 0.75, 0.9])
def test_mean_orthogonality_matches_grid_oracle(D, a):
    assert abs(mean_orthogonality(D, a) - grid_orthogonality(D, a)) < 1e-5


def test_mean_orthogonality_disjoint_is_exact_zero():
    assert mean_orthogonality(2, 0.5) == 0.0
    assert mean_orthogonality(3, 1.0 / 3.0) == 0.0
    assert mean_orthogonality(5, 0.19) == 0.0


def test_mean_orthogonality_full_width_is_exact_one():
    for D in (2, 3, 4, 7):
        assert mean_orthogonality(D, 1.0) == 1.0


def test_mean_orthogonality_frozen_value_d2():
    """Oracle-computed: at D = 2, a = 3/4 the periodic slit pair overlaps on
    two wrapped segments of length 1/4 each, so <0|1> = (1/2)/(3/4) = 2/3
    and the mean squared overlap is 4/9.  grid_orthogonality confirms."""
    value = mean_orthogonality(2, 0.75)
    assert abs(value - 4.0 / 9.0) < 1e-12
    assert abs(grid_orthogonality(2, 0.75) - 4.0 / 9.0) < 1e-5


@given(
    D=st.integers(min_value=2, max_value=8),
    a1=st.floats(min_value=0.01, max_value=1.0),
    a2=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_mean_orthogonality_monotone_and_bounded(D, a1, a2):
    lo, hi = sorted((a1, a2))
    v_lo = mean_orthogonality(D, lo)
    v_hi = mean_orthogonality(D, hi)
    assert 0.0 <= v_lo <= 1.0 + 1e-12
    assert v_lo <= v_hi + 1e-12


def test_mean_orthogonality_validation():
    with pytest.raises(ValueError):
        mean_orthogonality(1, 0.5)
    with pytest.raises(ValueError):
        mean_orthogonality(3, 0.0)
    with pytest.raises(ValueError):
        mean_orthogonality(3, 1.5)
