"""Finite-grating revival fidelity under the exact propagator.

Oracle: the displaced-Gaussian-overlap model.  After m carpet periods
diffraction order k has walked d = 2*m*k grating periods sideways, so
the overlap with the unpropagated field is the power-weighted sum of
Gaussian overlaps exp(-d^2 / (4 sigma^2)).  This closed form is computed
without any FFT and pins the simulated values to a few parts in 1e4.
"""

import re
import tracemalloc

import numpy as np
import pytest

from talbotsim import (
    GratingSpec,
    fidelity_sweep,
    grating_coefficients,
    synthesize_gaussian_comb,
)

# frozen first-run values from the default sweep (regression pins)
BASELINE = {
    (5.0, 1): 0.938823515861041,
    (5.0, 5): 0.4664196533068802,
    (5.0, 10): 0.28534091451211513,
    (20.0, 1): 0.9957570035904542,
    (20.0, 5): 0.9095574994843713,
    (20.0, 10): 0.7451453205710233,
    (100.0, 1): 0.999822142608225,
    (100.0, 5): 0.9955874449781961,
    (100.0, 10): 0.9827598765011532,
}


def walkoff_model(sigma: float, m: int, truncation: int = 4, slit_width: float = 0.5):
    spec = GratingSpec(slit_width=slit_width, mode_truncation=truncation)
    powers = np.abs(grating_coefficients(spec).coefficients) ** 2
    powers /= powers.sum()
    k = np.arange(-truncation, truncation + 1)
    return float(np.sum(powers * np.exp(-((2 * m * k) ** 2) / (4.0 * sigma**2))) ** 2)


@pytest.fixture(scope="module")
def default_rows():
    return fidelity_sweep(include_periodic_control=True)


def test_rows_match_walkoff_model(default_rows):
    checked = 0
    for row in default_rows:
        if row.periodic_control:
            continue
        model = walkoff_model(row.n_slits, row.talbot_periods)
        assert abs(row.fidelity - model) < 2e-3, (row.n_slits, row.talbot_periods)
        checked += 1
    assert checked == 30


def test_frozen_baselines(default_rows):
    table = {
        (row.n_slits, row.talbot_periods): row.fidelity
        for row in default_rows
        if not row.periodic_control
    }
    for key, expected in BASELINE.items():
        assert abs(table[key] - expected) < 1e-9, key


def test_monotone_decay_in_periods(default_rows):
    per_n: dict = {}
    for row in default_rows:
        if not row.periodic_control:
            per_n.setdefault(row.n_slits, []).append((row.talbot_periods, row.fidelity))
    assert set(per_n) == {5.0, 20.0, 100.0}
    for n, pairs in per_n.items():
        pairs.sort()
        fidelities = [f for _, f in pairs]
        assert all(a > b + 1e-6 for a, b in zip(fidelities, fidelities[1:])), n


def test_monotone_gain_in_envelope_width(default_rows):
    per_m: dict = {}
    for row in default_rows:
        if not row.periodic_control:
            per_m.setdefault(row.talbot_periods, {})[row.n_slits] = row.fidelity
    for m, by_n in per_m.items():
        assert by_n[5.0] + 1e-6 < by_n[20.0] < by_n[100.0], m


def test_wide_envelope_survives_ten_periods(default_rows):
    table = {
        (row.n_slits, row.talbot_periods): row.fidelity
        for row in default_rows
        if not row.periodic_control
    }
    assert table[(100.0, 10)] > 0.9


def test_periodic_control_rows_exact(default_rows):
    controls = [row for row in default_rows if row.periodic_control]
    assert len(controls) == 10
    for row in controls:
        assert row.n_slits == float("inf")
        assert row.fidelity == 1.0
        assert row.dropped_norm_fraction == 0.0
        assert row.aliasing_risk is False


def test_defaults_are_clean(default_rows):
    for row in default_rows:
        assert row.dropped_norm_fraction < 1e-12
        assert row.aliasing_risk is False


def test_row_ordering(default_rows):
    simulated = [row for row in default_rows if not row.periodic_control]
    keys = [(row.n_slits, row.talbot_periods) for row in simulated]
    assert keys == sorted(keys)
    assert [row.talbot_periods for row in default_rows if row.periodic_control] == list(
        range(1, 11)
    )


SPEC = GratingSpec(slit_width=0.5, mode_truncation=4)


def test_synthesize_gaussian_comb_properties():
    field = synthesize_gaussian_comb(SPEC, 5.0, 0.01, n_x=2**12)
    assert abs(field.norm() - 1.0) < 1e-12
    assert field.extent == 16.0 * 5.0
    # envelope center dominates edges
    center = np.abs(field.amplitudes[len(field.amplitudes) // 2])
    edge = np.abs(field.amplitudes[0])
    assert center > 1e3 * edge


def test_synthesize_refuses_bad_sigma():
    for bad in (0.0, -5.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            synthesize_gaussian_comb(SPEC, bad, 0.01)


@pytest.mark.parametrize("sigma", [1e300, 1e-300])
def test_synthesize_refuses_sigma_whose_square_leaves_the_float_range(sigma):
    # 1e300 overflowed at sigma**2 with an OverflowError; 1e-300 squared to
    # 0 and divided the envelope by zero into a NaN norm
    with pytest.raises(ValueError, match=re.escape(f"sigma {sigma} is out of range")):
        synthesize_gaussian_comb(SPEC, sigma, 0.01, n_x=2**10)


def test_synthesize_refuses_bad_sample_count():
    # n_x = 0 divided by zero before SampledField could check it
    for bad in (0, -4, 3, 1000):
        with pytest.raises(ValueError, match=f"n_x must be a power of two >= 2, got {bad}$"):
            synthesize_gaussian_comb(SPEC, 5.0, 0.01, n_x=bad)


def test_synthesize_refuses_tight_extent():
    for bad in (4.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="extent_factor"):
            synthesize_gaussian_comb(SPEC, 5.0, 0.01, extent_factor=bad)


def test_revival_fidelity_drops_with_distance():
    first, fourth = fidelity_sweep(n_slits=(5.0,), m_list=(1, 4), n_x=2**13)
    assert 0.0 < fourth.fidelity < first.fidelity < 1.0
    assert first.dropped_norm_fraction < 1e-12


def test_custom_sweep_shapes():
    rows = fidelity_sweep(n_slits=(8.0,), m_list=(1, 2), n_x=2**12)
    assert len(rows) == 2
    assert {row.talbot_periods for row in rows} == {1, 2}
    assert all(row.n_slits == 8.0 for row in rows)
    assert rows[0].fidelity > rows[1].fidelity


def test_sweep_reads_each_iterable_once():
    rows = fidelity_sweep(
        n_slits=iter((8.0, 12.0)),
        m_list=iter((1, 2)),
        n_x=2**12,
        include_periodic_control=True,
    )
    keys = [(row.n_slits, row.talbot_periods) for row in rows]
    assert keys == [(8.0, 1), (8.0, 2), (12.0, 1), (12.0, 2), (np.inf, 1), (np.inf, 2)]


def test_sweep_rows_equal_single_revivals_bitwise():
    rows = fidelity_sweep(n_slits=(8.0,), m_list=(1, 3, 2), n_x=2**12)
    assert [row.talbot_periods for row in rows] == [1, 3, 2]
    for row in rows:
        [single] = fidelity_sweep(n_slits=(8.0,), m_list=(row.talbot_periods,), n_x=2**12)
        assert row == single


def test_sweep_memory_stays_within_four_and_a_half_fields():
    n_x = 2**17
    tracemalloc.start()
    try:
        rows = fidelity_sweep(
            (20.5, 50.1, 80.3),
            range(1, 21),
            mode_truncation=16,
            n_x=n_x,
            include_periodic_control=True,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 80
    # 4.2 fields of n_x complex samples, reached while a width's comb is
    # synthesized; keeping the previous width's spectrum and step buffer
    # alive into the next width crosses the bound
    assert peak <= 4.5 * n_x * 16
