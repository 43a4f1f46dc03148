"""Paraxial propagation, replica decomposition, crosscheck, angular spectrum."""

import cmath
import tracemalloc
from fractions import Fraction
from math import gcd

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talbotsim import (
    CrosscheckResult,
    GratingSpec,
    ModeField,
    OpticalProgram,
    PhaseMask,
    Propagate,
    SampledField,
    angular_spectrum,
    basis_wavefunction,
    compile_program,
    gate_crosscheck,
    gauss_coefficients,
    grating_coefficients,
    hadamard_program,
    prepare_bloch_state,
    propagate_paraxial,
    replica_decompose,
    synthesize_gaussian_comb,
    talbot_cycle_length,
    talbot_unitary,
)
from talbotsim import grating
from talbotsim.propagation import (
    _MAX_EXACT_DENOMINATOR,
    _paraxial_phases,
    _project,
    _slit_basis,
    _walk,
)

COPRIME = [(q, r) for r in range(1, 17) for q in range(1, r + 1) if gcd(q, r) == 1]


def make_field(a: float = 1.0 / 17.0, M: int = 40) -> ModeField:
    return grating_coefficients(GratingSpec(slit_width=a, mode_truncation=M))


def test_paraxial_preserves_norm_and_period():
    f = make_field()
    g = propagate_paraxial(f, 0.37)
    assert abs(g.norm() - f.norm()) < 1e-14
    h = propagate_paraxial(f, 1.37)
    assert np.abs(g.coefficients - h.coefficients).max() < 1e-12


def test_paraxial_exact_revival_with_fractions():
    f = make_field()
    revived = propagate_paraxial(f, Fraction(1))
    assert np.array_equal(revived.coefficients, f.coefficients)
    also = propagate_paraxial(f, Fraction(5, 1))
    assert np.array_equal(also.coefficients, f.coefficients)
    # float path reduces 1.0 mod 1.0 exactly too
    float_revived = propagate_paraxial(f, 1.0)
    assert np.array_equal(float_revived.coefficients, f.coefficients)


def test_paraxial_half_period_is_half_shift():
    f = make_field()
    half = propagate_paraxial(f, Fraction(1, 2))
    # the field shifted by half a period: mode m times exp(-i pi m)
    shifted = f.coefficients * (-1.0) ** (f.modes % 2)
    assert np.abs(half.coefficients - shifted).max() < 1e-12


def test_paraxial_mode_phase_against_scalar_oracle():
    f = make_field(M=12)
    zeta = Fraction(3, 7)
    g = propagate_paraxial(f, zeta)
    for index, m in enumerate(f.modes):
        phase = cmath.exp(-2j * cmath.pi * (3 * int(m) ** 2 % 7) / 7)
        assert abs(g.coefficients[index] - f.coefficients[index] * phase) < 1e-14


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(1, _MAX_EXACT_DENOMINATOR),
    q=st.integers(0, _MAX_EXACT_DENOMINATOR),
    modes=st.lists(st.integers(-300_000, 300_000), min_size=1, max_size=32),
)
@example(r=999_999_937, q=999_999_936, modes=[200_000, -199_999, 7])
def test_exact_phases_match_python_int_arithmetic(r, q, modes):
    zeta = Fraction(q, r)
    r, q = zeta.denominator, zeta.numerator % zeta.denominator
    exponent = np.array([(q * m * m) % r for m in modes])
    expected = np.exp(-2j * np.pi * exponent / r)
    assert np.array_equal(_paraxial_phases(np.array(modes), zeta), expected)


def test_exact_paraxial_has_no_int64_wrap_at_large_modes():
    # q * m^2 reaches 4e19 here, past int64; the phases must still be exact
    M, r = 200_000, 999_999_937
    field = ModeField(np.ones(2 * M + 1))
    got = propagate_paraxial(field, Fraction(r - 1, r)).coefficients
    exponent = np.array([((r - 1) * m * m) % r for m in range(-M, M + 1)])
    assert np.array_equal(got, np.exp(-2j * np.pi * exponent / r))


@pytest.mark.parametrize(
    "zeta,M",
    [
        pytest.param(Fraction(10**20 + 1, 10**10 + 1), 64, id="zeta0"),
        pytest.param(Fraction(41152263004115, 1000000007), 64, id="zeta1"),
        pytest.param(Fraction(41152263004115, 1000000007), 65_536, id="zeta1-M65536"),
    ],
)
def test_fraction_past_the_exact_bound_is_reduced_before_it_becomes_a_float(zeta, M):
    # converted unreduced, the M = 64 cases lost 5.1e-6 and 2.9e-9 of phase;
    # reduced mod 1 but multiplied by m^2 in float, M = 65,536 lost 8.5e-7
    got = propagate_paraxial(ModeField(np.ones(2 * M + 1)), zeta).coefficients
    r = zeta.denominator
    index = np.random.default_rng(0).choice(2 * M + 1, min(2 * M + 1, 200), replace=False)
    with mpmath.workdps(40):
        reference = [
            complex(mpmath.expjpi(-2 * mpmath.mpf((i - M) ** 2 * zeta.numerator % r) / r))
            for i in index.tolist()
        ]
    assert np.abs(got[index] - reference).max() < 1e-12


@pytest.mark.parametrize("q,r", COPRIME)
def test_replica_matches_gauss_for_disjoint_slits(q, r):
    f = make_field(a=1.0 / 17.0, M=40)
    dec = replica_decompose(f, Fraction(q, r), slit_width=1.0 / 17.0)
    assert dec.residual < 1e-9
    assert dec.orthogonal is True
    expected = np.asarray(gauss_coefficients(q, r))
    assert np.abs(dec.coefficients - expected).max() < 1e-9, (q, r)


@pytest.mark.parametrize("q", [1, 3])
def test_replica_translates_stay_exact_at_large_denominators(q):
    # the translates take exp(-2i pi m j / r) from the residue m j mod r;
    # float shifts j / r left a residual of 2.0e-13 here
    field = make_field(a=0.002, M=8192)
    dec = replica_decompose(field, Fraction(q, 257), slit_width=0.002)
    assert dec.residual <= 1e-14


def test_replica_integer_distance_is_trivial():
    f = make_field()
    dec = replica_decompose(f, Fraction(2, 1), slit_width=1.0 / 17.0)
    assert len(dec.coefficients) == 1
    assert abs(dec.coefficients[0] - 1.0) < 1e-12
    assert dec.residual < 1e-12


def test_replica_half_period_weights():
    f = make_field()
    dec = replica_decompose(f, Fraction(1, 2), slit_width=1.0 / 17.0)
    assert np.abs(dec.coefficients - np.array([0.0, 1.0])).max() < 1e-9


def test_replica_overlapping_flagged_but_still_resolves():
    # slit wider than the copy spacing: geometrically overlapping, yet the
    # translate family stays independent and the identity still holds
    f = make_field(a=0.4, M=40)
    dec = replica_decompose(f, Fraction(1, 4), slit_width=0.4)
    assert dec.orthogonal is False
    assert dec.residual < 1e-9
    expected = np.asarray(gauss_coefficients(1, 4))
    assert np.abs(dec.coefficients - expected).max() < 1e-6
    assert dec.condition_number > 1.0


def test_replica_flag_unknown_without_geometry():
    f = make_field()
    dec = replica_decompose(f, Fraction(1, 3))
    assert dec.orthogonal is None


def test_replica_rejects_floats_and_tiny_truncation():
    f = make_field(M=3)
    with pytest.raises(TypeError):
        replica_decompose(f, 0.25)
    with pytest.raises(ValueError, match="truncation"):
        replica_decompose(f, Fraction(1, 9))


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_gate_crosscheck_default(D):
    result = gate_crosscheck(D)
    assert result.certified
    assert result.max_deviation < 1e-6
    assert result.max_projection_residual < 1e-6


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_gate_crosscheck_takes_one_phase_vector(monkeypatch, D):
    """Every slit column propagates by the same zeta = q/r, so one vector of
    paraxial phases serves them all, not one per column."""
    calls = []

    def counted(m, zeta):
        calls.append(zeta)
        return _paraxial_phases(m, zeta)

    monkeypatch.setattr("talbotsim.propagation._paraxial_phases", counted)
    assert gate_crosscheck(D, 3).certified
    assert calls == [Fraction(3, talbot_cycle_length(D))]


def test_gate_crosscheck_takes_numpy_integers():
    result = gate_crosscheck(np.int64(3), np.int64(2))
    assert result.certified
    assert type(result.dim) is int and type(result.steps) is int
    with pytest.raises(ValueError, match="dimension must be an integer"):
        gate_crosscheck(3.0)


@pytest.mark.parametrize("width", [0.3, 0.45, 1.0 / 6.0, 0.9])
def test_gate_crosscheck_slit_widths(width):
    """Narrow, wide and overlapping slits: no phase is fitted, yet each
    reconstruction matches the gate entry by entry to round-off."""
    result = gate_crosscheck(3, spec=GratingSpec(slit_width=width, mode_truncation=256))
    assert result.certified
    assert result.max_deviation < 1e-12


def test_gate_crosscheck_sees_a_global_phase(monkeypatch):
    """A gate off by the constant i must fail: the check fits no phase."""
    def rotated(D, q=1):
        return 1j * talbot_unitary(D, q)

    monkeypatch.setattr("talbotsim.propagation.talbot_unitary", rotated)
    result = gate_crosscheck(3)
    assert result.certified is False
    assert result.max_deviation > 0.5


@pytest.mark.parametrize(
    "deviation,residual,certified",
    [(1e-6, 1e-4, True), (2e-6, 0.0, False), (0.0, 2e-4, False), (float("nan"), 0.0, False)],
)
def test_crosscheck_certified_follows_its_two_figures(deviation, residual, certified):
    assert CrosscheckResult(3, 1, deviation, residual).certified is certified


@pytest.mark.parametrize(
    "D,spec,rank",
    [
        (8, GratingSpec(slit_width=1.0 / 16.0, mode_truncation=3), 7),
        (4, GratingSpec(slit_width=0.5, mode_truncation=64), 3),
        (6, GratingSpec(slit_width=0.5, mode_truncation=64), 4),
    ],
    ids=["7-modes-8-levels", "tiling-D4", "tiling-D6"],
)
def test_gate_crosscheck_refuses_a_rank_deficient_slit_basis(D, spec, rank):
    """Fewer modes than levels, or slits of ratio 1/2 that tile the period
    at even D, leave the slit states linearly dependent; the projection
    would fit to round-off and certify nothing."""
    with pytest.raises(ValueError, match=f"the {D} slit states .* linearly dependent "
                                         f"\\(rank {rank}\\)"):
        gate_crosscheck(D, 1, spec)


@pytest.mark.parametrize("M", [8191, 8192])
def test_slit_basis_is_one_spectrum_times_its_roots(monkeypatch, M):
    """One slit spectrum serves every level, and each column is its product
    with the level's roots, coefficients first.  From 2M + 1 > 16384 a
    `coefficients * <temporary>` would round otherwise: NumPy's temporary
    elision computes it in place with the operands swapped."""
    D = 3
    spec = GratingSpec(slit_width=0.1, mode_truncation=M)
    calls = []

    def counted(spec):
        calls.append(spec)
        return grating_coefficients(spec)

    monkeypatch.setattr(grating, "grating_coefficients", counted)
    basis = _slit_basis(spec, D)
    assert len(calls) == 1
    slit = grating_coefficients(spec)
    for d in range(D):
        roots = np.exp(-2j * np.pi * (slit.modes * d % D) / D)
        named = slit.coefficients * roots
        assert np.array_equal(basis[:, d], named), d
        assert np.array_equal(basis_wavefunction(spec, D, d).coefficients, named), d


def test_gate_crosscheck_multiple_steps():
    for D, q in [(2, 3), (3, 2), (4, 5)]:
        result = gate_crosscheck(D, q=q)
        assert result.certified, (D, q)
        assert result.steps == q
    # the walk propagates by q mod r (a Propagate distance cannot be
    # negative); a q outside [0, r) must give the same bits
    for D in (2, 3, 4, 5):
        r = talbot_cycle_length(D)
        for q in (-1, r, 2 * r + 1):
            result, reduced = gate_crosscheck(D, q), gate_crosscheck(D, q % r)
            assert result.steps == q
            assert result.max_deviation == reduced.max_deviation, (D, q)
            assert result.max_projection_residual == reduced.max_projection_residual, (D, q)


def _random_program(D: int, seed: int) -> OpticalProgram:
    rng = np.random.default_rng(seed)
    r = talbot_cycle_length(D)
    steps = []
    for _ in range(4):
        steps.append(Propagate(Fraction(int(rng.integers(1, r)), r)))
        steps.append(PhaseMask(tuple(rng.uniform(-np.pi, np.pi, D))))
    steps.append(Propagate(Fraction(int(rng.integers(1, r)), r)))
    return OpticalProgram(D, tuple(steps))


@pytest.mark.parametrize(
    "program,spec",
    [
        (hadamard_program(), GratingSpec(slit_width=0.25, mode_truncation=64)),
        (prepare_bloch_state(0.8, 1.1)[0], GratingSpec(slit_width=0.25, mode_truncation=64)),
        *[
            (_random_program(D, seed=D), GratingSpec(slit_width=1.0 / (2 * D), mode_truncation=256))
            for D in (3, 4, 5)
        ],
    ],
    ids=["hadamard", "bloch", "random-D3", "random-D4", "random-D5"],
)
def test_walk_reproduces_the_compiled_program(program, spec):
    """Every slit column walked through the program's masks matches
    compile_program entry by entry, global phase included (none is fitted),
    and every mask and end projection lands on the slit states."""
    basis = _slit_basis(spec, program.dim)
    compiled = compile_program(program)
    planes = [z for z, _ in program.masks()]
    for d, column in enumerate(basis.T):
        segments, residuals = _walk(basis, program, ModeField(column))
        z0, field = segments[-1]
        arrived = propagate_paraxial(field, program.total_distance - z0)
        weights, residual, _ = _project(basis, arrived.coefficients)
        assert [z for z, _ in segments[1:]] == planes
        assert len(residuals) == len(planes)
        assert max(residuals) <= 1e-12 and residual <= 1e-12, d
        assert np.abs(weights - compiled[:, d]).max() <= 1e-12, d


def test_sampled_field_validation():
    with pytest.raises(ValueError, match="power of two"):
        SampledField(np.ones(100), extent=1.0)
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="extent must be positive and finite"):
            SampledField(np.ones(64), extent=bad)
    # a NaN or infinite norm would divide into NaN or all-zero samples
    with pytest.raises(ValueError, match="cannot normalize a field of norm nan"):
        SampledField(np.full(64, np.nan), extent=1.0).normalized()
    with pytest.raises(ValueError, match="cannot normalize a field of norm inf"):
        SampledField(np.r_[np.ones(63), np.inf], extent=1.0).normalized()
    field = SampledField(np.ones(64), extent=32.0)
    assert field.dx == 0.5
    assert abs(field.norm() - np.sqrt(64 * 0.5)) < 1e-12


def test_angular_spectrum_validates_the_wavelength():
    field = SampledField(np.ones(64), extent=1.0)
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="wavelength must be positive and finite"):
            angular_spectrum(field, bad)
    # (2 pi / wavelength)^2 overflowed in k**2, or k itself was infinite
    for tiny in (1e-300, 1e-320):
        with pytest.raises(ValueError, match=f"wavelength {tiny} is too small"):
            angular_spectrum(field, tiny)


def test_angular_spectrum_zero_distance_identity():
    # grid carries frequencies up to 8 cycles/unit; cutoff 1/wavelength = 4
    rng = np.random.default_rng(5)
    amplitudes = rng.normal(size=256) + 1j * rng.normal(size=256)
    field = SampledField(amplitudes, extent=16.0)
    report, propagate = angular_spectrum(field, 0.25)
    out = propagate(0.0)
    assert report.dropped_norm_fraction > 0.0
    assert report.evanescent_mode_count > 0
    kept = out.norm() ** 2 / field.norm() ** 2
    assert abs(kept + report.dropped_norm_fraction - 1.0) < 1e-9


def test_angular_spectrum_plane_wave_phase():
    n = 1024
    field = SampledField(np.ones(n), extent=64.0)
    report, propagate = angular_spectrum(field, 0.01)
    out = propagate(3.0)
    expected = cmath.exp(2j * cmath.pi / 0.01 * 3.0)
    assert np.abs(out.amplitudes - expected).max() < 1e-10
    assert report.dropped_norm_fraction == 0.0
    assert report.aliasing_risk is False
    # grid Nyquist (8 cycles/unit) sits far below the cutoff 1/wavelength,
    # so no representable mode is evanescent
    assert report.evanescent_mode_count == 0


def test_angular_spectrum_norm_conserved_when_band_limited():
    n = 4096
    extent = 64.0
    x = (np.arange(n) - n // 2) * (extent / n)
    field = SampledField(
        np.exp(-(x**2) / 8.0) * np.exp(2j * np.pi * 3 * x),
        extent=extent,
    )
    report, propagate = angular_spectrum(field, 0.05)
    out = propagate(7.5)
    assert report.dropped_norm_fraction < 1e-20
    assert abs(out.norm() - field.norm()) < 1e-10


def test_angular_spectrum_aliasing_flag():
    n = 512
    extent = 16.0
    x = (np.arange(n) - n // 2) * (extent / n)
    nyquist_frequency = n / (2 * extent)
    risky = np.exp(2j * np.pi * 0.97 * nyquist_frequency * x)
    field = SampledField(risky, extent=extent)
    report, _ = angular_spectrum(field, 1e-4)
    assert report.aliasing_risk is True
    smooth = SampledField(np.exp(-(x**2)), extent=extent)
    report_smooth, _ = angular_spectrum(smooth, 1e-4)
    assert report_smooth.aliasing_risk is False


def test_angular_spectrum_reports_grid_spacing_ratio():
    field = SampledField(np.ones(64), extent=64.0)
    report, _ = angular_spectrum(field, 0.5)
    # dx = 1.0, quarter wavelength = 0.125
    assert abs(report.grid_spacing_over_quarter_wavelength - 8.0) < 1e-12


def test_one_spectrum_serves_every_distance_bitwise():
    # the z-independent half runs once; calling it for several z in any
    # order must give the bytes of a fresh propagation at each z
    rng = np.random.default_rng(11)
    amplitudes = rng.normal(size=512) + 1j * rng.normal(size=512)
    field = SampledField(amplitudes, extent=32.0)
    report, propagate = angular_spectrum(field, 0.1)
    for z in (40.0, 0.0, 3.5, 40.0):
        out = propagate(z)
        fresh_report, fresh = angular_spectrum(field, 0.1)
        assert out.amplitudes.tobytes() == fresh(z).amplitudes.tobytes()
        assert report == fresh_report


def test_consecutive_steps_each_match_a_fresh_propagation_bitwise():
    # every call reuses one buffer, which the previous inverse FFT filled:
    # each call must rewrite all of it, the evanescent gap included.  A
    # returned field is a read-only view, valid until the next call.
    field = _random_field(1024)
    report, propagate = angular_spectrum(field, 0.3)  # bins -53..53 propagate
    assert report.evanescent_mode_count == 917
    for first, second in ((3.5, 200.0), (200.0, 200.0)):
        out = propagate(first)
        kept = out.amplitudes.copy()
        assert not out.amplitudes.flags.writeable
        again = propagate(second)
        assert kept.tobytes() == angular_spectrum(field, 0.3)[1](first).amplitudes.tobytes()
        fresh = angular_spectrum(field, 0.3)[1](second)
        assert again.amplitudes.tobytes() == fresh.amplitudes.tobytes()


def test_normalizing_tiny_samples_scales_past_the_underflow():
    # each square underflows to 0, so the plain norm is 0 for a nonzero field
    field = SampledField(np.full(64, 1e-200), extent=1.0)
    assert field.norm() == 1e-200
    assert np.abs(field.normalized().amplitudes - 1.0).max() < 1e-15
    with pytest.raises(ValueError, match="cannot normalize the zero field"):
        SampledField(np.zeros(64), extent=1.0).normalized()



def test_normalizing_a_subnormal_norm_does_not_overflow():
    # complex division multiplies by 1 / norm, which is inf for these norms
    for tiny in (1e-310, 5e-324):
        field = SampledField(np.full(64, tiny), extent=1.0)
        assert field.norm() == tiny
        normalized = field.normalized()
        assert np.abs(normalized.amplitudes - 1.0).max() < 1e-15
        assert abs(normalized.norm() - 1.0) < 1e-15

def _dense_angular_spectrum(field: SampledField, wavelength: float, z: float) -> np.ndarray:
    """propagate(z) over all n bins, with the evanescent ones masked out."""
    n = len(field.amplitudes)
    spectrum = np.fft.fft(field.amplitudes)
    kx = 2.0 * np.pi * np.fft.fftfreq(n, d=field.dx)
    k = 2.0 * np.pi / wavelength
    keep = ~(np.abs(kx) > k)
    kz = np.zeros(n)
    kz[keep] = np.sqrt(np.maximum(k**2 - kx[keep] ** 2, 0.0))
    return np.fft.ifft(np.where(keep, np.exp(1j * z * kz) * spectrum, 0.0))


def _random_field(n: int) -> SampledField:
    rng = np.random.default_rng(n)
    return SampledField(rng.normal(size=n) + 1j * rng.normal(size=n), 16.0)


def _assert_matches_dense_reference(field: SampledField, wavelength: float, evanescent: int):
    report, propagate = angular_spectrum(field, wavelength)
    assert report.evanescent_mode_count == evanescent
    for z in (200.0, 0.0, 3.5, 2000.0, 200.0):
        out = propagate(z)
        assert out.amplitudes.tobytes() == _dense_angular_spectrum(field, wavelength, z).tobytes()


@pytest.mark.parametrize(
    "n,wavelength,evanescent",
    [
        (2, 0.01, 0), (4, 0.01, 0), (1024, 0.01, 0),  # every bin kept
        (2, 100.0, 1), (4, 100.0, 3), (1024, 100.0, 1023),  # only bin 0 kept
        (4, 10.0, 1),  # all but the Nyquist bin
        (1024, 0.3, 917),  # bins -53..53 kept
    ],
)
def test_angular_spectrum_matches_dense_reference_bitwise(n, wavelength, evanescent):
    _assert_matches_dense_reference(_random_field(n), wavelength, evanescent)


@pytest.mark.parametrize("sigma,evanescent", [(5.0, 49535), (100.0, 0)])
def test_fidelity_grid_matches_dense_reference_bitwise(sigma, evanescent):
    # the default fidelity grid: sigma 5 drops most bins, sigma 100 keeps
    # every bin, the Nyquist bin included
    spec = GratingSpec(slit_width=0.5, mode_truncation=4)
    _assert_matches_dense_reference(synthesize_gaussian_comb(spec, sigma), 0.01, evanescent)


def test_one_angular_spectrum_step_allocates_about_one_field():
    n = 2**17
    field_bytes = n * 16
    # every bin propagates, so the phase spans the whole half-spectrum
    field = _random_field(n)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report, propagate = angular_spectrum(field, 1e-4)
        held = tracemalloc.get_traced_memory()[0] - start
        propagate(1.0)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = propagate(2.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.evanescent_mode_count == 0
    # the closure holds the spectrum, the buffer and k_z on the kept half;
    # a call allocates only its half-length phase (0.56 fields), since the
    # inverse FFT runs in the buffer
    assert held <= 2.5 * field_bytes
    assert peak <= 0.75 * field_bytes
    assert len(out.amplitudes) == n


def test_angular_spectrum_converges_to_paraxial_mode_phases():
    """At fixed geometry the deviation from the quadratic mode law shrinks
    like the cube of the wavelength (one power from the quartic angular
    term, two from the fixed distance in wavelength units)."""
    n = 2**13
    extent = 32.0
    truncation = 2
    comb = grating_coefficients(GratingSpec(slit_width=0.5, mode_truncation=truncation))
    x = (np.arange(n) - n // 2) * (extent / n)
    field = SampledField(comb.evaluate(x), extent=extent)
    z = 40.0
    deviations = []
    for lam in (0.02, 0.01, 0.005):
        out = angular_spectrum(field, lam)[1](z)
        paraxial = propagate_paraxial(comb, z * lam / 2.0)
        reference = paraxial.evaluate(x) * cmath.exp(2j * cmath.pi * z / lam)
        deviations.append(np.abs(out.amplitudes - reference).max())
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[1] < deviations[0] / 5.0
    assert deviations[2] < deviations[1] / 5.0


def test_crosscheck_against_unitary_directly():
    """The reconstructed wave matrix IS the circulant gate, not merely close
    in pattern: check one matrix element chain explicitly."""
    D = 3
    result = gate_crosscheck(D)
    U = talbot_unitary(D, 1)
    assert result.max_deviation < 1e-9
    assert np.abs(np.abs(U[:, 0]) - 1.0 / np.sqrt(D)).max() < 1e-12
