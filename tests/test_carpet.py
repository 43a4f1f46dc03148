"""Carpet rendering, program carpets, and revival detection."""

import tracemalloc

import numpy as np
import pytest

from talbotsim import (
    CarpetImage,
    GratingSpec,
    detect_revivals,
    grating_coefficients,
    hadamard_program,
    prepare_bloch_state,
    propagate_paraxial,
    render_carpet,
    render_program_carpet,
)
from talbotsim import carpet, grating

import pins


def test_render_carpet_shape_and_normalization():
    spec = GratingSpec(slit_width=0.5, mode_truncation=32)
    image = render_carpet(spec, z_steps=65, x_steps=64)
    assert image.intensity.shape == (65, 64)
    assert image.zeta[0] == 0.0 and image.zeta[-1] == 1.0
    assert image.x[0] == 0.0 and image.x[-1] == 63 / 64
    assert abs(image.intensity.max() - 1.0) < 1e-12
    assert image.intensity.min() >= 0.0
    assert not image.intensity.flags.writeable


def test_full_and_half_period_revivals():
    spec = GratingSpec(slit_width=0.5, mode_truncation=48)
    image = render_carpet(spec, z_steps=129, x_steps=128)
    revivals = detect_revivals(image)
    found = {round(r.zeta, 6): r for r in revivals}
    assert set(found) == {0.5, 1.0}
    assert found[1.0].shift == 0.0
    assert found[0.5].shift == 0.5
    assert found[1.0].similarity > 1.0 - 1e-12
    assert found[0.5].similarity > 1.0 - 1e-12


def test_quarter_plane_is_not_a_revival():
    # at a quarter period the field is two equal-weight copies half a
    # period apart, so the intensity overlap with the source row is 1/sqrt(2)
    spec = GratingSpec(slit_width=0.2, mode_truncation=48)
    image = render_carpet(spec, z_steps=129, x_steps=128)
    loose = detect_revivals(image, threshold=0.6)
    by_zeta = {round(r.zeta, 6): r for r in loose}
    assert 0.25 in by_zeta
    assert 0.6 < by_zeta[0.25].similarity < 0.85
    strict = detect_revivals(image)
    assert all(abs(r.zeta - 0.25) > 1e-9 for r in strict)


def test_program_carpet_hadamard_masks_and_output():
    spec = GratingSpec(slit_width=0.25, mode_truncation=48)
    image = render_program_carpet(spec, hadamard_program(), z_steps=65, x_steps=128)
    assert image.mask_positions == (0.25,)
    assert len(image.mask_residuals) == 1
    assert image.mask_residuals[0] < 1e-12
    # output of a balanced split from slit 0: both slit windows lit
    final = image.intensity[-1]
    x = image.x
    in_slit_0 = final[(x >= 0.0) & (x < 0.25)].sum()
    in_slit_1 = final[(x >= 0.5) & (x < 0.75)].sum()
    total = final.sum()
    assert in_slit_0 > 0.3 * total
    assert in_slit_1 > 0.3 * total


def test_program_carpet_state_preparation_masks():
    spec = GratingSpec(slit_width=0.25, mode_truncation=48)
    program, state = prepare_bloch_state(0.8, 1.1)
    image = render_program_carpet(spec, program, z_steps=65, x_steps=64)
    assert image.mask_positions == (0.25, 0.5, 0.75, 1.0)
    assert max(image.mask_residuals) < 1e-12
    # the final row carries the prepared populations in the two slit windows
    final = image.intensity[-1]
    x = image.x
    weight_0 = final[(x >= 0.0) & (x < 0.25)].sum()
    weight_1 = final[(x >= 0.5) & (x < 0.75)].sum()
    ratio = weight_0 / (weight_0 + weight_1)
    expected = float(np.abs(state[0]) ** 2)
    assert abs(ratio - expected) < 0.02


def test_program_carpet_rejects_zero_distance():
    from talbotsim import OpticalProgram, PhaseMask

    spec = GratingSpec(slit_width=0.25, mode_truncation=32)
    program = OpticalProgram(dim=2, steps=(PhaseMask((0.0, 1.0)),))
    with pytest.raises(ValueError, match="zero total"):
        render_program_carpet(spec, program)


def test_program_carpet_builds_one_slit_spectrum(monkeypatch):
    """The start state is a column of the slit basis, not a second spectrum."""
    calls = []

    def counted(spec):
        calls.append(spec)
        return grating_coefficients(spec)

    monkeypatch.setattr(grating, "grating_coefficients", counted)
    spec = GratingSpec(slit_width=0.25, mode_truncation=32)
    render_program_carpet(spec, hadamard_program(), z_steps=9, x_steps=16, initial_level=1)
    assert len(calls) == 1


@pytest.mark.parametrize("level", [2, -1])
def test_program_carpet_refuses_a_level_outside_the_encoding(level):
    spec = GratingSpec(slit_width=0.25, mode_truncation=32)
    with pytest.raises(ValueError, match=f"level must satisfy 0 <= d < D, got {level}"):
        render_program_carpet(spec, hadamard_program(), initial_level=level)


def test_grid_validation():
    spec = GratingSpec(slit_width=0.5, mode_truncation=16)
    with pytest.raises(ValueError, match="2x2"):
        render_carpet(spec, z_steps=1, x_steps=64)
    with pytest.raises(ValueError, match="2x2"):
        render_carpet(spec, z_steps=64, x_steps=1)
    with pytest.raises(ValueError, match="increase"):
        render_carpet(spec, zeta_span=(1.0, 0.5))
    for span in ((0.0, float("inf")), (float("-inf"), 1.0), (float("nan"), 1.0)):
        with pytest.raises(ValueError, match="finite"):
            render_carpet(spec, zeta_span=span)


def test_carpet_image_shape_validation():
    with pytest.raises(ValueError, match="does not match"):
        CarpetImage(
            intensity=np.zeros((3, 4)),
            zeta=np.linspace(0, 1, 3),
            x=np.linspace(0, 1, 5),
        )


def test_detect_revivals_skips_row_zero():
    spec = GratingSpec(slit_width=0.5, mode_truncation=32)
    image = render_carpet(spec, zeta_span=(0.0, 1.0), z_steps=33, x_steps=64)
    revivals = detect_revivals(image)
    assert all(r.zeta > 0.0 for r in revivals)


def test_revival_shift_convention():
    # shift s means the row looks like the base row rolled forward by
    # s * x_steps grid cells
    spec = GratingSpec(slit_width=0.2, mode_truncation=48)
    image = render_carpet(spec, z_steps=65, x_steps=64)
    half = image.intensity[32]
    base = image.intensity[0]
    assert np.abs(half - np.roll(base, 32)).max() < 1e-9


# ---------------------------------------------------------------------------
# batched-FFT synthesis against a per-row evaluate reference
# ---------------------------------------------------------------------------


def _reference_rows(segments, zeta_grid, x_grid):
    """One ModeField.evaluate per row, normalized to peak 1."""
    starts = [s for s, _ in segments]
    rows = []
    for z in zeta_grid:
        index = max(int(np.searchsorted(starts, z, side="right")) - 1, 0)
        z0, field = segments[index]
        rows.append(np.abs(propagate_paraxial(field, z - z0).evaluate(x_grid)) ** 2)
    rows = np.array(rows)
    return rows / rows.max()


@pytest.mark.parametrize(
    "slit_width, M, z_steps, x_steps, span",
    [
        (0.5, 64, 257, 256, (0.0, 1.0)),  # CLI default grid
        (0.3, 128, 65, 16, (0.0, 1.0)),  # 2M+1 > X: modes fold onto bins
        (0.2, 48, 97, 128, (-0.7, 0.4)),  # negative zeta_min
    ],
)
def test_free_carpet_matches_per_row_evaluate(slit_width, M, z_steps, x_steps, span):
    spec = GratingSpec(slit_width=slit_width, mode_truncation=M)
    image = render_carpet(spec, span, z_steps, x_steps)
    start = grating_coefficients(spec).normalized()
    reference = _reference_rows([(0.0, start)], image.zeta, image.x)
    assert np.abs(image.intensity - reference).max() <= 1e-12


def test_program_carpet_matches_per_row_evaluate(monkeypatch):
    captured = {}
    synthesize = carpet._intensity_rows

    def spy(segments, zeta_grid, x_steps):
        captured["segments"] = segments
        return synthesize(segments, zeta_grid, x_steps)

    monkeypatch.setattr(carpet, "_intensity_rows", spy)
    spec = GratingSpec(slit_width=0.25, mode_truncation=48)
    image = render_program_carpet(spec, hadamard_program(), z_steps=65, x_steps=128)
    # the mask plane is grid row 32 exactly; that row belongs to the masked segment
    assert image.zeta[32] == image.mask_positions[0] == 0.25
    assert [s for s, _ in captured["segments"]] == [0.0, 0.25]
    reference = _reference_rows(captured["segments"], image.zeta, image.x)
    assert np.abs(image.intensity - reference).max() <= 1e-12


def test_default_pgm_bytes_match_golden_hashes():
    for pin in pins.checked_by("test_default_pgm_bytes_match_golden_hashes"):
        pins.check(pin)
        # the command writes its pinned files and no other
        assert set(pins.run(pin["id"])) == {"stdout", *pin["outputs"]}


def test_carpet_synthesis_memory_is_output_sized():
    # a dense exp(2 pi i x m) over all rows would be Z*X*M*16 bytes = 4.3 GB
    z_steps, x_steps, M = 1025, 1024, 256
    spec = GratingSpec(slit_width=0.5, mode_truncation=M)
    output_bytes = z_steps * x_steps * 16
    tracemalloc.start()
    try:
        image = render_carpet(spec, z_steps=z_steps, x_steps=x_steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert image.intensity.shape == (z_steps, x_steps)
    assert peak < 2 * output_bytes
