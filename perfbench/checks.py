"""Output checks of one pass, against the references in refs.py.

check_pass(workload, inputs, workdir, stdouts) returns one verdict per
command of the pass (True when its outputs are right) and the accuracy
figures it measured on the way.  stdouts holds each command's standard
output as text, in pass order.
"""

import json
import math
from fractions import Fraction

import numpy as np

import refs
from workloads import CARPET_X, CARPET_Z, CZ_DIM, FIDELITY_M_MAX, GATE_DIM, GATE_STEPS

# Exact paths sit at round-off (about 1e-12 at the gate's worst case); a
# figure above this tolerance is a wrong answer, not a slower one.
TOLERANCE = 1e-9


def read_csv(path):
    """(metadata dict, header list, rows as lists of strings)."""
    metadata, lines = {}, []
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(": ")
                metadata[key] = value
            else:
                lines.append(line.rstrip("\n").split(","))
    return metadata, lines[0], lines[1:]


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as handle:
        data = handle.read()
    magic, size, maxval, pixels = data.split(b"\n", 3)
    width, height = (int(v) for v in size.split())
    if magic != b"P5" or maxval != b"255" or len(pixels) != width * height:
        raise ValueError(f"{path}: not a {width}x{height} 8-bit PGM")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def read_matrix(payload: dict) -> np.ndarray:
    return np.array([[complex(c["re"], c["im"]) for c in row] for row in payload["entries"]])


def _carpet_grid(inputs, workdir, stdouts):
    commands_ok, accuracy = [], {}

    # Free carpet: CSV against one batched FFT synthesis, PGM as its rounding.
    metadata, header, rows = read_csv(f"{workdir}/free.csv")
    table = np.array(rows, dtype=float)
    z_steps, x_steps = CARPET_Z, CARPET_X
    zeta = np.linspace(0.0, 1.0, z_steps)
    x = np.arange(x_steps) / x_steps
    reference = refs.free_carpet(float(metadata["slit_ratio"]), int(metadata["truncation"]),
                                 zeta, x_steps)
    error = max(
        float(np.abs(table[:, 2] - reference.ravel()).max()),
        float(np.abs(table[:, 0] - np.repeat(zeta, x_steps)).max()),
        float(np.abs(table[:, 1] - np.tile(x, z_steps)).max()),
    ) if table.shape == (z_steps * x_steps, 3) else math.inf
    accuracy["carpet_error"] = error
    pixels = read_pgm(f"{workdir}/free.pgm")
    pgm_ok = pixels.shape == reference.shape and float(
        np.abs(pixels / 255.0 - reference).max()) <= 0.5 / 255 + TOLERANCE
    commands_ok.append(header == ["zeta", "x", "intensity"] and error <= TOLERANCE and pgm_ok)

    # Program carpet: masks reported at the program's cumulative distances,
    # each on a canonical step where the slit basis is exact.
    with open(f"{workdir}/program.json", encoding="ascii") as handle:
        program = json.load(handle)
    positions, z = [], Fraction(0)
    for step in program["steps"]:
        if "propagate" in step:
            z += Fraction(step["propagate"]["num"], step["propagate"]["den"])
        else:
            positions.append(float(z))
    mask_lines = [line for line in stdouts[1].splitlines() if line.startswith("mask at")]
    reported = [float(line.split()[2][len("zeta="):]) for line in mask_lines]
    residuals = [float(line.split()[3][len("projection_residual="):]) for line in mask_lines]
    image = read_pgm(f"{workdir}/program.pgm")
    commands_ok.append(
        reported == positions and max(residuals) <= 1e-4
        and image.shape == (z_steps, x_steps) and int(image.max()) == 255
    )

    # Bloch-state preparation: populations and phase from theta and phi.
    theta, phi = inputs["theta"], inputs["phi"]
    values = dict(line.split("=", 1) for line in stdouts[2].splitlines() if "=" in line
                  and not line.startswith("wrote"))
    phase_error = abs(np.angle(np.exp(1j * (float(values["relative_phase"]) - phi))))
    _, _, mask_rows = read_csv(f"{workdir}/prep_masks.csv")
    masks = np.array(mask_rows, dtype=float)
    beta = math.pi / 4 - phi / 2
    prepare_error = float(max(
        abs(float(values["population_0"]) - math.cos(theta) ** 2),
        abs(float(values["population_1"]) - math.sin(theta) ** 2),
        phase_error,
        float(np.abs(masks[1, 2:] - [theta, -theta]).max()),
        float(np.abs(masks[3, 2:] - [beta, -beta]).max()),
    ))
    accuracy["prepare_error"] = prepare_error
    prep_image = read_pgm(f"{workdir}/prep_carpet.pgm")
    with open(f"{workdir}/prep_program.json", encoding="ascii") as handle:
        prep_program = json.load(handle)
    commands_ok.append(prepare_error <= TOLERANCE and prep_image.shape == (257, 256)  # default grid
                       and prep_program["dim"] == 2)
    return commands_ok, accuracy


def _fidelity_sweep(inputs, workdir, stdouts):
    metadata, header, rows = read_csv(f"{workdir}/fidelity.csv")
    widths, m_max = inputs["widths"], FIDELITY_M_MAX
    expected = [(w, m, False) for w in widths for m in range(1, m_max + 1)]
    expected += [(math.inf, m, True) for m in range(1, m_max + 1)]
    got = [(float(r[0]), int(r[1]), r[5] == "true") for r in rows]
    fidelity = np.array([float(r[2]) for r in rows])
    error = math.inf
    if got == expected:
        reference = np.concatenate([
            refs.envelope_fidelity(float(metadata["slit_ratio"]), int(metadata["truncation"]),
                                   float(metadata["wavelength"]), w, int(metadata["n_x"]),
                                   float(metadata["extent_factor"]), range(1, m_max + 1))
            for w in widths
        ] + [np.ones(m_max)])
        error = float(np.abs(fidelity - reference).max())
    return [error <= TOLERANCE], {"fidelity_error": error}


def _gate_algebra(inputs, workdir, stdouts):
    with open(f"{workdir}/gate.json", encoding="ascii") as handle:
        gate = json.load(handle)
    gate_error = math.inf
    if gate["kind"] == "talbot_unitary" and gate["steps"] == GATE_STEPS and gate["dim"] == GATE_DIM:
        gate_error = refs.phase_aligned_error(refs.talbot_gate(GATE_DIM, GATE_STEPS),
                                              read_matrix(gate))

    report = stdouts[1].splitlines()
    verify_ok = bool(report) and report[-1] == "suite 'all': all checks passed" and not any(
        line.startswith("[FAIL]") for line in report)

    k = inputs["control"]
    with open(f"{workdir}/cz.json", encoding="ascii") as handle:
        cz = json.load(handle)
    cz_error = math.inf
    if cz["dim"] == CZ_DIM and cz["control_level"] == k:
        deviations = refs.cz_deviations(read_matrix(cz["matrix"]), CZ_DIM, k)
        deviations["emitted_success"] = float(
            np.abs(np.array(cz["success_probabilities"]) - 1.0 / 9.0).max())
        cz_error = max(deviations.values())
    return (
        [gate_error <= TOLERANCE, verify_ok, cz_error <= TOLERANCE],
        {"gate_error": gate_error, "cz_error": cz_error},
    )


_CHECKS = {
    "carpet_grid": _carpet_grid,
    "fidelity_sweep": _fidelity_sweep,
    "gate_algebra": _gate_algebra,
}


def check_pass(workload: str, inputs: dict, workdir, stdouts: list):
    """Per-command verdicts and accuracy figures; unreadable output fails all."""
    try:
        return _CHECKS[workload](inputs, workdir, stdouts)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as error:
        print(f"check failed: {type(error).__name__}: {error}")
        return [False] * len(stdouts), {}
