"""The benchmark's workloads: seeded inputs, the commands of one pass, goldens.

A seed changes input values only (program phases and distances, theta and
phi, envelope widths, the control level); sizes are fixed per workload, so
every pass does the same amount of work whatever the seed.  Commands are
argument lists for ``python -m talbotsim`` and name files relative to the
working directory the pass runs in.
"""

import json
import math
import random

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "carpet_grid": (
        "Uniform-grid carpet synthesis: ModeField.evaluate on many small grid "
        "rows plus the per-pixel CSV writer; a batched-FFT carpet shows here, "
        "a gate-algebra change should not."
    ),
    "fidelity_sweep": (
        "The same evaluate layer with a few huge calls at arbitrary x, plus "
        "angular-spectrum FFTs; a carpet-only FFT rewrite must show no change, "
        "a memory-bounded evaluate must show in peak_rss_mb."
    ),
    "gate_algebra": (
        "Exact algebra path: gate -d 256 -q 511 (longest convolution loop, "
        "worst error case), verify, and a JSON-bound czgate; wave optics is "
        "nearly absent."
    ),
}

# Sizes, scaled down from the 513x512 carpets and n_x = 262144 of the
# original trace so that a run holds a dozen or more passes (a steadier
# median); evaluate and the CSV writer keep most of the carpet pass, and
# evaluate plus the angular spectrum most of the fidelity pass.
CARPET_Z, CARPET_X, CARPET_M = 129, 256, 128
CARPET_GRID = ["--z-steps", str(CARPET_Z), "--x-steps", str(CARPET_X),
               "--truncation", str(CARPET_M)]
FIDELITY_M_MAX = 20
FIDELITY_SIZE = ["--n-x", "131072", "--truncation", "16", "--m-max", str(FIDELITY_M_MAX)]
GATE_DIM, GATE_STEPS = 256, 511
CZ_DIM = 24

PROGRAM_DIM = 4
PROGRAM_MASKS = 8


def seeded_program(rng: random.Random) -> dict:
    """D=4 program: 8 masks, each after 1..4 canonical steps of 1/(2D)."""
    steps = []
    for _ in range(PROGRAM_MASKS):
        steps.append({"propagate": {"num": rng.randint(1, 4), "den": 2 * PROGRAM_DIM}})
        steps.append({"phase_mask": [rng.uniform(-math.pi, math.pi)
                                     for _ in range(PROGRAM_DIM)]})
    steps.append({"propagate": {"num": rng.randint(1, 4), "den": 2 * PROGRAM_DIM}})
    return {"dim": PROGRAM_DIM, "steps": steps}


def make_inputs(workload: str, seed: int) -> dict:
    """Seeded input values of one workload; the same seed gives the same dict."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "carpet_grid":
        return {
            "program": seeded_program(rng),
            # Both amplitudes stay well away from zero so relative_phase is defined.
            "theta": round(rng.uniform(0.2, 1.35), 6),
            "phi": round(rng.uniform(-3.0, 3.0), 6),
        }
    if workload == "fidelity_sweep":
        return {"widths": [round(rng.uniform(5.0, 100.0), 3) for _ in range(3)]}
    if workload == "gate_algebra":
        return {"control": rng.randrange(CZ_DIM)}
    raise ValueError(f"unknown workload {workload!r}")


def write_input_files(workload: str, inputs: dict, workdir) -> None:
    """Files the program reads; only carpet_grid has one (its program)."""
    if workload == "carpet_grid":
        with open(f"{workdir}/program.json", "w", encoding="ascii") as handle:
            json.dump(inputs["program"], handle)


def pass_commands(workload: str, inputs: dict) -> list:
    """The commands of one pass, run one after another."""
    if workload == "carpet_grid":
        return [
            ["carpet", *CARPET_GRID, "--out", "free.pgm", "--csv", "free.csv"],
            ["carpet", "--slit-ratio", "0.125", "--program", "program.json",
             *CARPET_GRID, "--out", "program.pgm"],
            ["prepare", "--theta", repr(inputs["theta"]), "--phi", repr(inputs["phi"]),
             "--out-prefix", "prep"],
        ]
    if workload == "fidelity_sweep":
        widths = ",".join(repr(w) for w in inputs["widths"])
        return [["fidelity", "--n-slits", widths, *FIDELITY_SIZE,
                 "--periodic-control", "--out", "fidelity.csv"]]
    if workload == "gate_algebra":
        return [
            ["gate", "-d", str(GATE_DIM), "-q", str(GATE_STEPS), "--out", "gate.json"],
            ["verify"],
            ["czgate", "-d", str(CZ_DIM), "-k", str(inputs["control"]), "--out", "cz.json"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


# Default-setting outputs pinned by SHA-256 in golden.json, by workload.
GOLDEN_COMMANDS = {
    "carpet_grid": [
        (["carpet", "--out", "golden_carpet.pgm"], ["golden_carpet.pgm"]),
        (["prepare", "--theta", "0.8", "--phi", "1.1", "--out-prefix", "golden_prep"],
         ["golden_prep_program.json", "golden_prep_carpet.pgm", "golden_prep_masks.csv"]),
    ],
    "fidelity_sweep": [
        (["fidelity", "--out", "golden_fidelity.csv"], ["golden_fidelity.csv"]),
    ],
    "gate_algebra": [
        (["gate", "-d", "5", "-q", "3", "--out", "golden_gate.json"], ["golden_gate.json"]),
        (["czgate", "-d", "3", "-k", "1", "--out", "golden_cz.json"], ["golden_cz.json"]),
    ],
}

WORKLOADS = tuple(WHY)
