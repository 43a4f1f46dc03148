"""Command line interface: outputs, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from talbotsim import (
    build_cz,
    hadamard_program,
    matrix_from_json,
    program_from_json,
    program_to_json,
    talbot_unitary,
)
from talbotsim.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.fixture()
def runner():
    return CliRunner()


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def test_gate_stdout_matches_library(runner):
    result = runner.invoke(main, ["gate", "--dim", "3", "--steps", "2"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kind"] == "talbot_unitary"
    assert payload["steps"] == 2
    assert np.abs(matrix_from_json(payload) - talbot_unitary(3, 2)).max() == 0.0


def test_gate_out_file_equals_stdout(runner, tmp_path):
    out = tmp_path / "gate.json"
    to_file = runner.invoke(main, ["gate", "-d", "4", "-q", "3", "--out", str(out)])
    assert to_file.exit_code == 0
    to_stdout = runner.invoke(main, ["gate", "-d", "4", "-q", "3"])
    assert out.read_text() == to_stdout.output


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite(runner, tmp_path):
    report = tmp_path / "report.json"
    result = runner.invoke(
        main, ["verify", "--suite", "algebra", "--json-out", str(report)]
    )
    assert result.exit_code == 0
    assert "[PASS]" in result.output
    assert "[FAIL]" not in result.output
    payload = json.loads(report.read_text())
    assert report.read_text() == json.dumps(payload, indent=2) + "\n"
    assert payload["suite"] == "algebra"
    assert payload["all_passed"] is True
    assert all(check["passed"] for check in payload["checks"])


def test_verify_all_suites(runner, tmp_path):
    # benchmark verdicts read the last line; the digest pins the check names
    # ("suite: name" joined by newlines) so a check cannot vanish unseen
    report = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", "--json-out", str(report)])
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == "suite 'all': all checks passed"
    checks = json.loads(report.read_text())["checks"]
    assert len(checks) == 137
    assert all(check["passed"] for check in checks)
    names = "\n".join(f"{check['suite']}: {check['name']}" for check in checks)
    assert hashlib.sha256(names.encode()).hexdigest() == (
        "b44e68009540723ae9541a874d7e0b54ad8f2fd9033f72925b5bf31724bdac9b"
    )


def test_verify_unknown_suite_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "--suite", "bogus"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# carpet
# ---------------------------------------------------------------------------


def test_carpet_writes_pgm_and_reports_revivals(runner, tmp_path):
    out = tmp_path / "free.pgm"
    result = runner.invoke(
        main,
        ["carpet", "--z-steps", "33", "--x-steps", "64", "--out", str(out)],
    )
    assert result.exit_code == 0
    data = out.read_bytes()
    assert data.startswith(b"P5\n64 33\n255\n")
    assert len(data) == len(b"P5\n64 33\n255\n") + 33 * 64
    lines = result.output.splitlines()
    revivals = [line for line in lines if line.startswith("revival at zeta=")]
    assert any("zeta=0.5" in line and "shift=0.5" in line for line in revivals)
    assert any("zeta=1.0" in line and "shift=0.0" in line for line in revivals)
    assert lines[-1] == f"wrote {out}"


def test_carpet_program_mode(runner, tmp_path):
    program_path = tmp_path / "hadamard.json"
    program_path.write_text(json.dumps(program_to_json(hadamard_program())))
    out = tmp_path / "program.pgm"
    csv_path = tmp_path / "program.csv"
    result = runner.invoke(
        main,
        [
            "carpet",
            "--slit-ratio", "0.25",
            "--z-steps", "33",
            "--x-steps", "64",
            "--program", str(program_path),
            "--out", str(out),
            "--csv", str(csv_path),
        ],
    )
    assert result.exit_code == 0
    assert "mask at zeta=0.25" in result.output
    assert out.exists()
    csv_lines = csv_path.read_text().splitlines()
    metadata = [line for line in csv_lines if line.startswith("# ")]
    assert any(line.startswith("# mask_positions: 0.25") for line in metadata)
    header_index = len(metadata)
    assert csv_lines[header_index] == "zeta,x,intensity"
    assert len(csv_lines) == header_index + 1 + 33 * 64


def test_carpet_rejects_invalid_spec(runner, tmp_path):
    result = runner.invoke(
        main, ["carpet", "--slit-ratio", "0", "--out", str(tmp_path / "x.pgm")]
    )
    assert result.exit_code == 2


def test_carpet_missing_program_file(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "carpet",
            "--program", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "x.pgm"),
        ],
    )
    assert result.exit_code == 2


def test_unwritable_output_exits_2(runner, tmp_path):
    target = tmp_path / "no-such-dir" / "gate.json"
    result = runner.invoke(main, ["gate", "--dim", "2", "--out", str(target)])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_stdout_csv(runner):
    result = runner.invoke(
        main,
        ["fidelity", "--n-slits", "5", "--m-max", "2", "--n-x", "4096"],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    metadata = [line for line in lines if line.startswith("# ")]
    body = lines[len(metadata) :]
    assert body[0] == (
        "n_slits,talbot_periods,fidelity,dropped_norm_fraction,"
        "aliasing_risk,periodic_control"
    )
    assert len(body) == 3
    first = body[1].split(",")
    assert first[0] == "5.0" and first[1] == "1"
    assert 0.9 < float(first[2]) < 1.0
    assert first[4] == "false" and first[5] == "false"


def test_fidelity_periodic_control_rows(runner):
    result = runner.invoke(
        main,
        [
            "fidelity",
            "--n-slits", "5",
            "--m-max", "2",
            "--n-x", "4096",
            "--periodic-control",
        ],
    )
    assert result.exit_code == 0
    controls = [
        line for line in result.output.splitlines() if line.startswith("inf,")
    ]
    assert len(controls) == 2
    assert all(line.split(",")[2] == "1.0" for line in controls)


@pytest.mark.parametrize(
    "args",
    [
        ["--n-slits", "a,b"],
        ["--n-slits", ""],
        ["--m-max", "0"],
        ["--extent-factor", "4"],
        ["--n-x", "1000"],
    ],
)
def test_fidelity_usage_errors(runner, args):
    result = runner.invoke(main, ["fidelity", *args])
    assert result.exit_code == 2


def test_fidelity_out_file(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["fidelity", "--n-slits", "5,20", "--m-max", "2", "--n-x", "4096"]
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 0
    assert f"wrote {out}" in result.output
    assert out.read_text().splitlines()[-1].startswith("20.0,2,")
    assert runner.invoke(main, args).stdout_bytes == out.read_bytes()


def _fidelity_csv_digest(args, threads: int) -> str:
    # BLAS reductions make the fidelity bytes depend on the thread count,
    # so each pin runs in a fresh process with the count fixed
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads))
    result = subprocess.run(
        [sys.executable, "-m", "talbotsim", "fidelity", *args],
        capture_output=True, check=True, env=env,
    )
    return hashlib.sha256(result.stdout).hexdigest()


FIDELITY_BENCHMARK_SIZE = [
    "--n-slits", "20.5,50.1,80.3", "--n-x", "131072", "--truncation", "16",
    "--m-max", "20", "--periodic-control",
]


@pytest.mark.parametrize(
    "args,threads,digest",
    [
        (FIDELITY_BENCHMARK_SIZE, 1,
         "164519da86926fb3f6b563da0442dc92159a0bdb71833b6a849fa6f58e6ce110"),
        ([], 1, "533ae5d5185de843d7ecff23e39848d21c18c64873635f44da9ed516ada6d68f"),
        ([], 2, json.loads(GOLDEN.read_text())["fidelity_sweep"]["golden_fidelity.csv"]),
    ],
    ids=["benchmark-size-1-thread", "default-1-thread", "default-2-threads-golden"],
)
def test_fidelity_csv_bytes_are_pinned(args, threads, digest):
    assert _fidelity_csv_digest(args, threads) == digest


# D = 4, two masks, so the CSV metadata carries mask_positions 0.125;0.5
PINNED_PROGRAM = {"dim": 4, "steps": [
    {"propagate": {"num": 1, "den": 8}},
    {"phase_mask": [0.0, 1.25, -2.5, 0.75]},
    {"propagate": {"num": 3, "den": 8}},
    {"phase_mask": [-0.5, 2.0, 0.25, -1.5]},
    {"propagate": {"num": 2, "den": 8}},
]}


@pytest.mark.parametrize(
    "args,digest",
    [
        ([], "f41a5841aa6b7fb70f9437f989269f3eaa5c54ab98cd838794bbd6b6fa782eb7"),
        (["--z-steps", "129", "--x-steps", "256", "--truncation", "128"],
         "18e0b169689e969bdb2a9b2088e85d57ddded1cf873e4f4f0446ab47dfd24191"),
        (["--slit-ratio", "0.125", "--program", "program.json"],
         "8cc0fd074f06fd51aac8b9a51e7e39a8064e38059f07b6d0f0d8e9eccc957f96"),
        (["--slit-ratio", "0.125", "--program", "program.json", "--initial-level", "3",
          "--z-steps", "129", "--x-steps", "256", "--truncation", "128"],
         "945d5b5b2d8517dc8409eefb428b795922de5645b0b5c6c2ec69a54c96b5ee90"),
    ],
    ids=["default", "benchmark-size", "program", "program-level-3-benchmark-size"],
)
def test_carpet_csv_bytes_are_pinned(runner, tmp_path, args, digest):
    (tmp_path / "program.json").write_text(json.dumps(PINNED_PROGRAM))
    args = [str(tmp_path / arg) if arg == "program.json" else arg for arg in args]
    csv_path = tmp_path / "carpet.csv"
    result = runner.invoke(
        main, ["carpet", *args, "--out", str(tmp_path / "carpet.pgm"), "--csv", str(csv_path)]
    )
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def test_prepare_writes_three_files_and_echoes_state(runner, tmp_path):
    prefix = str(tmp_path / "bloch")
    result = runner.invoke(
        main,
        [
            "prepare",
            "--theta", "0.8",
            "--phi", "1.1",
            "--z-steps", "33",
            "--x-steps", "64",
        ]
        + ["--out-prefix", prefix],
    )
    assert result.exit_code == 0
    program = program_from_json(
        json.loads((tmp_path / "bloch_program.json").read_text())
    )
    assert program.dim == 2
    assert float(program.total_distance) == 1.0
    assert (tmp_path / "bloch_carpet.pgm").read_bytes().startswith(b"P5\n64 33\n255\n")
    mask_lines = (tmp_path / "bloch_masks.csv").read_text().splitlines()
    assert mask_lines[0] == "index,zeta,phase_0,phase_1"
    assert len(mask_lines) == 5
    assert [line.split(",")[1] for line in mask_lines[1:]] == [
        "0.25", "0.5", "0.75", "1.0",
    ]

    values = {}
    for line in result.output.splitlines():
        if "=" in line:
            key, _, raw = line.partition("=")
            values[key] = raw
    population_0 = float(values["population_0"])
    population_1 = float(values["population_1"])
    assert abs(population_0 - np.cos(0.8) ** 2) < 1e-12
    assert abs(population_0 + population_1 - 1.0) < 1e-12
    assert abs(float(values["relative_phase"]) - 1.1) < 1e-10
    # echoed floats are repr strings, not numpy scalar reprs
    assert "np.float64" not in result.output


# ---------------------------------------------------------------------------
# czgate
# ---------------------------------------------------------------------------


def test_czgate_stdout_payload(runner):
    result = runner.invoke(main, ["czgate", "--dim", "3", "--control", "1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["dim"] == 3
    assert payload["control_level"] == 1
    lo, hi = payload["modulus_range"]
    assert abs(lo - 1 / 3) < 1e-12 and abs(hi - 1 / 3) < 1e-12
    lo, hi = payload["success_probability_range"]
    assert abs(lo - 1 / 9) < 1e-12 and abs(hi - 1 / 9) < 1e-12
    assert payload["interaction_phase_deviation"] < 1e-9
    op = build_cz(3, 1)
    assert np.abs(matrix_from_json(payload["matrix"]) - op.matrix).max() < 1e-15


def _stdout_and_out_bytes(runner, tmp_path, args) -> bytes:
    path = tmp_path / "out.json"
    assert runner.invoke(main, [*args, "--out", str(path)]).exit_code == 0
    to_stdout = runner.invoke(main, args)
    assert to_stdout.exit_code == 0
    assert to_stdout.stdout_bytes == path.read_bytes()
    return path.read_bytes()


def test_default_gate_algebra_bytes_match_golden_hashes(runner, tmp_path):
    golden = json.loads(GOLDEN.read_text())["gate_algebra"]
    commands = {
        "golden_gate.json": ["gate", "-d", "5", "-q", "3"],
        "golden_cz.json": ["czgate", "-d", "3", "-k", "1"],
    }
    for name, args in commands.items():
        data = _stdout_and_out_bytes(runner, tmp_path, args)
        assert hashlib.sha256(data).hexdigest() == golden[name]


@pytest.mark.parametrize(
    "args,digest",
    [
        (["gate", "-d", "256", "-q", "511"],
         "aafd56d1453ee2f878178156489786637b18c1f2f49f7fcabdba775b9f4d6d55"),
        (["czgate", "-d", "24", "-k", "5"],
         "c66268836f49f23addf2b6ddedade7440386455181cc789886b3a9041e118b74"),
    ],
    ids=["gate-256-511", "czgate-24-5"],
)
def test_benchmark_size_gate_algebra_bytes_are_pinned(runner, tmp_path, args, digest):
    # the large outputs the JSON writer streams row by row (5.8 MB and 20.6 MB)
    data = _stdout_and_out_bytes(runner, tmp_path, args)
    assert hashlib.sha256(data).hexdigest() == digest


# ---------------------------------------------------------------------------
# bad input: exit 2 with a message, never a traceback
# ---------------------------------------------------------------------------

MALFORMED_PROGRAMS = {
    "zero-den": '{"dim": 2, "steps": [{"propagate": {"num": 1, "den": 0}}]}',
    "steps-int": '{"dim": 2, "steps": 5}',
    "top-level-list": '[{"dim": 2, "steps": []}]',
    "step-int": '{"dim": 2, "steps": [5]}',
    "inf-num": '{"dim": 2, "steps": [{"propagate": {"num": 1e999, "den": 1}}]}',
    "nan-phase": '{"dim": 2, "steps": [{"phase_mask": [0.0, NaN]}]}',
    "fractional-num": '{"dim": 2, "steps": [{"propagate": {"num": 1.5, "den": 4}}]}',
    "bool-den": '{"dim": 2, "steps": [{"propagate": {"num": 1, "den": true}}]}',
    "not-json": "{",
}

FOUR_LEVEL_PROGRAM = ('{"dim": 4, "steps": [{"propagate": {"num": 1, "den": 8}}, '
                      '{"phase_mask": [0.1, 0.2, 0.3, 0.4]}, '
                      '{"propagate": {"num": 1, "den": 8}}]}')

BAD_INPUT = {
    "gate-dim-0": ["gate", "-d", "0"],
    "czgate-dim-1": ["czgate", "-d", "1", "-k", "0"],
    "czgate-control-3": ["czgate", "-d", "3", "-k", "3"],
    "fidelity-extent-4": ["fidelity", "--extent-factor", "4"],
    "fidelity-extent-nan": ["fidelity", "--extent-factor", "nan"],
    "fidelity-n-slits-inf": ["fidelity", "--n-slits", "inf"],
    "fidelity-wavelength-inf": ["fidelity", "--wavelength", "inf"],
    "fidelity-n-x-0": ["fidelity", "--n-x", "0"],
    "fidelity-n-x-negative": ["fidelity", "--n-x", "-4"],
    # sigma**2 underflows to 0, which the envelope divides by, or overflows
    "fidelity-n-slits-tiny": ["fidelity", "--n-slits", "1e-300", "--n-x", "1024",
                              "--m-max", "2"],
    "fidelity-n-slits-huge": ["fidelity", "--n-slits", "1e300", "--n-x", "1024",
                              "--m-max", "2"],
    # (2 pi / wavelength)^2 overflows: in Python's ** for 1e-300, and to an
    # infinite k, hence NaN fidelities, for 1e-320
    "fidelity-wavelength-tiny": ["fidelity", "--wavelength", "1e-300", "--n-x", "1024",
                                 "--m-max", "2"],
    "fidelity-wavelength-subnormal": ["fidelity", "--wavelength", "1e-320", "--n-x", "1024",
                                      "--m-max", "2"],
    "carpet-wavelength": ["carpet", "--wavelength", "0.37", "--out", "out.pgm"],
    "prepare-wavelength": ["prepare", "--theta", "0.8", "--phi", "1.1", "--wavelength", "0.37",
                           "--out-prefix", "out"],
    "carpet-program-rank-deficient": ["carpet", "--program", "four-level.json", "--out",
                                      "out.pgm"],
    "carpet-zeta-max-inf": ["carpet", "--zeta-max", "inf", "--out", "out.pgm"],
    "carpet-program-zeta-range": ["carpet", "--program", "hadamard.json", "--zeta-min", "5",
                                  "--zeta-max", "inf", "--out", "out.pgm"],
    "carpet-program-zeta-min": ["carpet", "--program", "hadamard.json", "--zeta-min", "0",
                                "--out", "out.pgm"],
    "carpet-free-initial-level": ["carpet", "--initial-level", "7", "--out", "out.pgm"],
    "prepare-theta-inf": ["prepare", "--theta", "inf", "--phi", "0", "--out-prefix", "out"],
    **{
        f"program-{name}": ["carpet", "--program", name, "--out", "out.pgm"]
        for name in MALFORMED_PROGRAMS
    },
}


@pytest.mark.parametrize("args", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_is_a_usage_error(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    for name, text in MALFORMED_PROGRAMS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "hadamard.json").write_text(json.dumps(program_to_json(hadamard_program())))
    # slits of ratio 1/2 (the default) at four sites tile the period: rank 3
    (tmp_path / "four-level.json").write_text(FOUR_LEVEL_PROGRAM)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output
    assert "Traceback" not in result.output
    assert not any(tmp_path.glob("out*"))


# ---------------------------------------------------------------------------
# every option changes an output
# ---------------------------------------------------------------------------

# Options that name a file to read or write.
PATH_OPTIONS = {"out", "csv_path", "program_path", "out_prefix", "json_out"}

CARPET = ["carpet", "--z-steps", "9", "--x-steps", "16", "--truncation", "8",
          "--out", "c.pgm", "--csv", "c.csv"]
PREPARE = ["prepare", "--theta", "0.8", "--phi", "1.1", "--z-steps", "9", "--x-steps", "16",
           "--truncation", "8", "--out-prefix", "p"]
FIDELITY = ["fidelity", "--n-slits", "5", "--n-x", "1024", "--m-max", "2"]

# For every non-path option of every command: (base arguments, arguments
# appended to move that option; click keeps the last value of an option).
OPTION_CASES = {
    "carpet": {
        "slit_ratio": (CARPET, ["--slit-ratio", "0.3"]),
        "truncation": (CARPET, ["--truncation", "9"]),
        "zeta_min": (CARPET, ["--zeta-min", "0.1"]),
        "zeta_max": (CARPET, ["--zeta-max", "0.7"]),
        "z_steps": (CARPET, ["--z-steps", "8"]),
        "x_steps": (CARPET, ["--x-steps", "12"]),
        "initial_level": ([*CARPET, "--program", "hadamard.json"], ["--initial-level", "1"]),
    },
    "prepare": {
        "theta": (PREPARE, ["--theta", "0.5"]),
        "phi": (PREPARE, ["--phi", "0.5"]),
        "slit_ratio": (PREPARE, ["--slit-ratio", "0.3"]),
        "truncation": (PREPARE, ["--truncation", "9"]),
        "z_steps": (PREPARE, ["--z-steps", "8"]),
        "x_steps": (PREPARE, ["--x-steps", "12"]),
    },
    "fidelity": {
        "n_slits": (FIDELITY, ["--n-slits", "6"]),
        "m_max": (FIDELITY, ["--m-max", "3"]),
        "slit_ratio": (FIDELITY, ["--slit-ratio", "0.3"]),
        "wavelength": (FIDELITY, ["--wavelength", "0.02"]),
        "truncation": (FIDELITY, ["--truncation", "5"]),
        "n_x": (FIDELITY, ["--n-x", "2048"]),
        "extent_factor": (FIDELITY, ["--extent-factor", "9"]),
        "periodic_control": (FIDELITY, ["--periodic-control"]),
    },
    "gate": {
        "dim": (["gate", "-d", "3"], ["-d", "4"]),
        "steps": (["gate", "-d", "3"], ["-q", "2"]),
    },
    "czgate": {
        "dim": (["czgate", "-d", "2", "-k", "0"], ["-d", "3"]),
        "control": (["czgate", "-d", "2", "-k", "0"], ["-k", "1"]),
    },
    "verify": {
        "suite": (["verify", "--suite", "qft"], ["--suite", "algebra"]),
    },
}


def _outputs(runner, workdir: pathlib.Path, args) -> list:
    """stdout, then each written file, without `wrote` lines and CSV `#` lines."""
    workdir.mkdir()
    (workdir / "hadamard.json").write_text(json.dumps(program_to_json(hadamard_program())))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    outputs = [[line for line in result.stdout_bytes.splitlines()
                if not line.startswith((b"wrote ", b"#"))]]
    for path in sorted(workdir.iterdir()):
        lines = path.read_bytes().splitlines()
        if path.suffix == ".csv":
            lines = [line for line in lines if not line.startswith(b"#")]
        outputs.append((path.name, lines))
    return outputs


@pytest.mark.parametrize("command", sorted(OPTION_CASES))
def test_every_option_changes_an_output(runner, tmp_path, command):
    """A knob that changes no output byte does nothing and has no place."""
    assert set(OPTION_CASES) == set(main.commands)
    options = {param.name for param in main.commands[command].params} - PATH_OPTIONS
    assert set(OPTION_CASES[command]) == options
    for name, (base, change) in OPTION_CASES[command].items():
        before = _outputs(runner, tmp_path / f"{name}-base", base)
        after = _outputs(runner, tmp_path / f"{name}-moved", [*base, *change])
        assert before != after, f"{command} --{name} changed no output"


# ---------------------------------------------------------------------------
# module entry point and byte determinism
# ---------------------------------------------------------------------------


def run_module(args):
    return subprocess.run(
        [sys.executable, "-m", "talbotsim", *args], capture_output=True, check=False
    )


def test_module_entry_help():
    result = run_module(["--help"])
    assert result.returncode == 0
    assert b"Talbot carpets" in result.stdout


def test_stdout_closed_by_the_reader_exits_1_without_a_message():
    process = subprocess.Popen(
        [sys.executable, "-m", "talbotsim", "gate", "-d", "128", "-q", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = process.stdout.read(20)
    process.stdout.close()
    stderr = process.stderr.read()
    process.stderr.close()
    assert process.wait() == 1
    assert stderr == b""
    assert head == b'{\n  "kind": "talbot_'


def test_gate_output_is_byte_deterministic():
    first = run_module(["gate", "--dim", "4", "--steps", "3"])
    second = run_module(["gate", "--dim", "4", "--steps", "3"])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
