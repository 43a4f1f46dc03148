"""Command line interface: outputs, exit codes, determinism."""

import ast
import hashlib
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from talbotsim import (
    build_cz,
    fidelity,
    hadamard_program,
    program_from_json,
    program_to_json,
    talbot_cycle_length,
    talbot_unitary,
    verify,
)
from talbotsim.cli import main

import pins


@pytest.fixture()
def runner():
    return CliRunner()


def _cells(matrix) -> list:
    """The [[{"re", "im"}]] rows json.dumps would write for a complex matrix."""
    return [[{"re": z.real, "im": z.imag} for z in row] for row in matrix.tolist()]


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def test_gate_stdout_matches_library(runner):
    result = runner.invoke(main, ["gate", "--dim", "3", "--steps", "2"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kind"] == "talbot_unitary"
    assert payload["steps"] == 2
    assert payload["entries"] == _cells(talbot_unitary(3, 2))


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
    checks = json.loads(report.read_text())["checks"]
    # a red run names the checks that broke before it reports the exit code
    assert [f"{c['suite']}: {c['name']}" for c in checks if not c["passed"]] == []
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == "suite 'all': all checks passed"
    assert len(checks) == 160
    names = "\n".join(f"{check['suite']}: {check['name']}" for check in checks)
    assert hashlib.sha256(names.encode()).hexdigest() == (
        "93b03565eba130dbabea04d7fb513ad2f68754a07cc1012b011d62f92cfedc6b"
    )


def test_verify_unknown_suite_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "--suite", "bogus"])
    assert result.exit_code == 2


def test_verify_fails_on_a_unitary_reflection_sign_flip(runner, monkeypatch):
    # a control splitter with -r in place of r is still unitary, and every
    # figure of merit taken up to local phases still passes; only the
    # closed form sees the sign
    from talbotsim import photonpair

    original = photonpair.control_splitter

    def flipped(D, k):
        spec = original(D, k)
        return photonpair.SDBSSpec(spec.transmission, -spec.reflection)

    monkeypatch.setattr(photonpair, "control_splitter", flipped)
    result = verify.run_suite("czgate")
    assert not result["all_passed"]
    closed = [c for c in result["checks"] if c["name"].startswith("closed form")]
    assert len(closed) == 9
    assert not any(check["passed"] for check in closed)
    assert runner.invoke(main, ["verify", "--suite", "czgate"]).exit_code == 1


def test_clifford_certificate_holds_for_every_talbot_power():
    # 1.3e-14 at worst; the certificate takes only the first column
    for D in range(1, 41):
        for q in range(-3, talbot_cycle_length(D) + 2):
            assert verify._clifford_residual(talbot_unitary(D, q)[:, 0], q) <= 1e-12, (D, q)


def test_verify_clifford_rows_see_a_scaled_step_weight(monkeypatch):
    # one step weight off by 1e-11 keeps every group law within 1e-10;
    # past the qubit landmarks only the Clifford relation sees it
    from talbotsim import gates

    original = gates.talbot_step_coefficients

    def scaled(D):
        weights = original(D).copy()
        weights[0] *= 1 + 1e-11
        return weights

    monkeypatch.setattr(gates, "talbot_step_coefficients", scaled)
    failed = [c["name"] for c in verify.run_suite("all")["checks"] if not c["passed"]]
    assert "clifford D=7 q=1" in failed and "clifford D=8 q=15" in failed
    assert {name for name in failed if not name.startswith("clifford")} == {
        "qubit quarter step", "qubit half step = X", "hadamard program"
    }


def test_verify_clifford_rows_fail_a_non_quadratic_mask_sandwich(monkeypatch):
    # a random mask on either side keeps the gate unitary but breaks the
    # quadratic phase that makes it Clifford
    rng = np.random.default_rng(7)

    def sandwiched(D, q=1):
        mask = np.exp(1j * rng.uniform(-np.pi, np.pi, D))
        return mask[:, None] * talbot_unitary(D, q) * mask.conj()

    monkeypatch.setattr(verify, "talbot_unitary", sandwiched)
    rows = [c for c in verify.run_suite("algebra")["checks"] if c["name"].startswith("clifford")]
    assert len(rows) == 23
    assert not any(row["passed"] for row in rows)


def test_verify_library_error_is_a_failure_not_a_usage_error(runner, monkeypatch, tmp_path):
    # a filter that attenuates level k too leaves moduli that differ by
    # input, and the czgate suite raises inside the library: verify takes
    # no input to blame, so the error is the suite's last, failed record
    # and the other suites run
    from talbotsim import photonpair

    def unbalanced(D, k):
        return photonpair.SDBSSpec(np.full(D, 3 ** -0.5), np.full(D, (2 / 3) ** 0.5))

    monkeypatch.setattr(photonpair, "filter_splitter", unbalanced)
    report = tmp_path / "report.json"
    for args in ([], ["--suite", "czgate"], ["--json-out", str(report)]):
        result = runner.invoke(main, ["verify", *args])
        assert result.exit_code == 1
        assert "Usage:" not in result.output
        assert result.stderr == ""
        lines = result.stdout.splitlines()
        assert lines[-2] == (
            "[FAIL] czgate: error: diagonal moduli must be uniform and nonzero "
            "value=nan tol=0.0e+00"
        )
        assert lines[-1].endswith(" FAILURES present")
        if "--suite" not in args:
            others = [line for line in lines[:-1] if "] czgate: " not in line]
            assert {line.split("] ")[1].split(":")[0] for line in others} == {
                "algebra", "qft", "crosscheck"
            }
            assert all(line.startswith("[PASS] ") for line in others)
    text = report.read_text()
    payload = json.loads(text)
    assert payload["all_passed"] is False
    last = payload["checks"][-1]
    assert last["suite"] == "czgate" and last["passed"] is False
    assert np.isnan(last["value"])
    assert '"value": NaN' in text


def test_verify_diagonality_reads_the_mode_map(monkeypatch):
    # build_cz keeps only the diagonal of each block of the mode map, so a
    # map that moves a photon to another level is what the row must catch
    original = verify.sdbs_mode_map

    def leaky(spec):
        U = original(spec)
        U[0, 1] = 1e-6
        return U

    monkeypatch.setattr(verify, "sdbs_mode_map", leaky)
    rows = [c for c in verify.run_suite("czgate")["checks"]
            if c["name"].startswith("diagonality")]
    assert len(rows) == 9
    assert all(not c["passed"] and c["value"] == 1e-6 for c in rows)


@pytest.mark.parametrize("error", [ValueError, MemoryError])
def test_verify_error_ends_its_suite_and_the_next_suites_run(monkeypatch, error):
    original = verify.gate_crosscheck

    def crosscheck(dim):
        if dim == 4:
            raise error("crosscheck broke at D=4")
        return original(dim)

    monkeypatch.setattr(verify, "gate_crosscheck", crosscheck)
    result = verify.run_suite("all")
    assert result["all_passed"] is False
    crosschecks = [c for c in result["checks"] if c["suite"] == "crosscheck"]
    assert [c["name"] for c in crosschecks] == [
        "wave vs matrix D=2", "projection residual D=2",
        "wave vs matrix D=3", "projection residual D=3",
        "error: crosscheck broke at D=4",
    ]
    assert all(c["passed"] for c in crosschecks[:4])
    assert crosschecks[-1]["passed"] is False
    assert np.isnan(crosschecks[-1]["value"])
    assert crosschecks[-1]["tolerance"] == 0.0
    czgate = [c for c in result["checks"] if c["suite"] == "czgate"]
    assert len(czgate) == 55
    assert all(c["passed"] for c in czgate)


def test_run_suite_rows_are_plain_dicts_kept_up_to_a_raise(monkeypatch):
    def suite():
        yield "first", 0.5, 1.0
        yield "second", 2.0, 1.0
        raise ValueError("broke after two rows")

    monkeypatch.setitem(verify._SUITES, "qft", suite)
    result = verify.run_suite("qft")
    assert all(type(row) is dict for row in result["checks"])
    assert [list(row) for row in result["checks"]] == [
        ["suite", "name", "value", "tolerance", "passed"]
    ] * 3
    assert [row["name"] for row in result["checks"]] == [
        "first", "second", "error: broke after two rows"
    ]
    assert [row["passed"] for row in result["checks"]] == [True, False, False]
    assert result["all_passed"] is False


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


def test_carpet_program_level_outside_the_encoding_is_named(runner, tmp_path):
    program_path = tmp_path / "program.json"
    program_path.write_text(json.dumps(pins.MANIFEST["inputs"]["program.json"]))
    out = tmp_path / "program.pgm"
    result = runner.invoke(main, ["carpet", "--slit-ratio", "0.125", "--program",
                                  str(program_path), "--initial-level", "4", "--out", str(out)])
    assert result.exit_code == 2
    assert "level must satisfy 0 <= d < D, got 4" in result.output
    assert not out.exists()


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


@pytest.mark.parametrize("pin", pins.checked_by("test_fidelity_csv_bytes_are_pinned"),
                         ids=lambda pin: pin["case"])
def test_fidelity_csv_bytes_are_pinned(pin):
    # BLAS reductions make the fidelity bytes depend on the thread count,
    # so each pin runs in a fresh process with the count fixed
    pins.check(pin)


@pytest.mark.parametrize("pin", pins.checked_by("test_carpet_csv_bytes_are_pinned"),
                         ids=lambda pin: pin["case"])
def test_carpet_csv_bytes_are_pinned(pin):
    pins.check(pin)


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
    assert payload["matrix"]["entries"] == _cells(op.matrix)


@pytest.mark.parametrize(
    "pin", [pin for pin in pins.PINS if pin["argv"][0] in ("gate", "czgate")],
    ids=lambda pin: pin["id"],
)
def test_gate_algebra_out_file_equals_stdout(runner, tmp_path, pin):
    # the large outputs the JSON writer streams row by row (5.8 MB and 20.6 MB
    # at gate-256-511 and czgate-24-5) must not depend on the destination
    path = tmp_path / "out.json"
    assert runner.invoke(main, [*pin["argv"], "--out", str(path)]).exit_code == 0
    to_stdout = runner.invoke(main, pin["argv"])
    assert to_stdout.exit_code == 0
    assert to_stdout.stdout_bytes == path.read_bytes()


def test_default_gate_algebra_bytes_match_golden_hashes():
    for pin in pins.checked_by("test_default_gate_algebra_bytes_match_golden_hashes"):
        pins.check(pin)


@pytest.mark.parametrize("pin", pins.checked_by("test_benchmark_size_gate_algebra_bytes_are_pinned"),
                         ids=lambda pin: pin["case"])
def test_benchmark_size_gate_algebra_bytes_are_pinned(pin):
    pins.check(pin)


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
    "two-kinds": '{"dim": 2, "steps": [{"propagate": {"num": 1, "den": 4}, '
                 '"phase_mask": [0.0, 1.0]}]}',
    "propagate-extra-key": '{"dim": 2, "steps": [{"propagate": {"num": 1, "den": 4, "q": 3}}]}',
    "bool-phase": '{"dim": 2, "steps": [{"propagate": {"num": 1, "den": 4}}, '
                  '{"phase_mask": [true, false]}, {"propagate": {"num": 1, "den": 4}}]}',
    "not-json": "{",
}

FOUR_LEVEL_PROGRAM = ('{"dim": 4, "steps": [{"propagate": {"num": 1, "den": 8}}, '
                      '{"phase_mask": [0.1, 0.2, 0.3, 0.4]}, '
                      '{"propagate": {"num": 1, "den": 8}}]}')

FAR_PROGRAM = json.dumps({"dim": 2, "steps": [{"propagate": {"num": 10**400, "den": 4}}]})

# a denominator past the exact-residue bound, whose numerator no float holds
FAR_MASKED_PROGRAM = json.dumps({"dim": 2, "steps": [
    {"propagate": {"num": 10**400, "den": 10**10 + 1}},
    {"phase_mask": [0.0, 1.0]},
    {"propagate": {"num": 1, "den": 4}},
]})

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
    # extent_factor * sigma overflows to inf, so the sample positions are NaN
    "fidelity-extent-overflow": ["fidelity", "--n-slits", "5", "--m-max", "1",
                                 "--extent-factor", "1e308", "--n-x", "1024"],
    # x^2 overflows at the grid's edge: exit 0 with a RuntimeWarning and a
    # fidelity of 1.0000000000000004
    "fidelity-extent-square-overflow": ["fidelity", "--n-slits", "5", "--m-max", "1",
                                        "--extent-factor", "1e300", "--n-x", "1024"],
    # sigma^2 is finite and 2 sigma^2 is not: "cannot normalize a field of
    # norm nan" after two RuntimeWarnings
    "fidelity-n-slits-double-square-overflow": ["fidelity", "--n-slits", "1e154", "--m-max",
                                                "1", "--n-x", "1024"],
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
    # pi * slit_width^2 underflows, so the mode amplitudes are subnormal: the
    # fidelity read the bare-Gaussian value, the carpet NaN intensities
    "fidelity-slit-ratio-tiny": ["fidelity", "--slit-ratio", "1e-200", "--n-x", "1024",
                                 "--m-max", "2"],
    "carpet-slit-ratio-subnormal": ["carpet", "--slit-ratio", "1e-320", "--out", "out.pgm"],
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
    # the span's width overflows, which would leave NaN rows in the image
    "carpet-zeta-width-overflow": ["carpet", "--zeta-min", "-1e308", "--zeta-max", "1e308",
                                   "--out", "out.pgm"],
    # a valid program whose total distance no float holds
    "carpet-program-distance-overflow": ["carpet", "--program", "far.json", "--out", "out.pgm"],
    # it raised OverflowError in the mask walk, before the span was checked
    "carpet-program-distance-unreduced": ["carpet", "--program", "far-masked.json", "--out",
                                          "out.pgm"],
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
    (tmp_path / "far.json").write_text(FAR_PROGRAM)
    (tmp_path / "far-masked.json").write_text(FAR_MASKED_PROGRAM)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output
    assert "Traceback" not in result.output
    assert not any(tmp_path.glob("out*"))


@pytest.mark.parametrize("name", ["fidelity-slit-ratio-tiny", "carpet-slit-ratio-subnormal"])
def test_slit_ratio_whose_amplitudes_underflow_is_named(runner, tmp_path, monkeypatch, name):
    # without the bound, fidelity exited 0 with the bare-Gaussian fidelity
    # and carpet failed later, on NaN intensities
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, BAD_INPUT[name])
    assert result.exit_code == 2
    ratio = BAD_INPUT[name][2]
    assert f"slit_width {ratio} is too small: pi * slit_width^2 underflows" in result.output


def test_extent_that_overflows_is_named(runner, tmp_path, monkeypatch):
    # without the check, evaluate refused the NaN positions: "positions must
    # be finite, got nan"
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, BAD_INPUT["fidelity-extent-overflow"])
    assert result.exit_code == 2
    assert "extent_factor 1e+308 times sigma 5.0 overflows" in result.output


@pytest.mark.parametrize(
    "name, message",
    [
        ("fidelity-extent-square-overflow", "extent_factor 1e+300 times sigma 5.0 overflows"),
        ("fidelity-n-slits-double-square-overflow", "sigma 1e+154 is out of range"),
    ],
    ids=["extent-square", "n-slits-double-square"],
)
def test_envelope_that_overflows_is_named(runner, tmp_path, monkeypatch, name, message):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, BAD_INPUT[name])
    assert result.exit_code == 2
    assert message in result.output
    assert "RuntimeWarning" not in result.output


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


# Sizes whose arrays no machine holds: czgate's dense D^4 matrix
# (14.6 TiB), fidelity's grid (8 TiB) and its tuple of 10^11 revival
# orders, whose bare MemoryError carries no text of its own.
ABSURD_SIZES = {
    "czgate-dim-1000": ["czgate", "-d", "1000", "-k", "0"],
    "fidelity-n-x-2^40": ["fidelity", "--n-slits", "5", "--m-max", "1", "--n-x", str(2**40)],
    "fidelity-m-max-10^11": ["fidelity", "--n-slits", "5", "--n-x", "1024",
                             "--m-max", str(10**11)],
}

# `python -m talbotsim ARGS` with 64 GiB of address space, so that the
# allocation fails at once even where the kernel would overcommit it.
RUN_WITH_ADDRESS_LIMIT = """
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (64 << 30, 64 << 30))
sys.argv[0] = "talbotsim"
runpy.run_module("talbotsim", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("args", ABSURD_SIZES.values(), ids=ABSURD_SIZES.keys())
def test_absurd_sizes_are_usage_errors(args):
    result = subprocess.run([sys.executable, "-c", RUN_WITH_ADDRESS_LIMIT, *args],
                            capture_output=True, check=False)
    assert result.returncode == 2
    assert b"Error: Unable to allocate" in result.stderr
    assert b"Traceback" not in result.stderr
    assert result.stdout == b""


# `python -m talbotsim ARGS` that prints, at exit, every module it loaded.
LIST_LOADED_MODULES = """
import atexit, runpy, sys
atexit.register(lambda: print(sorted(sys.modules), file=sys.stderr))
sys.argv[0] = "talbotsim"
runpy.run_module("talbotsim", run_name="__main__", alter_sys=True)
"""


def loaded_modules(args) -> set:
    result = subprocess.run([sys.executable, "-c", LIST_LOADED_MODULES, *args],
                            capture_output=True, check=False)
    assert result.returncode == 0, result.stderr
    return set(ast.literal_eval(result.stderr.decode().splitlines()[-1]))


def talbotsim_modules(loaded: set) -> set:
    return {name for name in loaded if name.startswith("talbotsim.")}


def test_help_loads_only_the_cli():
    assert talbotsim_modules(loaded_modules(["--help"])) == {"talbotsim.cli"}


def test_gate_loads_no_wave_optics_and_no_other_command():
    # the program codec in serialize imports programs (and fractions) only when called
    loaded = loaded_modules(["gate", "-d", "3"])
    expected = {"cli", "gates", "gauss", "serialize"}
    assert talbotsim_modules(loaded) == {f"talbotsim.{name}" for name in expected}
    assert not loaded & {"fractions", "decimal"}


def test_czgate_loads_no_wave_optics_and_no_other_command():
    loaded = loaded_modules(["czgate", "-d", "3", "-k", "1"])
    expected = {"cli", "gauss", "photonpair", "serialize"}
    assert talbotsim_modules(loaded) == {f"talbotsim.{name}" for name in expected}
    assert not loaded & {"fractions", "decimal"}


def test_cli_literals_are_the_library_values():
    # cli.py spells these out so that --help imports neither module
    suite = next(p for p in main.commands["verify"].params if p.name == "suite")
    assert list(suite.type.choices) == [*verify._SUITES, "all"]
    defaults = {p.name: p.default for p in main.commands["fidelity"].params}
    library = {
        "slit_ratio": fidelity.DEFAULT_SLIT_WIDTH,
        "wavelength": fidelity.DEFAULT_WAVELENGTH,
        "truncation": fidelity.DEFAULT_MODE_TRUNCATION,
        "n_x": fidelity.DEFAULT_SAMPLES,
        "extent_factor": fidelity.DEFAULT_EXTENT_FACTOR,
    }
    for name, value in library.items():
        assert type(defaults[name]) is type(value), name
        assert defaults[name] == value, name


def test_gate_output_is_byte_deterministic():
    first = run_module(["gate", "--dim", "4", "--steps", "3"])
    second = run_module(["gate", "--dim", "4", "--steps", "3"])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
