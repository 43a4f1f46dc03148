"""The references in refs.py agree with the CLI at small sizes, sign conventions included."""

import json

import numpy as np
import pytest

import refs
from checks import read_csv, read_matrix
from tracing import run_pass


@pytest.mark.parametrize("dim, steps", [(2, 1), (4, 3), (5, 2), (6, 11), (7, -3)])
def test_gate_reference_matches_cli(tmp_path, monkeypatch, dim, steps):
    monkeypatch.chdir(tmp_path)
    _, codes, _ = run_pass([["gate", "-d", str(dim), "-q", str(steps), "--out", "g.json"]])
    assert codes == [0]
    emitted = read_matrix(json.loads((tmp_path / "g.json").read_text()))
    reference = refs.talbot_gate(dim, steps)
    # Equal without any phase alignment: the global phase convention matches too.
    assert np.abs(emitted - reference).max() < 1e-12
    assert refs.phase_aligned_error(reference, emitted) < 1e-12
    # The inverse gate is what the opposite sign convention would give.
    assert refs.phase_aligned_error(refs.talbot_gate(dim, -steps), emitted) > 1e-3


def test_carpet_reference_matches_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["carpet", "--slit-ratio", "0.3", "--z-steps", "9", "--x-steps", "16",
            "--truncation", "8", "--zeta-max", "0.7", "--out", "c.pgm", "--csv", "c.csv"]
    _, codes, _ = run_pass([args])
    assert codes == [0]
    _, _, rows = read_csv(tmp_path / "c.csv")
    table = np.array(rows, dtype=float)
    zeta = np.linspace(0.0, 0.7, 9)
    reference = refs.free_carpet(0.3, 8, zeta, 16)
    assert np.abs(table[:, 2] - reference.ravel()).max() < 1e-12
    # The slit [0, a) is not symmetric, so the opposite x convention (a
    # mirrored carpet) would not match.
    mirrored = reference[:, -np.arange(16) % 16]
    assert np.abs(table[:, 2] - mirrored.ravel()).max() > 1e-2


def test_fidelity_reference_matches_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["fidelity", "--n-slits", "5,9.5", "--n-x", "4096", "--truncation", "4",
            "--m-max", "3", "--out", "f.csv"]
    _, codes, _ = run_pass([args])
    assert codes == [0]
    _, _, rows = read_csv(tmp_path / "f.csv")
    emitted = np.array([float(r[2]) for r in rows])
    reference = np.concatenate([
        refs.envelope_fidelity(0.5, 4, 0.01, width, 4096, 16.0, (1, 2, 3))
        for width in (5.0, 9.5)
    ])
    assert np.abs(emitted - reference).max() < 1e-12


def test_cz_deviations_of_cli_gate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, codes, _ = run_pass([["czgate", "-d", "3", "-k", "1", "--out", "cz.json"]])
    assert codes == [0]
    matrix = read_matrix(json.loads((tmp_path / "cz.json").read_text())["matrix"])
    assert max(refs.cz_deviations(matrix, 3, 1).values()) < 1e-12
    # The same matrix read as a CZ on another level has the pi phase misplaced.
    assert refs.cz_deviations(matrix, 3, 2)["chi"] == pytest.approx(np.pi)
