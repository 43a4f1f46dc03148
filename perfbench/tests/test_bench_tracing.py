"""Traced passes: bindings restored, outputs unchanged, self times partition the pass."""

import sys

import numpy as np
import pytest

from tracing import FFT_TRANSFORMS, PER_LAYER, SPAN_LAYERS, Tracer, output_digests, run_pass

COMMANDS = [
    ["gate", "-d", "6", "-q", "11", "--out", "gate.json"],
    ["carpet", "--z-steps", "9", "--x-steps", "16", "--truncation", "8",
     "--out", "c.pgm", "--csv", "c.csv"],
    ["prepare", "--theta", "0.4", "--phi", "0.3", "--z-steps", "9", "--x-steps", "16",
     "--out-prefix", "prep"],
    ["fidelity", "--n-slits", "5", "--n-x", "4096", "--m-max", "2", "--out", "f.csv"],
    ["czgate", "-d", "3", "-k", "1", "--out", "cz.json"],
    ["verify", "--suite", "crosscheck"],
]


def _bindings():
    """Every attribute a traced pass may rebind, by (owner, name)."""
    from talbotsim.grating import ModeField

    out = {(name, attribute): value
           for name, module in list(sys.modules.items())
           if name == "talbotsim" or name.startswith("talbotsim.")
           for attribute, value in vars(module).items()}
    out[("ModeField", "evaluate")] = ModeField.evaluate
    out.update({("numpy.fft", name): getattr(np.fft, name) for name in FFT_TRANSFORMS})
    out[("numpy.linalg", "lstsq")] = np.linalg.lstsq
    return out


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_pass(COMMANDS)  # imports every module the pass needs before snapshots
    return tmp_path


def test_bindings_restored_after_traced_pass(workdir):
    before = _bindings()
    tracer = Tracer()
    _, codes, _ = run_pass(COMMANDS, tracer)
    assert codes == [0] * len(COMMANDS)
    assert tracer.calls["carpet.render_carpet"] == 1
    assert tracer.calls["grating.evaluate"] > 0
    assert tracer.calls["projection.lstsq"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_and_untraced_passes_write_identical_bytes(workdir):
    _, _, stdouts = run_pass(COMMANDS)
    plain = output_digests(workdir, stdouts)
    _, _, stdouts = run_pass(COMMANDS, Tracer())
    assert output_digests(workdir, stdouts) == plain


def test_self_times_partition_the_pass(workdir):
    tracer = Tracer()
    wall, _, _ = run_pass(COMMANDS, tracer)
    metrics = tracer.pass_metrics(wall)
    layers = sum(metrics[f"{layer}.self_s"] for layer in SPAN_LAYERS)
    assert layers + metrics["cli.self_s"] == pytest.approx(wall, rel=1e-9)
    assert min(metrics[f"{layer}.self_s"] for layer in SPAN_LAYERS) >= 0.0
    assert metrics["cli.self_s"] >= 0.0
    measured_outside = {"import.numpy_s", "import.talbotsim_s", "trace.overhead_frac"}
    assert set(metrics) == {name for name, _, _ in PER_LAYER} - measured_outside


def test_counts_follow_the_arguments(workdir):
    tracer = Tracer()
    run_pass([["carpet", "--z-steps", "9", "--x-steps", "16", "--truncation", "8",
               "--out", "c.pgm"],
              ["gate", "-d", "6", "-q", "11", "--out", "gate.json"]], tracer)
    metrics = tracer.pass_metrics(1.0)
    assert metrics["carpet.rows"] == 9
    assert metrics["grating.evaluate.calls"] == 9
    assert metrics["grating.evaluate.points"] == 9 * 16
    assert metrics["grating.evaluate.ops"] == 9 * 16 * 17
    assert metrics["grating.evaluate.peak_bytes"] == 16 * 17 * 16
    assert metrics["gates.talbot_unitary.ops"] == 11 * 36
    assert metrics["propagation.paraxial.exact_share"] == 0.0
