"""The benchmark's command: metrics and units as BENCHMARK.json declares, seeded inputs."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from conftest import BENCH, ROOT
from tracing import PER_LAYER
from workloads import WHY, make_inputs, pass_commands

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
    DECLARED = json.load(handle)


def test_declared_metrics_are_the_ones_reported():
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == PER_LAYER


def test_declared_workloads_and_why():
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == WHY


@pytest.mark.parametrize("workload", sorted(WHY))
def test_seed_changes_values_not_sizes(workload):
    same = pass_commands(workload, make_inputs(workload, 7))
    assert same == pass_commands(workload, make_inputs(workload, 7))
    other = pass_commands(workload, make_inputs(workload, 8))
    assert other != same
    sizes = ("--z-steps", "--x-steps", "--truncation", "--n-x", "--m-max", "-d", "-q")

    def shape(commands):
        return [[(flag, args[i + 1]) for i, flag in enumerate(args) if flag in sizes]
                + [len(args)] for args in commands]

    assert shape(other) == shape(same)


def _result(workload, trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WHY))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _result(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    lines = out.stdout.splitlines()
    assert "error_rate = 0.0 ratio" in lines
    assert "golden_mismatches = 0 count" in lines


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _result("gate_algebra", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
