"""The pinned outputs of pins.json and the one runner that produces them.

Each entry of pins.json is one ``python -m talbotsim`` command:

- ``argv``, and ``inputs``: the files of the manifest's "inputs" it reads;
- ``threads``: the BLAS thread count it runs at, since the fidelity CSVs
  depend on it;
- ``outputs``: each pinned output, "stdout" or a file the command writes,
  with its sha256 or a [workload, name] reference into
  perfbench/golden.json, which stays the benchmark's file and is read here,
  never copied;
- ``moves``: the reduced SIMD dispatch levels at which its bytes are known
  to move, each with the kernel that moves them;
- ``test`` and ``case``: the test that checks its hashes, and the case id
  there (null for a test that checks several entries at once).

A re-pin edits one entry and adds a CHANGES.md line with the old and new
hash, the command and the largest numeric change in the output.
"""

import concurrent.futures
import functools
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

import talbotsim

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = json.loads((HERE.parent / "perfbench" / "golden.json").read_text())
MANIFEST = json.loads((HERE / "pins.json").read_text())
PINS = MANIFEST["pins"]

# The commands run in a temporary directory, so they find the package by an
# absolute path: the one this process imported.
SOURCE = str(pathlib.Path(talbotsim.__file__).resolve().parents[1])

# The dispatched features each level turns off.  The level reduces the
# host's dispatch only if the first is enabled and outside NumPy's baseline.
LEVELS = {
    "avx2": ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
    "sse": ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
}


def checked_by(test: str) -> list:
    """The entries whose hashes `test` checks, in manifest order."""
    return [pin for pin in PINS if pin["test"] == test]


def disabled(level: str) -> str | None:
    """The features to turn off for `level`, or None when the host cannot reach it."""
    top, *rest = LEVELS[level]
    if not __cpu_features__.get(top) or top in __cpu_baseline__:
        return None
    return " ".join(f for f in (top, *rest) if __cpu_features__.get(f) and f in __cpu_dispatch__)


def command(pin: dict) -> str:
    return " ".join(["talbotsim", *pin["argv"]])


def run(pin_id: str, level: str | None = None) -> dict:
    """{output: sha256} of stdout and of every file the entry's command writes.

    `level` None runs at the host's own dispatch; a reduced level turns its
    features off with NPY_DISABLE_CPU_FEATURES.  The first call at a level
    runs every entry there, two commands at a time, and later calls read
    that run, so one default run serves every test that reads it.
    """
    return _runs(level)[pin_id].result()


@functools.cache
def _runs(level: str | None) -> dict:
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        return {pin["id"]: pool.submit(_run, pin, level) for pin in PINS}


def _run(pin: dict, level: str | None) -> dict:
    threads = str(pin["threads"])
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")])))
    if level is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled(level)
    inputs = pin.get("inputs", [])
    with tempfile.TemporaryDirectory() as workdir:
        for name in inputs:
            pathlib.Path(workdir, name).write_text(json.dumps(MANIFEST["inputs"][name]))
        result = subprocess.run([sys.executable, "-m", "talbotsim", *pin["argv"]], cwd=workdir,
                                env=env, capture_output=True)
        assert result.returncode == 0, (
            f"{pin['id']}: `{command(pin)}` exited {result.returncode}: {result.stderr.decode()}")
        digests = {"stdout": hashlib.sha256(result.stdout).hexdigest()}
        for path in sorted(pathlib.Path(workdir).iterdir()):
            if path.name not in inputs:
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def check(pin: dict) -> None:
    """Assert that the entry's command, at the host's dispatch, writes its pinned bytes."""
    digests = run(pin["id"])
    for output, digest in pin["outputs"].items():
        if isinstance(digest, list):
            workload, name = digest
            digest = GOLDEN[workload][name]
        assert digests.get(output) == digest, (
            f"{pin['id']}: `{command(pin)}` {output} was pinned at {digest}, "
            f"now hashes to {digests.get(output)}")
