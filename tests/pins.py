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
hash, the command and the largest numeric change in the output.  report()
gives those lines for two source trees; from the repository root,

    PYTHONPATH=src python tests/pins.py OLD_SRC NEW_SRC [ID ...]

prints them for every entry, or for the named ones, then a summary line
with the entries run and the outputs moved; it exits 1 if any output moved.
"""

import concurrent.futures
import functools
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
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
    return {name: _sha256(data) for name, data in _outputs(pin, level, SOURCE).items()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(pin: dict, level: str | None, source: str) -> dict:
    """{output: bytes} of stdout and every file the entry's command writes,
    with the package imported from the source tree `source`."""
    threads = str(pin["threads"])
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
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
        outputs = {"stdout": result.stdout}
        for path in sorted(pathlib.Path(workdir).iterdir()):
            if path.name not in inputs:
                outputs[path.name] = path.read_bytes()
    return outputs


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


def report(old_src, new_src, ids=None) -> list:
    """One line per pinned output whose sha256 moves from old_src to new_src.

    Each entry (every one, or those named in `ids`) runs at its thread count
    with the package imported from each source tree in turn.  A line names
    the entry, its command, the output, both hashes and largest_change(); an
    output that a tree does not write compares as empty.
    """
    known = [pin["id"] for pin in PINS]
    unknown = sorted(set(ids or ()) - set(known))
    if unknown:
        raise ValueError(f"no pin entry {', '.join(unknown)}; entries are {', '.join(known)}")
    sources = [str(pathlib.Path(src).resolve()) for src in (old_src, new_src)]
    lines = []
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        for pin in PINS:
            if ids is not None and pin["id"] not in ids:
                continue
            old, new = pool.map(lambda source: _outputs(pin, None, source), sources)
            for name in pin["outputs"]:
                before, after = old.get(name, b""), new.get(name, b"")
                if before != after:
                    lines.append(f"{pin['id']}: `{command(pin)}` {name} {_sha256(before)} -> "
                                 f"{_sha256(after)}: {largest_change(before, after)}")
    return lines


# A decimal number, with its sign, as JSON, CSV and the stdout texts write it.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")


def largest_change(old: bytes, new: bytes) -> str:
    """The largest numeric change from old to new output bytes, in words.

    A PGM compares its levels.  Text (JSON, CSV, stdout lines) compares line
    by line every number, JSON's re and im cells included, and needs the
    text between the numbers to match; otherwise the note names the shape,
    line count or first line that changed.
    """
    if old.startswith(b"P5\n") and new.startswith(b"P5\n"):
        # header "P5\n<width> <height>\n255\n", then one byte per level
        _, old_size, _, old_levels = old.split(b"\n", 3)
        _, new_size, _, new_levels = new.split(b"\n", 3)
        if old_size != new_size:
            return f"shape changed: {old_size.decode()} -> {new_size.decode()}"
        change = np.abs(np.frombuffer(old_levels, np.uint8).astype(int)
                        - np.frombuffer(new_levels, np.uint8))
        return f"largest level change {change.max()}"
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    if len(old_lines) != len(new_lines):
        return f"line count changed: {len(old_lines)} -> {len(new_lines)}"
    largest = 0.0
    for number, (old_line, new_line) in enumerate(zip(old_lines, new_lines), 1):
        before, after = _NUMBER.split(old_line), _NUMBER.split(new_line)
        if before[::2] != after[::2]:
            return f"line {number} changed beyond its numbers"
        for x, y in zip(before[1::2], after[1::2]):
            if x != y:
                largest = max(largest, abs(float(x) - float(y)))
    return f"largest numeric change {largest:.3g}"


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(f"usage: python {sys.argv[0]} OLD_SRC NEW_SRC [ID ...]")
    ids = sys.argv[3:] or None
    try:
        lines = report(sys.argv[1], sys.argv[2], ids)
    except ValueError as error:
        sys.exit(str(error))
    for line in lines:
        print(line)
    # report() refuses an unknown id, so every distinct id named an entry
    entries = len(set(ids)) if ids else len(PINS)
    print(f"entries run: {entries}, outputs moved: {len(lines)}")
    sys.exit(1 if lines else 0)
