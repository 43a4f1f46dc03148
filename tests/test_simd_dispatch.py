"""Pinned output bytes under a reduced NumPy SIMD dispatch.

NumPy picks its SIMD kernels when it is imported, and
NPY_DISABLE_CPU_FEATURES turns the newer ones off for one process.  Each
pinned command runs in a fresh process at the host's dispatch and again
at each reduced level, and its bytes must not change.  A level the host
does not reach (its top feature is off or part of NumPy's baseline) is
skipped, so on an AVX2-only host the AVX2 level means the same as it does
on an AVX-512 one.  Cases whose bytes are known to move are expected
failures, each with the kernel that moves it; with xfail_strict, such a
case fails once its bytes hold.
"""

import functools
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

import talbotsim

# The commands run in a temporary directory, so they find the package by an
# absolute path: the one this process imported.
SOURCE = str(pathlib.Path(talbotsim.__file__).resolve().parents[1])

# The dispatched features each level turns off.  The level reduces the
# host's dispatch only if the first is enabled and outside NumPy's baseline.
LEVELS = {
    "avx2": ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
    "sse": ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
}

# (arguments, files whose bytes count besides stdout)
PINNED = {
    "gate-5-3": (["gate", "-d", "5", "-q", "3"], []),
    "czgate-3-1": (["czgate", "-d", "3", "-k", "1"], []),
    "gate-256-511": (["gate", "-d", "256", "-q", "511"], []),
    "czgate-24-5": (["czgate", "-d", "24", "-k", "5"], []),
    "fidelity": (["fidelity"], []),
    "carpet": (["carpet", "--out", "carpet.pgm"], ["carpet.pgm"]),
    "carpet-csv": (["carpet", "--out", "carpet.pgm", "--csv", "carpet.csv"], ["carpet.csv"]),
    "prepare": (["prepare", "--theta", "0.8", "--phi", "1.1", "--out-prefix", "prep"],
                ["prep_program.json", "prep_carpet.pgm", "prep_masks.csv"]),
}

ENVELOPE_EXP = ("the float64 exp of the Gaussian envelope rounds apart from its AVX-512 "
                "kernel (3,182 of 65,536 samples at sigma = 5 with AVX-512 off)")
COMPLEX_MULTIPLY = "the SSE kernels of complex a*b and |z| round apart from the AVX2 ones"
MOVERS = {
    ("fidelity", "avx2"): ENVELOPE_EXP,
    ("fidelity", "sse"): ENVELOPE_EXP,
    ("gate-256-511", "sse"): COMPLEX_MULTIPLY + ", and the 511-step power loop spreads it",
    ("carpet-csv", "sse"): COMPLEX_MULTIPLY + "; the 8-bit PGM rounds the change away",
}


def _disabled(level: str) -> str | None:
    """The features to turn off for `level`, or None when the host cannot reach it."""
    top, *rest = LEVELS[level]
    if not __cpu_features__.get(top) or top in __cpu_baseline__:
        return None
    return " ".join(f for f in (top, *rest) if __cpu_features__.get(f) and f in __cpu_dispatch__)


@functools.cache
def _digest(name: str, disabled: str | None) -> str:
    args, files = PINNED[name]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")])))
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    with tempfile.TemporaryDirectory() as workdir:
        result = subprocess.run([sys.executable, "-m", "talbotsim", *args], cwd=workdir,
                                env=env, capture_output=True, check=True)
        digest = hashlib.sha256(result.stdout)
        for file in files:
            digest.update(pathlib.Path(workdir, file).read_bytes())
    return digest.hexdigest()


CASES = [
    pytest.param(name, level, id=f"{name}-{level}", marks=[
        pytest.mark.xfail(reason=MOVERS[name, level])] if (name, level) in MOVERS else [])
    for name in PINNED
    for level in LEVELS
]


@pytest.mark.parametrize("name,level", CASES)
def test_pinned_bytes_hold_under_a_reduced_dispatch(name, level):
    disabled = _disabled(level)
    if disabled is None:
        pytest.skip(f"the host's NumPy dispatch does not reach above {LEVELS[level][0]}")
    assert _digest(name, disabled) == _digest(name, None)
