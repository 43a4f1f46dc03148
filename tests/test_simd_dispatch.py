"""Pinned output bytes under a reduced NumPy SIMD dispatch.

NumPy picks its SIMD kernels when it is imported, and
NPY_DISABLE_CPU_FEATURES turns the newer ones off for one process.  Every
command of pins.json runs in a fresh process at the host's dispatch and
again at each reduced level, and its bytes must not change.  A level the
host does not reach (its top feature is off or part of NumPy's baseline)
is skipped, so on an AVX2-only host the AVX2 level means the same as it
does on an AVX-512 one.  Cases whose bytes are known to move (an entry's
`moves`) are expected failures, each with the kernel that moves it; with
xfail_strict, such a case fails once its bytes hold.
"""

import pytest

import pins

CASES = [
    pytest.param(pin["id"], level, id=f"{pin['id']}-{level}", marks=[
        pytest.mark.xfail(reason=pin["moves"][level])] if level in pin["moves"] else [])
    for pin in pins.PINS
    for level in pins.LEVELS
]


@pytest.mark.parametrize("pin_id,level", CASES)
def test_pinned_bytes_hold_under_a_reduced_dispatch(pin_id, level):
    if pins.disabled(level) is None:
        pytest.skip(f"the host's NumPy dispatch does not reach above {pins.LEVELS[level][0]}")
    assert pins.run(pin_id, level) == pins.run(pin_id)
