"""Measurement statistics."""

import numpy as np
import pytest

from talbotsim import measure_probabilities, talbot_unitary


def test_probabilities_of_quarter_step_on_slit_zero():
    e0 = np.zeros(2, dtype=complex)
    e0[0] = 1.0
    p = measure_probabilities(talbot_unitary(2, 1) @ e0)
    assert np.abs(p - 0.5).max() < 1e-12


def test_probabilities_sum_to_one():
    state = np.array([0.5, 0.5j, -0.5, 0.5])
    p = measure_probabilities(state)
    assert abs(p.sum() - 1.0) < 1e-12


def test_unnormalized_rejected():
    with pytest.raises(ValueError, match="norm"):
        measure_probabilities(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="vector"):
        measure_probabilities(np.eye(2))

