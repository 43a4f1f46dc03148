"""Slit-basis measurement of qudit states."""

import numpy as np

__all__ = ["measure_probabilities"]


def measure_probabilities(state: np.ndarray) -> np.ndarray:
    """Probabilities |<d|state>|^2; rejects a norm off 1 by more than 1e-9."""
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        raise ValueError(f"state must be a vector, got shape {state.shape}")
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm {norm!r} deviates from 1 by more than 1e-09")
    return np.abs(state) ** 2

