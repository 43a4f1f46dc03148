"""Slit-basis measurement of qudit states."""

import numpy as np

__all__ = ["measure_probabilities", "sample_counts"]


def measure_probabilities(state: np.ndarray) -> np.ndarray:
    """Probabilities |<d|state>|^2; rejects a norm off 1 by more than 1e-9."""
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        raise ValueError(f"state must be a vector, got shape {state.shape}")
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm {norm!r} deviates from 1 by more than 1e-09")
    return np.abs(state) ** 2


def sample_counts(state: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts of `shots` slit-basis measurements.

    Seeded PCG64 stream; identical (state, shots, seed) always reproduce
    identical counts.
    """
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    p = measure_probabilities(state)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p)
