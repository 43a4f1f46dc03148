"""Optical programs: alternating free propagation and phase masks.

A program on a D-level system is an ordered list of steps.  Propagation
distances are exact rationals in units of twice the Talbot length and must
be multiples of the canonical step (1/(2D) for even D, 1/D for odd D), so
every program compiles to an exact product of circulant and diagonal
unitaries.  Steps are listed in the order light traverses them; the
compiled matrix is the reverse-order product.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gates import diagonal_gate, talbot_cycle_length, talbot_unitary
from .gauss import _integer

__all__ = [
    "Propagate",
    "PhaseMask",
    "OpticalProgram",
    "compile_program",
    "hadamard_program",
    "hadamard_via_talbot",
    "prepare_bloch_state",
]


@dataclass(frozen=True)
class Propagate:
    """Free propagation by `distance` (units of twice the Talbot length)."""

    distance: Fraction

    def __post_init__(self):
        if not isinstance(self.distance, Fraction):
            object.__setattr__(self, "distance", Fraction(self.distance))
        if self.distance < 0:
            raise ValueError(f"propagation distance must be >= 0, got {self.distance}")


@dataclass(frozen=True)
class PhaseMask:
    """Slitwise phase plate: level d acquires exp(i phases[d])."""

    phases: tuple[float, ...]

    def __post_init__(self):
        phases = tuple(float(p) for p in self.phases)
        if not all(math.isfinite(p) for p in phases):
            raise ValueError(f"mask phases must be finite, got {phases}")
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True)
class OpticalProgram:
    dim: int
    steps: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dimension", positive=True))
        object.__setattr__(self, "steps", tuple(self.steps))
        for index, step in enumerate(self.steps):
            if isinstance(step, PhaseMask):
                if len(step.phases) != self.dim:
                    raise ValueError(
                        f"step {index}: mask has {len(step.phases)} phases, expected {self.dim}"
                    )
            elif not isinstance(step, Propagate):
                raise TypeError(f"step {index}: expected Propagate or PhaseMask, got {step!r}")

    @property
    def total_distance(self) -> Fraction:
        return sum(
            (s.distance for s in self.steps if isinstance(s, Propagate)),
            Fraction(0),
        )

    def masks(self) -> list[tuple[Fraction, PhaseMask]]:
        """Each mask paired with the cumulative distance at which it sits."""
        z = Fraction(0)
        masks = []
        for step in self.steps:
            if isinstance(step, Propagate):
                z += step.distance
            else:
                masks.append((z, step))
        return masks


def compile_program(program: OpticalProgram) -> np.ndarray:
    """Exact unitary of a program, steps applied in listed order."""
    D = program.dim
    r = talbot_cycle_length(D)
    matrix = np.eye(D, dtype=complex)
    for index, step in enumerate(program.steps):
        if isinstance(step, Propagate):
            q = step.distance * r
            if q.denominator != 1:
                raise ValueError(
                    f"step {index}: distance {step.distance} is not a multiple "
                    f"of the canonical step 1/{r} for D={D}"
                )
            gate = talbot_unitary(D, int(q))
        else:
            gate = diagonal_gate(np.asarray(step.phases))
        matrix = gate @ matrix
    return matrix


def hadamard_program() -> OpticalProgram:
    """Qubit Hadamard: quarter-step, mask (pi/4, -pi/4), quarter-step."""
    quarter = Propagate(Fraction(1, 4))
    return OpticalProgram(
        dim=2,
        steps=(quarter, PhaseMask((np.pi / 4, -np.pi / 4)), quarter),
    )


def hadamard_via_talbot() -> tuple[np.ndarray, OpticalProgram]:
    """The exact 2x2 Hadamard and the optical program realizing it."""
    program = hadamard_program()
    return compile_program(program), program


def prepare_bloch_state(theta: float, phi: float) -> tuple[OpticalProgram, np.ndarray]:
    """Program preparing cos(theta)|0> + exp(i phi) sin(theta)|1> from |0>.

    Hadamard, mask (theta, -theta), Hadamard, then a final mask
    (pi/4 - phi/2, phi/2 - pi/4).  The relative phase after the second
    Hadamard is pi/2 regardless of theta; the final mask shifts it to phi
    exactly, leaving only an unobservable global phase.  Total propagation
    distance is 1, i.e. one full carpet period.  A finite |phi| > pi is
    first reduced to (-pi, pi], so pi/4 is not lost to its magnitude.

    Returns the program and the compiled output state.
    """
    h = hadamard_program().steps
    if math.pi < abs(phi) < math.inf:
        phi = math.atan2(math.sin(phi), math.cos(phi))
    beta = np.pi / 4 - phi / 2
    program = OpticalProgram(
        dim=2,
        steps=(
            *h,
            PhaseMask((theta, -theta)),
            *h,
            PhaseMask((beta, -beta)),
        ),
    )
    state = compile_program(program)[:, 0].copy()
    return program, state
