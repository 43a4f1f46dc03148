"""Talbot-effect qudit toolkit.

Two independent layers model the same physics: an exact gate algebra built
on quadratic Gauss sums (circulant Talbot unitaries, phase-mask programs,
Fourier factorizations) and a wave-optics layer (mode expansions, angular
spectrum propagation, carpets) that serves as its brute-force check.  A
third layer composes two photons on slitwise beam splitters into a
post-selected controlled-Z.

The public names are those in each module's __all__.
"""

from . import (
    carpet,
    fidelity,
    gates,
    gauss,
    grating,
    measure,
    photonpair,
    programs,
    propagation,
    serialize,
    verify,
)
from .carpet import *
from .fidelity import *
from .gates import *
from .gauss import *
from .grating import *
from .measure import *
from .photonpair import *
from .programs import *
from .propagation import *
from .serialize import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *gauss.__all__,
    *gates.__all__,
    *programs.__all__,
    *measure.__all__,
    *grating.__all__,
    *propagation.__all__,
    *carpet.__all__,
    *fidelity.__all__,
    *photonpair.__all__,
    *serialize.__all__,
    *verify.__all__,
]
