"""Talbot-effect qudit toolkit.

Two independent layers model the same physics: an exact gate algebra built
on quadratic Gauss sums (circulant Talbot unitaries, phase-mask programs,
Fourier factorizations) and a wave-optics layer (mode expansions, angular
spectrum propagation, carpets) that serves as its brute-force check.  A
third layer composes two photons on slitwise beam splitters into a
post-selected controlled-Z.

The public names are those in each module's __all__.  A module is imported
the first time one of its names is looked up here (PEP 562), so a process
loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# In the order of their names in __all__.
_MODULES = ("gauss", "gates", "programs", "measure", "grating", "propagation", "carpet",
            "fidelity", "photonpair", "serialize", "verify")


def __getattr__(name: str):
    # Nothing is cached in the package namespace: each name stays bound only
    # in its own module, so rebinding it there is seen here too.
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return ["__version__", *(public for module in _MODULES
                                 for public in __getattr__(module).__all__)]
    for module_name in _MODULES:
        module = __getattr__(module_name)
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
