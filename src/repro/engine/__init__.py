"""Pluggable filter-backend layer: numeric kernels + run executors.

``repro.engine`` owns the filter's arithmetic (``kernels``) and the
:class:`FilterBackend` seam that the evaluation stack dispatches runs
through.  The ``core`` modules delegate their math to the kernels; the
concrete backends (``reference``, ``fast``) are loaded
lazily because they build on ``core`` — see :mod:`repro.engine.backend`.
"""

from . import kernels, reductions
from .backend import (
    FilterBackend,
    RunSpec,
    RunTrace,
    SessionStack,
    StepWork,
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "kernels",
    "reductions",
    "FilterBackend",
    "RunSpec",
    "RunTrace",
    "SessionStack",
    "StepWork",
    "available_backends",
    "get_backend",
    "register_backend",
    "BatchedBackend",
    "ParticleStack",
    "ReferenceBackend",
    "ReferenceStack",
    "ReplayPlan",
    "ReplayStep",
]

#: Lazily resolved names -> defining submodule.  The concrete backends,
#: stacks and replay plans import ``repro.core``, which in turn imports
#: ``repro.engine.kernels`` — resolving them at first attribute access
#: keeps the package import acyclic.
_LAZY = {
    "ReferenceBackend": "reference",
    "ReferenceStack": "reference",
    "BatchedBackend": "batched",
    "ParticleStack": "batched",
    "ReplayPlan": "replay",
    "ReplayStep": "replay",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
