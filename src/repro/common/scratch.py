"""Named scratch arrays reused across calls of a hot loop.

A particle stack runs its observation stage every tick on the same
``(R', N, K)`` temporaries of about half a megabyte each.  Allocated
afresh, they make the C allocator hand the pages back to the OS when a
tick frees them and fault them in again on the next tick: hundreds of
page faults per tick, kernel time that tracks neither the filter's work
nor the CPU's speed.  Code on that path draws its temporaries from a
:class:`Scratch` owned by the caller instead; without one, numpy
allocates as usual.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Scratch", "scratch_array"]


class Scratch:
    """Grow-only flat buffers, one per name, viewed in the asked shape."""

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The array called ``name`` in ``shape``; its contents are undefined.

        Callers must be done with an array before asking for the same
        name again.
        """
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[name] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)


def scratch_array(
    scratch: Scratch | None, name: str, shape: tuple[int, ...], dtype
) -> np.ndarray | None:
    """``scratch.get(...)``, or ``None`` (an ``out=`` that allocates)."""
    return None if scratch is None else scratch.get(name, shape, dtype)
