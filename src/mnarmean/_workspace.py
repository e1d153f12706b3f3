"""Scratch memory that one computation reuses across its repeated steps: the
replicate kernels across the chunks of one bootstrap call, and the IPW/GMM
solver (``ipw._MomentWorkspace``) across its Gauss-Newton iterations.  The
replicate kernels take their scratch from nowhere else: each b = 1 adapter
(``fit_least_squares``, ``fit_propensity``, ``build_sandwich``) runs them on
a fresh ``Workspace`` of its own.

A chunk of resamples needs a few (b, k, n) arrays of several hundred kB to
2 MB each, and a solver iteration a few (k, p, n) arrays.  Allocated afresh
each time, glibc returns that memory to the system when it is freed and
faults it back in for the next step.  A ``Workspace`` keeps one buffer per
named slot instead, and the callers carve their arrays from it.  Arrays
that are never live at the same time can share a slot.  Nothing a kernel
returns may be a view into a workspace, since the next step overwrites it."""

from __future__ import annotations

from itertools import accumulate
from math import prod

import numpy as np


class Workspace:
    """Float buffers by slot name, each grown to the largest request it
    has served."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def arrays(self, slot: str, *shapes):
        """Disjoint C-contiguous arrays of the given shapes, from the front
        of the slot's buffer; their contents are undefined."""
        sizes = [prod(shape) for shape in shapes]
        if slot not in self.buffers or self.buffers[slot].size < sum(sizes):
            self.buffers.pop(slot, None)  # freed before its successor is made
            self.buffers[slot] = np.empty(sum(sizes))
        buf = self.buffers[slot]
        return [
            buf[end - size : end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, accumulate(sizes))
        ]

