"""Reusable work arrays of the grid kernels, one stack per thread.

A sweep's intermediate planes (envelopes, Stokes products, derivatives) are
the same few MB on every call.  Allocated fresh, they are freed at the end
of each call, glibc hands the freed top of its heap back to the operating
system, and the next call faults the same pages in again.  The kernels
instead take their intermediates from :func:`frame`: views into one buffer
per thread, handed out as a stack, which the kernels fill with ``out=``.

The buffer grows to the most memory that the frames of one outermost call
held at once, and is kept for the life of the thread: it is sized by the
largest grid run.  A request that does not fit is served by a fresh array,
and the buffer takes the larger size when the outermost frame exits.

No view may outlive the frame that took it: none is returned, yielded or
stored by the function whose ``with`` block took it, since the next frame
hands the same memory out again.  A frame opened inside another takes its
arrays above the outer one's, so nested kernels never share memory.  Work
arrays are not initialized.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

# every work array starts on a cache line
_ALIGN = 64


class _Stack(threading.local):
    def __init__(self):
        self.buffer = np.empty(0, dtype=np.uint8)
        self.top = 0  # bytes held by open frames
        self.peak = 0  # most bytes held at once


_STACK = _Stack()


@contextmanager
def frame() -> Iterator[Callable[..., np.ndarray]]:
    """``take(shape, dtype=float)``: an uninitialized C-contiguous work
    array, valid until this ``with`` block exits."""
    stack = _STACK
    base = stack.top

    def take(shape, dtype=float) -> np.ndarray:
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        start = stack.top
        stack.top += -(-count * dtype.itemsize // _ALIGN) * _ALIGN
        stack.peak = max(stack.peak, stack.top)
        if stack.top > stack.buffer.size:
            return np.empty(shape, dtype)
        return stack.buffer[start : stack.top].view(dtype)[:count].reshape(shape)

    try:
        yield take
    finally:
        stack.top = base
        if base == 0 and stack.peak > stack.buffer.size:
            raw = np.empty(stack.peak + _ALIGN, dtype=np.uint8)
            start = -raw.ctypes.data % _ALIGN
            stack.buffer = raw[start : start + stack.peak]
