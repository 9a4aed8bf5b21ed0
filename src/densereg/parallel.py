"""Thread-parallel evaluation over the planes of one tensor axis.

The 6D tensor stages split their work into planes along one axis (a
control plane, a displacement plane) that do not depend on each other.
Each plane is one task, so the tasks are fixed by the data and never by
the worker count: every plane is computed by the same floating-point
operations whichever thread runs it, and results are identical for any
number of workers.  numpy ufuncs and ``scipy.ndimage`` filters release
the interpreter lock in their inner loops, so the threads overlap the
actual arithmetic.  Planes too small to repay the hand-off to a worker
run on the calling thread.  The same helper runs the 12 SSC feature
channels, one channel per task.

Inside a task, the tensor stages walk their plane in blocks of rows
(:func:`row_blocks`) small enough that a block and its scratch buffers
stay in cache.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["resolve_workers", "map_planes", "row_blocks", "block_view"]

# Planes smaller than this run on the calling thread.  Regularizing and
# softmaxing 0.36 MiB planes on two threads took 12% longer than on one,
# 0.8 MiB planes 15% less (2-core VM).
MIN_THREADED_PLANE_BYTES = 1 << 19

# Bytes of one row block inside a plane task.  The same multiply ran
# 3.3x faster on 432 KB blocks than on 6.9 MB planes, which stream from
# L3 (2 MiB L2, 2-core VM).
BLOCK_BYTES = 1 << 19


def resolve_workers(threads=None) -> int:
    """Worker count: ``threads`` when given (at least 1), otherwise the
    number of cores this process may run on."""
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    threads = int(threads)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def map_planes(fn, array, axis: int, workers=None, plane_bytes=None) -> list:
    """``[fn(i) for i in range(array.shape[axis])]``: ``fn(i)`` handles
    plane ``i`` of ``array`` along ``axis``.  The calls are spread over up
    to ``workers`` threads (default: :func:`resolve_workers`) unless the
    planes are smaller than :data:`MIN_THREADED_PLANE_BYTES`.
    ``plane_bytes`` overrides the size of one plane's work when a task
    touches more memory than its plane of ``array`` holds.

    Every call's result is read, so an exception raised by any plane
    propagates to the caller.
    """
    count = array.shape[axis]
    workers = min(resolve_workers(workers), count)
    if plane_bytes is None:
        plane_bytes = array.nbytes / max(count, 1)
    if workers <= 1 or plane_bytes < MIN_THREADED_PLANE_BYTES:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def row_blocks(count: int, row_bytes: int) -> list:
    """Slices that cover ``range(count)`` in order, each as many rows of
    ``row_bytes`` as fit in :data:`BLOCK_BYTES`, and at least one row.
    The first slice is the longest, so it sizes the scratch buffers."""
    rows = max(1, min(count, BLOCK_BYTES // max(int(row_bytes), 1)))
    return [slice(r, min(r + rows, count)) for r in range(0, count, rows)]


def block_view(flat, shape: tuple):
    """C-contiguous ``shape`` view of the front of the 1D buffer ``flat``:
    one buffer, allocated for the longest block, serves every block."""
    return flat[:math.prod(shape)].reshape(shape)
