"""Thread-parallel evaluation over the planes of one tensor axis.

The 6D tensor stages split their work into planes along one axis (a
control plane, a displacement plane) that do not depend on each other.
Each plane is one task, so the tasks are fixed by the data and never by
the worker count: every plane is computed by the same floating-point
operations whichever thread runs it, and results are identical for any
number of workers.  numpy ufuncs release the interpreter lock in their
inner loops, so the threads overlap the actual arithmetic; only the
Python between two calls holds it, which is why the running sums of the
regularizer take whole slices of a block per call, not single lines.
Planes too small to repay the hand-off to a worker run on the calling
thread.  The same helper runs the 12 SSC feature channels, one channel
per task.

Passes that read or write every voxel of a volume (the warp, the
Jacobian statistics, the phantom's inverse field) run one axis-0 slab of
about :data:`SLAB_VOXELS` voxels per task (:func:`map_slabs`); each voxel
goes through the same arithmetic in whichever slab and thread it falls.
A volume of two or more slabs always runs on the workers: every such
slab holds more than ``SLAB_VOXELS / 2`` voxels, and each of these
passes keeps at least 12 eight-byte values per voxel in flight, so a
slab's working set (over 1.5 MiB) is always above
:data:`MIN_THREADED_PLANE_BYTES`.  A single slab runs on the caller.
Every task runs under the calling thread's numpy error state.

Inside a task, the tensor stages walk their plane in blocks of rows
(:func:`row_blocks`) small enough that a block and its scratch buffers
stay in cache; the regularizer sizes its blocks to its own scratch
budget.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["resolve_workers", "map_planes", "map_slabs", "row_blocks",
           "block_view"]

# Planes smaller than this run on the calling thread.  Regularizing and
# softmaxing 0.36 MiB planes on two threads took 12% longer than on one,
# 0.8 MiB planes 15% less (2-core VM).
MIN_THREADED_PLANE_BYTES = 1 << 19

# Bytes of one row block inside a plane task.  The same multiply ran
# 3.3x faster on 432 KB blocks than on 6.9 MB planes, which stream from
# L3 (2 MiB L2, 2-core VM).
BLOCK_BYTES = 1 << 19

# Voxels per slab of a voxel-resolution pass: a slab's coordinate and
# weight temporaries stay cache-sized instead of spanning the volume.
SLAB_VOXELS = 1 << 15


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
    if plane_bytes is None:
        plane_bytes = array.nbytes / max(count, 1)
    workers = resolve_workers(workers)
    if plane_bytes < MIN_THREADED_PLANE_BYTES:
        workers = 1
    return _map(fn, range(count), workers)


def map_slabs(fn, shape: tuple, workers=None) -> list:
    """``[fn(s) for s in slabs]``: ``slabs`` are slices that cover
    ``range(shape[0])`` in order, each as many axis-0 planes of a volume
    of ``shape`` as fit in :data:`SLAB_VOXELS` voxels, and at least one.
    The slabs run on up to ``workers`` threads (see the module
    docstring)."""
    plane = shape[1] * shape[2]
    return _map(fn, _cover(shape[0], SLAB_VOXELS // max(plane, 1)), workers)


def _map(fn, tasks, workers) -> list:
    workers = min(resolve_workers(workers), len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    # numpy's floating-point error state is per thread: carry the
    # caller's into every task, so a task warns or raises as it would
    # on the calling thread.
    err = np.geterr()

    def task(t):
        with np.errstate(**err):
            return fn(t)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, tasks))


def row_blocks(count: int, row_bytes: int) -> list:
    """Slices that cover ``range(count)`` in order, each as many rows of
    ``row_bytes`` as fit in :data:`BLOCK_BYTES`, and at least one row.
    The first slice is the longest, so it sizes the scratch buffers."""
    return _cover(count, BLOCK_BYTES // max(int(row_bytes), 1))


def _cover(count: int, step: int) -> list:
    step = max(1, min(count, step))
    return [slice(r, min(r + step, count)) for r in range(0, count, step)]


def block_view(flat, shape: tuple):
    """C-contiguous ``shape`` view of the front of the 1D buffer ``flat``:
    one buffer, allocated for the longest block, serves every block."""
    return flat[:math.prod(shape)].reshape(shape)
