"""Thread-parallel evaluation over the planes of one tensor axis.

The 6D tensor stages split their work into planes along one axis (a
control plane, a displacement plane) that do not depend on each other.
Each plane is one task, so the tasks are fixed by the data and never by
the worker count: every plane is computed by the same floating-point
operations whichever thread runs it, and results are identical for any
number of workers.  numpy ufuncs release the interpreter lock in their
inner loops, so the threads overlap the actual arithmetic; only the
Python between two calls holds it, which is why the regularizer's pools
take a whole block per call, its products one call per product width.
Planes too small to repay the hand-off to a worker run on the calling
thread.  The same helper runs the 12 SSC feature channels, one channel
per task.

Passes that read or write every voxel of a volume (the warp, the
Jacobian statistics, the phantom's inverse field) run one axis-0 slab of
about :data:`SLAB_VOXELS` voxels per task (:func:`map_slabs`); each voxel
goes through the same arithmetic in whichever slab and thread it falls.
A volume of two or more slabs always runs on the workers.  With ``fit``
planes to a full slab, a split into two or more slabs gives each at
least ``ceil(fit / 2)`` planes (:func:`row_blocks`), so every such slab
holds more than ``SLAB_VOXELS / 3`` voxels: the least is one plane of
just over a third, at ``fit`` 2.  Each of these passes keeps at least
12 eight-byte values per voxel in flight, so a slab's working set (over
1 MiB) is always above :data:`MIN_THREADED_PLANE_BYTES`.  A single slab
runs on the caller.  Every task runs under the calling thread's numpy
error state.

Inside a task, the tensor stages walk their plane in blocks of rows
small enough that a block and its scratch buffers stay in cache.  One
rule splits the rows of every stage, and the planes of a volume into
slabs: :func:`row_blocks`.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geometry import _is_int

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
    """Worker count: ``threads`` when given (an int, at least 1),
    otherwise the number of cores this process may run on."""
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not (_is_int(threads) and threads >= 1):
        raise ValueError(f"threads must be >= 1 and an int, got {threads!r}")
    return int(threads)


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
    """``[fn(s) for s in slabs]``: ``slabs`` are the :func:`row_blocks`
    of the axis-0 planes of a volume of ``shape``, each within
    :data:`SLAB_VOXELS` voxels or one plane.  The slabs run on up to
    ``workers`` threads (see the module docstring)."""
    return _map(fn, row_blocks(shape[0], shape[1] * shape[2], SLAB_VOXELS),
                workers)


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


def row_blocks(count: int, row_bytes: int, budget: int = None) -> list:
    """Slices that cover ``range(count)`` in order: as few blocks as keep
    each within ``budget`` bytes (default :data:`BLOCK_BYTES`) of rows of
    ``row_bytes``, ``ceil(count / fit)`` for ``fit`` rows to the budget,
    and at least one row each.  Their lengths differ by at most one,
    longest first, so the first block sizes the scratch buffers.  In a
    split into two or more blocks each holds at least ``ceil(fit / 2)``
    rows: over ``(n - 1) * fit`` rows in ``n`` blocks."""
    budget = BLOCK_BYTES if budget is None else budget
    fit = max(1, budget // max(int(row_bytes), 1))
    blocks = -(-count // fit)
    size, longer = divmod(count, max(blocks, 1))
    cuts = [i * size + min(i, longer) for i in range(blocks + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def block_view(flat, shape: tuple):
    """C-contiguous ``shape`` view of the front of the 1D buffer ``flat``:
    one buffer, allocated for the longest block, serves every block."""
    return flat[:math.prod(shape)].reshape(shape)
