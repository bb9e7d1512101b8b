"""Row-block pair scans: one engine for every O(N^2) check.

Every pair reduction (the strong-contraction product, the Hoelder seminorm,
the Taylor bounds, the (M)-inequality, the zeta hypothesis and the (C)/(CW1)
slacks) visits rows in blocks, one after another on the calling thread:
BLOCK = 32 rows in a scan of at least LARGE_PAIRS pairs, SMALL_BLOCK = 64
rows below that size, where the fixed cost of each numpy call matters more
than cache reuse. A scan thus holds O(64 x N) memory, never an N x N array.
The reductions over pairs j > i alone read only the upper triangle: a block
of rows i0:i1 has the columns j >= i0, about half the pairs of a full row
block. The (C)/(CW1) slacks are not symmetric and read every column. Results
are combined in block order. The block products go through
``block_product``, CHUNK columns at a time, which the BLAS runs on the
calling thread, so that no report depends on the BLAS thread count.

A block carves its working arrays with ``scratch`` out of one slab that
``map_blocks`` holds for the scan and sizes from what the blocks ask for:
after the first block, which gets fresh arrays, the slab fits the kernel
exactly. The kernels write into these arrays with ``out=`` and in-place
ufuncs, so no later block allocates an array of its own size. The slab
hangs on a thread-local, so user threads that run checks at the same time
never share one.
"""

from __future__ import annotations

import math
from threading import local

import numpy as np

BLOCK = 32  # rows per block
SMALL_BLOCK = 64  # rows per block of a scan below LARGE_PAIRS
CHUNK = 2048  # columns per BLAS call of a block product
LARGE_PAIRS = 2**21  # scans of at least this many pairs run in blocks of BLOCK rows
LOWER = np.tril(np.ones((SMALL_BLOCK, SMALL_BLOCK), dtype=bool))  # pairs j <= i of a block's corner
_local = local()


def scratch(shape, dtype=float) -> np.ndarray:
    """An uninitialized ``shape`` array, valid until this thread's next block.

    Inside ``map_blocks`` it is carved from the scan's slab, which each
    block carves again from its start. Every request adds its 64-byte
    aligned size to what the block asked for, whether it fits or not; one
    the slab has no room left for, and any request outside a scan, gets a
    fresh array.
    """
    slab = getattr(_local, "slab", None)  # uint8
    if slab is not None:
        start, size = _local.used, math.prod(shape)
        _local.used += -(-size * np.dtype(dtype).itemsize // 64) * 64  # 64-byte aligned
        if _local.used <= slab.size:
            return slab[start:_local.used].view(dtype)[:size].reshape(shape)
    return np.empty(shape, dtype)


def map_blocks(fn, n_rows: int) -> list:
    """``fn(i0, i1)`` on every block of rows in order, the results in a list.

    A scan of LARGE_PAIRS pairs or more (n_rows^2 / 2, an upper triangle)
    runs blocks of BLOCK rows, a smaller one blocks of SMALL_BLOCK rows.
    The scan starts with an empty slab, so its first block gets fresh
    arrays from ``scratch``; before each later block the slab is replaced
    by one of the size the previous block asked for, if that was more. The
    first block of an upper-triangle scan is its widest, so the slab is
    sized once, and a kernel whose demand grows later resizes it then. The
    slab is dropped when the scan returns or raises.
    """
    rows = BLOCK if n_rows * n_rows >= 2 * LARGE_PAIRS else SMALL_BLOCK

    def block(i0):
        if _local.used > _local.slab.size:
            del _local.slab  # free the smaller slab before the larger one is allocated
            _local.slab = np.empty(_local.used, np.uint8)
        _local.used = 0
        return fn(i0, min(i0 + rows, n_rows))

    _local.slab, _local.used = np.empty(0, np.uint8), 0
    try:
        return [block(i0) for i0 in range(0, n_rows, rows)]
    finally:
        del _local.slab


def block_argmin(vals: np.ndarray, i0: int, j0: int = 0) -> tuple:
    """``(min, i, j)`` over a block of rows from i0 and columns from j0.

    The witness is the first in row-major order among ties.
    """
    r, c = divmod(int(np.argmin(vals)), vals.shape[1])
    return float(vals[r, c]), i0 + r, j0 + c


def pairwise_min(block_fn, n_rows: int):
    """Minimize block_fn over row blocks.

    ``block_fn(i0, i1)`` returns the upper-triangle block: a (i1 - i0, n - i0)
    array whose column c is the pair (i, i0 + c), with np.inf marking invalid
    pairs. Returns ``(min_value, i, j)`` with the lexicographically first
    witness among ties: the builtin min of the per-block tuples. A block_fn
    that returns a (k, i1 - i0, n - i0) stack reduces k quantities in one pass
    and gets a list of k such triples.
    """
    def reduce(i0, i1):
        vals = block_fn(i0, i1)
        if vals.ndim == 2:
            return block_argmin(vals, i0, i0)
        return [block_argmin(layer, i0, i0) for layer in vals]

    results = map_blocks(reduce, n_rows)
    if isinstance(results[0], list):
        return [min(layer) for layer in zip(*results)]
    return min(results)


def mask_lower(vals: np.ndarray, fill: float = np.inf) -> np.ndarray:
    """Set the pairs j <= i of an upper-triangle block to ``fill``, in place."""
    rows, k = vals.shape[0], min(vals.shape[0], vals.shape[1])
    vals[:, :k][LOWER[:rows, :k]] = fill
    return vals


def block_product(rows: np.ndarray, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rows @ cols.T`` into ``out``, at most CHUNK columns per BLAS call.

    A product of BLOCK x d x CHUNK is below the size at which the BLAS
    splits it across threads, so each call runs on the calling thread.
    """
    for c in range(0, len(cols), CHUNK):
        np.matmul(rows, cols[c:c + CHUNK].T, out=out[:, c:c + CHUNK])
    return out


def pair_gaps(t: np.ndarray, i0: int, i1: int, jmax: int | None = None) -> np.ndarray:
    """``t_j - t_i`` for rows i0:i1 against columns i0:jmax, in a scratch buffer.

    The pairs j <= i hold 1.0 instead, so that no kernel divides by zero or
    takes a power of a nonpositive gap there; every caller masks them.
    """
    cols = t[i0:jmax]
    gaps = scratch((i1 - i0, len(cols)))
    np.subtract(cols[None, :], t[i0:i1, None], out=gaps)
    return mask_lower(gaps, 1.0)


def tangent_chord(curve, i0: int, i1: int, jmax: int | None = None) -> np.ndarray:
    """``<T_i, P_j - P_i>`` for rows i0:i1 against columns i0:jmax, in a scratch buffer."""
    P, T = curve.points, curve.tangents
    rows, cols = T[i0:i1], P[i0:jmax]
    ip = block_product(rows, cols, scratch((i1 - i0, len(cols))))
    ip -= np.einsum("id,id->i", rows, P[i0:i1])[:, None]
    return ip
