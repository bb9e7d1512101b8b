"""Row-block pair scans: one engine for every O(N^2) check.

Every pair reduction (the strong-contraction product, the Hoelder seminorm,
the Taylor bounds, the (M)-inequality, the zeta hypothesis and the (C)/(CW1)
slacks) visits rows in blocks of at most BLOCK rows, so a scan holds
O(BLOCK x N) memory, never an N x N array. The reductions over pairs j > i
alone read only the upper triangle: a block of rows i0:i1 has the columns
j >= i0, about half the pairs of a full row block. The (C)/(CW1) slacks are
not symmetric and read every column.

Each thread of a scan keeps its working arrays in ``scratch`` buffers, which
it allocates at its first block and reuses for every later one; the kernels
write into them with ``out=`` and in-place ufuncs, so no block allocates an
array of its own size. Blocks may run on a thread pool capped by
CONTRACTFLOW_THREADS (numpy releases the GIL inside the block products);
results are combined in block index order, so the reported minimum and
witness are identical no matter how many threads run.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK = 64  # rows per block
LOWER = np.tril(np.ones((BLOCK, BLOCK), dtype=bool))  # pairs j <= i of a block's corner
_local = threading.local()


def thread_count() -> int:
    raw = os.environ.get("CONTRACTFLOW_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def scratch(name: str, shape, dtype=float) -> np.ndarray:
    """An uninitialized ``shape`` array, reused by this thread for the rest of its scan.

    Inside ``map_blocks`` the buffer called ``name`` is allocated at the first
    request and handed out again to every later block the same thread runs,
    so its contents last only until that thread's next block. Outside a scan
    it is a fresh array.
    """
    pool = getattr(_local, "pool", None)
    if pool is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    buf = pool.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = pool[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _open_pool() -> None:
    _local.pool = {}


def map_blocks(fn, n_rows: int) -> list:
    """``fn(i0, i1)`` on every block of at most BLOCK rows, results in block order.

    Each thread gets its own scratch buffers, released when the scan returns.
    """
    spans = [(i0, min(i0 + BLOCK, n_rows)) for i0 in range(0, n_rows, BLOCK)]
    workers = thread_count()
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers, initializer=_open_pool) as pool:
            return list(pool.map(lambda span: fn(*span), spans))
    _open_pool()
    try:
        return [fn(i0, i1) for i0, i1 in spans]
    finally:
        del _local.pool


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


def pair_gaps(t: np.ndarray, i0: int, i1: int, jmax: int | None = None) -> np.ndarray:
    """``t_j - t_i`` for rows i0:i1 against columns i0:jmax, in a scratch buffer.

    The pairs j <= i hold 1.0 instead, so that no kernel divides by zero or
    takes a power of a nonpositive gap there; every caller masks them.
    """
    cols = t[i0:jmax]
    gaps = scratch("gaps", (i1 - i0, len(cols)))
    np.subtract(cols[None, :], t[i0:i1, None], out=gaps)
    return mask_lower(gaps, 1.0)


def tangent_chord(curve, i0: int, i1: int, jmax: int | None = None):
    """``<T_i, P_j - P_i>`` and ``pair_gaps`` for rows i0:i1 against columns i0:jmax.

    Both live in scratch buffers of the calling thread.
    """
    t, P, T = curve.params, curve.points, curve.tangents
    rows = T[i0:i1]
    cols = P[i0:jmax]
    ip = scratch("ip", (i1 - i0, len(cols)))
    np.matmul(rows, cols.T, out=ip)
    ip -= np.einsum("id,id->i", rows, P[i0:i1])[:, None]
    return ip, pair_gaps(t, i0, i1, jmax)
