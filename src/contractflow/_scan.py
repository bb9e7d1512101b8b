"""Row-block pair scans: one engine for every O(N^2) check.

Every pair reduction (the strong-contraction product, the Hoelder seminorm,
the Taylor bounds, the (M)-inequality, the zeta hypothesis and the (C)/(CW1)
slacks) visits rows in blocks of at most BLOCK rows against all columns, so a
scan holds O(BLOCK x N) memory, never an N x N array. Blocks may run on a
thread pool capped by CONTRACTFLOW_THREADS (numpy releases the GIL inside the
block matmuls); results are combined in block index order, so the reported
minimum and witness are identical no matter how many threads run.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK = 64  # rows per block


def thread_count() -> int:
    raw = os.environ.get("CONTRACTFLOW_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_blocks(fn, n_rows: int) -> list:
    """``fn(i0, i1)`` on every block of at most BLOCK rows, results in block order."""
    spans = [(i0, min(i0 + BLOCK, n_rows)) for i0 in range(0, n_rows, BLOCK)]
    workers = thread_count()
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda span: fn(*span), spans))
    return [fn(i0, i1) for i0, i1 in spans]


def block_argmin(vals: np.ndarray, i0: int) -> tuple:
    """``(min, i, j)`` over a block of rows from i0, first witness in row-major order."""
    r, c = divmod(int(np.argmin(vals)), vals.shape[1])
    return float(vals[r, c]), i0 + r, c


def pairwise_min(block_fn, n_rows: int):
    """Minimize block_fn over row blocks.

    ``block_fn(i0, i1)`` returns a (i1 - i0, n) array with np.inf marking
    invalid pairs. Returns ``(min_value, i, j)`` with the lexicographically
    first witness among ties: the builtin min of the per-block tuples.
    """
    return min(map_blocks(lambda i0, i1: block_argmin(block_fn(i0, i1), i0), n_rows))


def tangent_chord(curve, i0: int, i1: int, jmax: int | None = None):
    """``<T_i, P_j - P_i>`` and ``t_j - t_i`` for rows i0:i1 against columns :jmax."""
    t, P, T = curve.params, curve.points, curve.tangents
    ip = T[i0:i1] @ P[:jmax].T - np.einsum("id,id->i", T[i0:i1], P[i0:i1])[:, None]
    return ip, t[None, :jmax] - t[i0:i1, None]
