"""Hot numeric kernels, exact and in plain numpy.

Every kernel is deterministic run to run. ``active_backend()`` names the
implementation for the benchmark harness (``perfbench/run.py``) alone.

``gram`` is the one product of the O(n^2) passes: ``a @ b.T`` as one
``gemm``, written into the front of a caller's flat float64 workspace when
one is given and into a new array of the same shape when not. ``eval``
sizes one workspace for its largest product and hands it to both the
recall ranks and ``group_distance_stats``, so no second n x n block is
ever alive next to it.

``group_distance_stats`` holds one float64 Gram matrix per modality group
(or per pair of groups), one tile of distances, and nothing else of that
size. Its sums must keep the bits of the plain full-matrix form, because
``eval.json`` stores them at full precision. Two rules keep them:

- One ``gemm`` per block, of the doubled rows ``2 x[a]`` against ``x[b]``:
  doubling is exact, so this is ``2 (x[a] x[b]^T)`` bit for bit, on two
  distinct buffers even when ``a`` is ``b``. Row tiles of the product, or
  one buffer times its own transpose (which numpy hands to ``syrk``), both
  changed the bits of some entries with OpenBLAS; where the product is
  written does not change them.
- Everything after the product is elementwise, so it runs in row tiles of
  ``TILE_ROWS`` in one reused tile buffer. Each row's distances (within a
  group, those right of the diagonal) are written, compacted in row-major
  order, into the front of the Gram matrix's own buffer, and one ``.sum()``
  over that prefix sees the same contiguous sequence as the full form's
  gathered triangle: numpy's pairwise summation then gives the same bits.
"""
from __future__ import annotations

import numpy as np


def active_backend() -> str:
    return "numpy"


def gram(a, b, workspace=None):
    """``a @ b.T`` as one product. With a flat float64 ``workspace`` the
    result is a view of its first ``len(a) * len(b)`` entries, whose bytes
    it overwrites; without one it is a new array."""
    shape = (a.shape[0], b.shape[0])
    out = (np.empty(shape) if workspace is None
           else workspace[:shape[0] * shape[1]].reshape(shape))
    return np.matmul(a, b.T, out=out)


# ---------------------------------------------------------------------------
# pairwise distance statistics per modality group
# ---------------------------------------------------------------------------

TILE_ROWS = 64  # rows of d2 alive at once next to the Gram matrix


def _distance_sum(gram2, sq_rows, sq_cols, upper, tile):
    """Sum of sqrt(max(sq_rows[i] + sq_cols[j] - gram2[i, j], 0)) over all
    (i, j), or over j > i when ``upper``, and the number of terms; d2 in ``tile``.

    Consumes ``gram2``: row i's compacted distances land at or before flat
    offset i * n_cols, so no row is overwritten before its tile has read it.
    """
    n_rows, n_cols = gram2.shape
    flat = gram2.reshape(-1)
    pos = 0
    for r0 in range(0, n_rows, TILE_ROWS):
        r1 = min(r0 + TILE_ROWS, n_rows)
        c0 = r0 + 1 if upper else 0
        d2 = tile[:(r1 - r0) * (n_cols - c0)].reshape(r1 - r0, n_cols - c0)
        np.add(sq_rows[r0:r1, None], sq_cols[None, c0:], out=d2)
        d2 -= gram2[r0:r1, c0:]
        np.maximum(d2, 0.0, out=d2)
        # the whole tile, or each row r0 + k from the column right of its diagonal on
        for k, row in enumerate(d2) if upper else [(0, d2.reshape(-1))]:
            np.sqrt(row[k:], out=flat[pos:pos + row.size - k])
            pos += row.size - k
    return flat[:pos].sum(), pos


def group_distance_stats(x, labels, n_groups, workspace=None):
    """Pairwise L2 distance sums and counts, within and across groups. Each
    block's doubled Gram matrix goes to ``gram`` with ``workspace``.

    Returns (intra_sum, intra_cnt, inter_sum, inter_cnt); inter arrays are
    upper-triangular in (g1, g2) with g1 < g2.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    sq = np.einsum("ij,ij->i", x, x)
    intra_sum = np.zeros(n_groups)
    intra_cnt = np.zeros(n_groups, dtype=np.int64)
    inter_sum = np.zeros((n_groups, n_groups))
    inter_cnt = np.zeros((n_groups, n_groups), dtype=np.int64)
    idx = [np.flatnonzero(labels == g) for g in range(n_groups)]
    tile = np.empty(TILE_ROWS * max(map(len, idx), default=0))
    for g1 in range(n_groups):
        a = idx[g1]
        x2 = 2.0 * x[a]
        if a.size >= 2:
            intra_sum[g1], intra_cnt[g1] = _distance_sum(
                gram(x2, x[a], workspace), sq[a], sq[a], True, tile)
        for g2 in range(g1 + 1, n_groups):
            b = idx[g2]
            if a.size and b.size:
                inter_sum[g1, g2], inter_cnt[g1, g2] = _distance_sum(
                    gram(x2, x[b], workspace), sq[a], sq[b], False, tile)
    return intra_sum, intra_cnt, inter_sum, inter_cnt


# ---------------------------------------------------------------------------
# k-means assignment step
# ---------------------------------------------------------------------------

def kmeans_assign(x, centroids):
    """Index of the nearest centroid per row; ties keep the lowest index."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    sq_x = np.einsum("ij,ij->i", x, x)
    sq_c = np.einsum("ij,ij->i", centroids, centroids)
    # sq_x - 2 (x c^T) + sq_c, in that order for the same bits, in one buffer
    d2 = x @ centroids.T
    d2 *= 2.0
    np.subtract(sq_x[:, None], d2, out=d2)
    d2 += sq_c
    return np.argmin(d2, axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# greedy near-duplicate scan (rows pre-sorted in scan order, unit norm)
# ---------------------------------------------------------------------------

_DEDUP_ROUNDING = 1e-12  # bit-identical rows must register distance <= 0


def dedup_scan(x, eps):
    """Greedy keep-mask: drop a row whose cosine distance to any already-kept
    row is <= eps. Rows must be unit-norm and in the desired scan order."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    eps = float(eps)
    n = x.shape[0]
    keep = np.zeros(n, dtype=np.bool_)
    kept = np.empty_like(x)  # kept rows, in scan order, fill the first n_kept
    n_kept = 0
    for i in range(n):
        if n_kept:
            sims = kept[:n_kept] @ x[i]
            if np.any(1.0 - sims <= eps + _DEDUP_ROUNDING):
                continue
        keep[i] = True
        kept[n_kept] = x[i]
        n_kept += 1
    return keep
