"""Hot numeric kernels, exact and in plain numpy.

Every kernel is deterministic run to run. ``active_backend()`` names the
implementation so run manifests can record it.
"""
from __future__ import annotations

import numpy as np


def active_backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# pairwise distance statistics per modality group
# ---------------------------------------------------------------------------

def group_distance_stats(x, labels, n_groups):
    """Pairwise L2 distance sums and counts, within and across groups.

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
    for g1 in range(n_groups):
        a = idx[g1]
        if a.size >= 2:
            d2 = sq[a][:, None] + sq[a][None, :] - 2.0 * (x[a] @ x[a].T)
            np.maximum(d2, 0.0, out=d2)
            iu = np.triu_indices(a.size, k=1)
            intra_sum[g1] = np.sqrt(d2[iu]).sum()
            intra_cnt[g1] = iu[0].size
        for g2 in range(g1 + 1, n_groups):
            b = idx[g2]
            if a.size and b.size:
                d2 = sq[a][:, None] + sq[b][None, :] - 2.0 * (x[a] @ x[b].T)
                np.maximum(d2, 0.0, out=d2)
                inter_sum[g1, g2] = np.sqrt(d2).sum()
                inter_cnt[g1, g2] = a.size * b.size
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
    d2 = sq_x[:, None] - 2.0 * (x @ centroids.T) + sq_c[None, :]
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
