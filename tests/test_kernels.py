"""Each kernel must match a brute-force oracle on random inputs."""
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from emblend import kernels
from reference import (dedup_oracle, group_stats_oracle, kmeans_assign_oracle,
                       masked_group_distance_stats)


rng = np.random.default_rng(42)
TILE = kernels.TILE_ROWS


def full_matrix_stats(x, labels, n_groups):
    """The kernel in its plain form: each block's whole d2 matrix, its upper
    triangle gathered with triu_indices. The tiled kernel must keep its bits."""
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


def test_backend_reported():
    assert kernels.active_backend() == "numpy"


@pytest.mark.parametrize("n,d,groups", [(30, 4, 2), (120, 8, 4), (57, 16, 3)])
def test_group_distance_stats_paths_agree(n, d, groups):
    """The kernel path and the brute-force oracle path agree."""
    x = rng.normal(size=(n, d))
    labels = rng.integers(0, groups, size=n)
    got = kernels.group_distance_stats(x, labels, groups)
    ref = group_stats_oracle(x, labels, groups)
    for a, b in zip(ref, got):
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9)
    assert np.array_equal(got[1], ref[1]) and np.array_equal(got[3], ref[3])


def test_group_distance_stats_brute_force():
    x = rng.normal(size=(25, 3))
    labels = rng.integers(0, 3, size=25)
    intra_sum, intra_cnt, inter_sum, inter_cnt = kernels.group_distance_stats(x, labels, 3)
    exp_intra, exp_icnt, exp_inter, exp_xcnt = group_stats_oracle(x, labels, 3)
    assert np.allclose(intra_sum, exp_intra)
    assert np.array_equal(intra_cnt, exp_icnt)
    assert np.allclose(inter_sum, exp_inter)
    assert np.array_equal(inter_cnt, exp_xcnt)


# rows at the edges of one, two, four and eight tiles; a kernel that reused
# one buffer for both operands would get syrk's bits, not gemm's, at sizes
# such as 100
GROUP_SIZES = (0, 1, 2, 100, TILE - 1, TILE, TILE + 1, 2 * TILE + 1,
               4 * TILE - 1, 4 * TILE, 4 * TILE + 1, 8 * TILE + 1, 2500)
OTHERS = ((), (1, 37, TILE + 1))  # sizes of the groups beside the one of n rows
OTHERS_IDS = ("one_group", "four_groups")


def check_bits(n, d, others, workspace=None):
    """Same bits as the full-matrix form, intra and inter."""
    sizes = (n,) + others
    local = np.random.default_rng(1000 * n + d + len(others))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    local.shuffle(labels)
    x = local.normal(size=(labels.size, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)  # unit rows, as eval sees them
    got = kernels.group_distance_stats(x, labels, len(sizes), workspace)
    ref = full_matrix_stats(x, labels, len(sizes))
    for a, b in zip(ref, got):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("d", (2, 3, 32, 33, 96))
@pytest.mark.parametrize("n", GROUP_SIZES)
@pytest.mark.parametrize("others", OTHERS, ids=OTHERS_IDS)
def test_group_distance_stats_bits(n, d, others):
    """Each Gram matrix in an array of its own, at every tile edge."""
    check_bits(n, d, others)


@pytest.fixture(scope="module")
def stale_workspace():
    """One workspace for every case, larger than any block and NaN at first:
    each case finds the bytes that the cases before it left."""
    return np.full(2501 * 2501, np.nan)


@pytest.mark.parametrize("d", (2, 3, 32, 33, 96))
@pytest.mark.parametrize("n", GROUP_SIZES)
@pytest.mark.parametrize("others", OTHERS, ids=OTHERS_IDS)
def test_group_distance_stats_bits_in_one_workspace(n, d, others, stale_workspace):
    """Every Gram matrix in the front of one reused workspace: no stale byte
    reaches a sum."""
    check_bits(n, d, others, stale_workspace)


def test_group_distance_stats_bits_with_one_blas_thread():
    """The bit checks above, again in a process whose BLAS runs one thread."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "test_group_distance_stats_bits and not one_blas_thread"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert f"{2 * 2 * 5 * len(GROUP_SIZES)} passed" in proc.stdout


@pytest.mark.parametrize("n", (2, TILE - 1, TILE + 1, 4 * TILE + 1))
@pytest.mark.parametrize("others", OTHERS, ids=OTHERS_IDS)
def test_group_distance_stats_equals_the_masked_tile_form(n, others):
    """The doubled product and the row-by-row compaction keep the bits of
    the kernel before them, through one stale workspace too."""
    sizes = (n,) + others
    local = np.random.default_rng(n + 7 * len(others))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    local.shuffle(labels)
    x = local.normal(size=(labels.size, 32))
    want = masked_group_distance_stats(x, labels, len(sizes))
    for workspace in (None, np.full(labels.size ** 2, np.nan)):
        got = kernels.group_distance_stats(x, labels, len(sizes), workspace)
        for a, b in zip(want, got, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_group_distance_stats_one_gemm_per_block_on_two_buffers(monkeypatch):
    """One product per block, of the doubled rows against the rows, whose
    operands never share memory (a shared buffer would be syrk's bits)."""
    sizes = (TILE + 1, 5, 1)
    labels = np.repeat(np.arange(3), sizes)
    x = np.random.default_rng(2).normal(size=(labels.size, 8))
    calls, original = [], kernels.gram

    def recording(a, b, workspace=None):
        calls.append((a.copy(), b.copy(), np.shares_memory(a, b)))
        return original(a, b, workspace)

    monkeypatch.setattr(kernels, "gram", recording)
    kernels.group_distance_stats(x, labels, 3)
    blocks = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]  # a 1-row group has no intra block
    assert len(calls) == len(blocks)
    for (a, b, shared), (g1, g2) in zip(calls, blocks, strict=True):
        assert not shared
        assert np.array_equal(a, 2.0 * x[labels == g1]) and np.array_equal(b, x[labels == g2])


def test_group_distance_stats_peak_is_one_gram_matrix():
    n = 2500
    x = np.random.default_rng(3).normal(size=(n, 32))
    labels = np.zeros(n, dtype=np.int64)
    tracemalloc.start()
    try:
        kernels.group_distance_stats(x, labels, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * n * n * 8


def test_group_distance_stats_allocates_little_beside_a_workspace():
    n = 2500
    x = np.random.default_rng(3).normal(size=(n, 32))
    labels = np.zeros(n, dtype=np.int64)
    workspace = np.empty(n * n)
    tracemalloc.start()
    try:
        kernels.group_distance_stats(x, labels, 1, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * n * n * 8


@pytest.mark.parametrize("m,n", [(0, 3), (5, 7), (70, 70)])
def test_gram_is_one_product_in_place(m, n):
    """``gram`` equals ``a @ b.T`` bit for bit, with or without a workspace,
    and with one it writes the workspace's first m * n entries only."""
    gen = np.random.default_rng(m + n)
    a, b = gen.normal(size=(m, 9)), gen.normal(size=(n, 9))
    workspace = np.full(m * n + 4, np.nan)
    got = kernels.gram(a, b, workspace)
    assert got.base is workspace and np.array_equal(got, a @ b.T)
    assert np.isnan(workspace[m * n:]).all()
    assert np.array_equal(kernels.gram(a, b), a @ b.T)


@pytest.mark.parametrize("n,d,k", [(50, 4, 3), (200, 8, 10)])
def test_kmeans_assign_paths_agree(n, d, k):
    """The kernel path and the brute-force oracle path agree."""
    x = rng.normal(size=(n, d))
    centroids = rng.normal(size=(k, d))
    got = kernels.kmeans_assign(x, centroids)
    brute = np.array([
        int(np.argmin([np.sum((x[i] - c) ** 2) for c in centroids])) for i in range(n)
    ])
    assert np.array_equal(got, brute)


def test_kmeans_assign_tie_breaks_to_first():
    x = np.array([[0.0, 0.0]])
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert kernels.kmeans_assign(x, centroids)[0] == 0


@pytest.mark.parametrize("n,d,k", [(1, 3, 1), (50, 4, 3), (333, 8, 10), (2000, 32, 100)])
def test_kmeans_assign_equals_the_one_expression(n, d, k):
    """Same labels as the expression, also on tied rows: duplicate centroids,
    rows equidistant from a centroid and its mirror image, rows that are
    centroids, and rows near two centroids that differ in the last bits."""
    x = rng.normal(size=(n, d))
    centroids = rng.normal(size=(k, d))
    if k > 2:
        centroids[0] *= 0.01  # the nearest centroid to the origin
        centroids[2] = centroids[0]  # duplicate centroids
        centroids[1] = -centroids[0]  # x orthogonal to c is equidistant from c and -c
        x[::3] -= np.outer(x[::3] @ centroids[0] / (centroids[0] @ centroids[0]),
                           centroids[0])
        x[1::7] = centroids[rng.integers(0, k, size=len(x[1::7]))]
        x[0] = 0.0  # exactly as far from centroids 0, 1 and 2
    if k > 4:  # two centroids 1e-14 apart: rounding decides between them
        centroids[4] = centroids[3] + 1e-14 * rng.normal(size=d)
        x[2::5] = centroids[3] + 1e-3 * rng.normal(size=(len(x[2::5]), d))
    for a in (x, x.astype(np.float32), np.round(x, 1)):
        got = kernels.kmeans_assign(a, centroids)
        assert got.dtype == np.int64 and np.array_equal(got, kmeans_assign_oracle(a, centroids))
    if k > 2:
        labels = kernels.kmeans_assign(x, centroids)
        assert labels[0] == 0 and not (labels == 2).any()  # the first of a tie wins


def test_kmeans_assign_allocates_one_distance_matrix():
    x, centroids = rng.normal(size=(2000, 32)), rng.normal(size=(100, 32))
    kernels.kmeans_assign(x, centroids)
    tracemalloc.start()
    try:
        kernels.kmeans_assign(x, centroids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2000 * 100 * 8


@pytest.mark.parametrize("n,d", [(40, 6), (150, 12)])
def test_dedup_scan_paths_agree(n, d):
    """The kernel path and the plain-Python greedy oracle path agree."""
    x = rng.normal(size=(n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x[7] = x[3]   # exact duplicate
    x[20] = x[5] + 1e-6
    x[20] /= np.linalg.norm(x[20])
    for eps in (0.0, 0.05, 0.5):
        got = kernels.dedup_scan(x, eps)
        assert np.array_equal(got, dedup_oracle(x, eps))
        assert not (got[3] and got[7])  # both copies of a duplicate never survive


def test_dedup_scan_greedy_semantics():
    # three mutually close rows: only the first survives
    base = np.zeros((3, 4))
    base[:, 0] = 1.0
    base[1, 1] = 0.05
    base[2, 1] = -0.05
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    keep = kernels.dedup_scan(base, 0.05)
    assert keep.tolist() == [True, False, False]
