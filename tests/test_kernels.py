"""Each kernel must match a brute-force oracle on random inputs."""
import numpy as np
import pytest

from emblend import kernels


rng = np.random.default_rng(42)


def group_stats_oracle(x, labels, n_groups):
    intra_sum = np.zeros(n_groups)
    intra_cnt = np.zeros(n_groups, dtype=np.int64)
    inter_sum = np.zeros((n_groups, n_groups))
    inter_cnt = np.zeros((n_groups, n_groups), dtype=np.int64)
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dist = np.linalg.norm(x[i] - x[j])
            gi, gj = labels[i], labels[j]
            if gi == gj:
                intra_sum[gi] += dist
                intra_cnt[gi] += 1
            else:
                a, b = min(gi, gj), max(gi, gj)
                inter_sum[a, b] += dist
                inter_cnt[a, b] += 1
    return intra_sum, intra_cnt, inter_sum, inter_cnt


def dedup_oracle(x, eps):
    """Plain-Python greedy scan with explicit dot products against kept rows."""
    kept, keep = [], []
    for row in x.tolist():
        dup = any(1.0 - sum(a * b for a, b in zip(row, k)) <= eps + 1e-12 for k in kept)
        keep.append(not dup)
        if not dup:
            kept.append(row)
    return np.array(keep)


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
