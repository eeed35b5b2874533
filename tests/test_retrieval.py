import tracemalloc

import numpy as np
import pytest

from emblend.errors import (DimMismatch, InsufficientSamples, MissingPartner)
from emblend import kernels, retrieval
from emblend.retrieval import (RANK_BLOCK, GapReport, RetrievalIndex, bidirectional_ranks,
                               bidirectional_recall, clustering_diagnostic, gap_reduction,
                               modality_gap, partner_ranks, recall_at_k, top_k)
from reference import (blockwise_partner_ranks, counted_partner_ranks, sort_oracle,
                       two_product_ranks)

rng = np.random.default_rng(31)


def unit_rows(n, d, gen=None):
    gen = gen or rng
    x = gen.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def loop_partner_ranks(queries, partner_ids, index):
    """Oracle: one query at a time, ties broken by comparing id strings."""
    pos = {sid: i for i, sid in enumerate(index.ids)}
    sims = queries @ index.matrix.T
    ids = np.asarray(index.ids)
    ranks = np.empty(len(partner_ids), dtype=np.int64)
    for qi, pid in enumerate(partner_ids):
        if pid not in pos:
            raise MissingPartner(f"partner {pid!r} not in index")
        row = sims[qi]
        sp = row[pos[pid]]
        better = int(np.count_nonzero(row > sp))
        tied_before = int(np.count_nonzero((row == sp) & (ids < pid)))
        ranks[qi] = 1 + better + tied_before
    return ranks


class TestTopK:
    def test_two_candidates(self):
        index = RetrievalIndex(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert top_k(index, [1.0, 0.0], 1) == [("a", 1.0)]

    def test_k_zero(self):
        index = RetrievalIndex(["a"], np.array([[1.0, 0.0]]))
        assert top_k(index, [1.0, 0.0], 0) == []

    def test_k_larger_than_index(self):
        index = RetrievalIndex(["a", "b"], unit_rows(2, 4))
        assert len(top_k(index, unit_rows(1, 4)[0], 99)) == 2

    def test_tie_breaks_by_ascending_id(self):
        vec = np.array([1.0, 0.0])
        index = RetrievalIndex(["z", "a"], np.array([vec, vec]))
        result = top_k(index, vec, 2)
        assert [sid for sid, _ in result] == ["a", "z"]

    def test_dim_mismatch(self):
        index = RetrievalIndex(["a"], np.array([[1.0, 0.0]]))
        with pytest.raises(DimMismatch):
            top_k(index, [1.0, 0.0, 0.0], 1)

    def test_matches_full_sort_oracle(self):
        for trial in range(50):
            gen = np.random.default_rng(trial)
            n = int(gen.integers(2, 60))
            d = int(gen.integers(2, 10))
            ids = [f"s{gen.integers(10**6):06d}-{i}" for i in range(n)]
            mat = unit_rows(n, d, gen)
            query = unit_rows(1, d, gen)[0]
            k = int(gen.integers(1, n + 1))
            assert top_k(RetrievalIndex(ids, mat), query, k) == \
                sort_oracle(ids, mat, query, k)


class TestRecall:
    def test_direct_counts(self):
        # construct queries with known partner ranks 1, 2, 5
        d = 8
        anchors = np.eye(d)[:5]
        index = RetrievalIndex([f"s{i}" for i in range(5)], anchors)
        q1 = anchors[0]
        q2 = 0.9 * anchors[0] + 0.436 * anchors[1]
        q2 /= np.linalg.norm(q2)
        q5 = anchors[0] * 0.1 + (anchors[1] + anchors[2] + anchors[3] + anchors[4])
        q5 /= np.linalg.norm(q5)
        queries = np.vstack([q1, q2, q5])
        partners = ["s0", "s1", "s0"]
        r = recall_at_k(queries, partners, index, [1, 3, 5])
        assert r[1] == pytest.approx(1 / 3)
        assert r[3] == pytest.approx(2 / 3)
        assert r[5] == pytest.approx(1.0)

    def test_perfect_retrieval(self):
        mat = unit_rows(10, 6)
        index = RetrievalIndex([f"s{i}" for i in range(10)], mat)
        r = recall_at_k(mat, [f"s{i}" for i in range(10)], index, [1, 5, 10])
        assert all(v == 1.0 for v in r.values())

    def test_monotone_in_k(self):
        for trial in range(10):
            gen = np.random.default_rng(100 + trial)
            n = int(gen.integers(3, 40))
            mat = unit_rows(n, 5, gen)
            queries = unit_rows(n, 5, gen)
            ids = [f"s{i}" for i in range(n)]
            r = recall_at_k(queries, ids, RetrievalIndex(ids, mat), range(1, n + 1))
            values = [r[k] for k in range(1, n + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert values[-1] == 1.0

    @pytest.mark.parametrize("n", [7, RANK_BLOCK + 37])
    def test_partner_ranks_match_loop_oracle_with_ties(self, n):
        # sign vectors give exactly tied sims, broken by id; ids are shuffled
        # so id order differs from row order
        gen = np.random.default_rng(n)
        mat = np.sign(gen.normal(size=(n, 6)))
        queries = np.sign(mat + 1.5 * gen.normal(size=mat.shape))
        ids = [f"s{v:05d}" for v in gen.permutation(10 * n)[:n]]
        partners = [ids[i] for i in gen.permutation(n)]
        index = RetrievalIndex(ids, mat)
        want = loop_partner_ranks(queries, partners, index)
        got = partner_ranks(queries, partners, index)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        sims = queries @ mat.T
        tied = sum(int(np.count_nonzero(sims[q] == sims[q, ids.index(p)])) > 1
                   for q, p in enumerate(partners))
        assert tied > n // 4 and (want > 1).any()

    @pytest.mark.parametrize("n", [RANK_BLOCK, 2 * RANK_BLOCK + 9])
    def test_partner_ranks_match_both_oracles_with_ties_in_and_across_blocks(self, n):
        """Sign vectors tie exactly within every block of query rows; a
        quarter of the index is one row, so a query tied there ties with many
        candidates; partners in the last quarter, continuous rows, tie with none."""
        gen = np.random.default_rng(n + 7)
        mat = np.sign(gen.normal(size=(n, 8)))
        mat[: n // 4] = mat[0]
        mat[n - n // 4:] = unit_rows(n // 4, 8, gen)
        queries = np.sign(mat + 1.2 * gen.normal(size=mat.shape))
        queries[0] = mat[0]
        ids = [f"s{v:05d}" for v in gen.permutation(10 * n)[:n]]
        partners = [ids[i] for i in gen.permutation(n)]
        partners[0] = ids[n // 8]  # one of the rows equal to row 0
        index = RetrievalIndex(ids, mat)
        got = partner_ranks(queries, partners, index)
        for oracle in (loop_partner_ranks, blockwise_partner_ranks):
            want = oracle(queries, partners, index)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        sims = queries @ mat.T
        ties = np.array([np.count_nonzero(sims[q] == sims[q, ids.index(p)]) - 1
                         for q, p in enumerate(partners)])
        assert ties[0] >= n // 4 - 1 and (ties == 0).any() and (ties > 0).sum() > n // 4
        for block in range(0, n, RANK_BLOCK):
            assert (ties[block:block + RANK_BLOCK] > 0).any()

    @pytest.mark.parametrize("n", [7, RANK_BLOCK + 37, 300])
    def test_partner_ranks_with_workspace_equal_ranks_without(self, n):
        """Through a reused, oversized workspace that starts as NaN, exact
        ties included (sign vectors), the ranks equal those of a run without."""
        gen = np.random.default_rng(n + 1)
        ids = [f"s{v:05d}" for v in gen.permutation(10 * n)[:n]]
        partners = [ids[i] for i in gen.permutation(n)]
        workspace = np.full(n * n + 11, np.nan)
        for mat, queries in ((np.sign(gen.normal(size=(n, 6))), np.sign(gen.normal(size=(n, 6)))),
                             (unit_rows(n, 16, gen), unit_rows(n, 16, gen))):
            index = RetrievalIndex(ids, mat)
            want = partner_ranks(queries, partners, index)
            got = partner_ranks(queries, partners, index, workspace)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.isnan(workspace[n * n:]).all()  # only the product's prefix is written

    def test_partner_ranks_allocate_little_beside_a_workspace(self):
        n = 2000
        gen = np.random.default_rng(5)
        ids = [f"s{i}" for i in range(n)]
        index = RetrievalIndex(ids, unit_rows(n, 32, gen))
        queries, workspace = unit_rows(n, 32, gen), np.empty(n * n)
        tracemalloc.start()
        try:
            partner_ranks(queries, ids, index, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * n * n * 8

    def test_partner_ranks_query_count_mismatch(self):
        index = RetrievalIndex(["a", "b"], np.eye(2))
        with pytest.raises(DimMismatch):
            partner_ranks(np.eye(2), ["a"], index)

    def test_missing_partner(self):
        index = RetrievalIndex(["a"], np.array([[1.0, 0.0]]))
        with pytest.raises(MissingPartner):
            recall_at_k(np.array([[1.0, 0.0]]), ["zz"], index, [1])


def tied_pairs(n, gen):
    """Sign-vector raw and anchor rows, whose similarities are small integers
    and so tie exactly under any product; a quarter of each side repeats one
    row, at different places on the two sides. Ids are shuffled strings, so
    their order differs from the row order."""
    raw, anchors = np.sign(gen.normal(size=(n, 6))), np.sign(gen.normal(size=(n, 6)))
    raw[n // 2: n // 2 + n // 4] = raw[-1]
    anchors[: n // 4] = anchors[n // 3]
    ids = [f"s{v:05d}" for v in gen.permutation(10 * n)[:n]]
    return raw, anchors, ids


def other_ties(sims):
    """Per row: the entries besides the diagonal that tie with it."""
    return np.count_nonzero(sims == np.diagonal(sims)[:, None], axis=1) - 1


class TestBidirectionalRecall:
    @pytest.mark.parametrize("n", [7, RANK_BLOCK, RANK_BLOCK + 37, 300])
    def test_ranks_equal_two_products_with_ties(self, n):
        raw, anchors, ids = tied_pairs(n, np.random.default_rng(n + 3))
        got, want = bidirectional_ranks(raw, anchors, ids), two_product_ranks(raw, anchors, ids)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        sims = raw @ anchors.T
        for direction in (sims, sims.T):  # ties broken by id, in both directions
            assert (other_ties(direction) > 0).sum() > n // 4
        assert (got[1][: n // 4] > 1).any()

    @pytest.mark.parametrize("n", [RANK_BLOCK - 1, RANK_BLOCK, RANK_BLOCK + 1, 255, 500, 2000])
    def test_ranks_equal_two_products_on_unit_rows(self, n):
        gen = np.random.default_rng(n)
        raw, anchors = unit_rows(n, 32, gen), unit_rows(n, 32, gen)
        anchors = 0.6 * raw + anchors  # partners closer than chance, so the ranks spread
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
        ids = [f"s{i}" for i in range(n)]
        got, want = bidirectional_ranks(raw, anchors, ids), two_product_ranks(raw, anchors, ids)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w)
            assert (g == 1).any() and (g > 1).any()
        ks = [1, 5, n]
        assert bidirectional_recall(raw, anchors, ids, ks) == {
            name: {k: float(np.mean(r <= k)) for k in ks} for name, r in zip(("R2A", "A2R"), want)}

    def test_one_product_for_both_directions(self, monkeypatch):
        """Both directions read one n x n product, written into the front of
        the workspace, and give the ranks of a run without one."""
        n = 2 * RANK_BLOCK + 5
        raw, anchors, ids = tied_pairs(n, np.random.default_rng(8))
        want = bidirectional_ranks(raw, anchors, ids)
        shapes, original = [], kernels.gram
        monkeypatch.setattr(kernels, "gram", lambda a, b, workspace=None: (
            shapes.append((len(a), len(b))), original(a, b, workspace))[1])
        workspace = np.full(n * n + 7, np.nan)
        got = bidirectional_ranks(raw, anchors, ids, workspace)
        assert shapes == [(n, n)] and np.isnan(workspace[n * n:]).all()
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    def test_ranks_allocate_little_beside_a_workspace(self):
        n = 2000
        gen = np.random.default_rng(6)
        raw, anchors, workspace = unit_rows(n, 32, gen), unit_rows(n, 32, gen), np.empty(n * n)
        ids = [f"s{i}" for i in range(n)]
        tracemalloc.start()
        try:
            bidirectional_ranks(raw, anchors, ids, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * n * n * 8

    @pytest.mark.parametrize("n", [7, RANK_BLOCK + 37, 300])
    def test_partner_ranks_equal_the_counted_form(self, n):
        """``partner_ranks`` through ``_rank_rows`` equals its form before,
        with arbitrary partners, on exact ties and on unit rows."""
        gen = np.random.default_rng(n + 5)
        raw, anchors, ids = tied_pairs(n, gen)
        partners = [ids[i] for i in gen.permutation(n)]
        for queries, matrix in ((raw, anchors), (unit_rows(n, 16, gen), unit_rows(n, 16, gen))):
            index = RetrievalIndex(ids, matrix)
            got = partner_ranks(queries, partners, index)
            want = counted_partner_ranks(queries, partners, index)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_counts_past_the_uint16_range(self):
        mask = np.ones((2, 70_000), dtype=bool)
        mask[1, ::2] = False
        assert retrieval._count(mask, 1).tolist() == [70_000, 35_000]
        assert retrieval._count(mask, 0).tolist()[:2] == [1, 2]

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            bidirectional_recall(np.eye(3), np.eye(3)[:, :2], ["a", "b", "c"], [1])


class TestModalityGap:
    def test_collapsed_space_zero_gaps(self):
        x = unit_rows(12, 4)
        mods = ["image", "audio", "text"] * 4
        report = modality_gap(x, x, mods)
        assert all(g == pytest.approx(0.0) for g in report.gaps.values())
        assert report.average == pytest.approx(0.0)

    def test_centroid_distance(self):
        raw = np.tile([1.0, 0.0], (4, 1))
        anchors = np.tile([0.0, 0.0], (4, 1))
        report = modality_gap(raw, anchors, ["image"] * 4)
        assert report.gaps["image"] == pytest.approx(1.0)

    def test_reduction_percentage_table_arithmetic(self):
        base = GapReport(gaps={"video": 44.29}, average=44.29)
        projected = GapReport(gaps={"video": 0.081}, average=0.081)
        delta = gap_reduction(projected, base)
        assert delta["video"] == pytest.approx(-99.8, abs=0.05)

    def test_rotation_invariance(self):
        gen = np.random.default_rng(9)
        raw = unit_rows(30, 6, gen)
        anchors = unit_rows(30, 6, gen)
        mods = (["image"] * 10) + (["audio"] * 10) + (["video"] * 10)
        q, _ = np.linalg.qr(gen.normal(size=(6, 6)))
        r1 = modality_gap(raw, anchors, mods)
        r2 = modality_gap(raw @ q, anchors @ q, mods)
        for m in r1.gaps:
            assert r1.gaps[m] == pytest.approx(r2.gaps[m], abs=1e-9)


class TestClusteringDiagnostic:
    def test_tight_separated_clusters_flag_true(self):
        gen = np.random.default_rng(4)
        a = np.tile([10.0, 0.0], (20, 1)) + 0.1 * gen.normal(size=(20, 2))
        b = np.tile([-10.0, 0.0], (20, 1)) + 0.1 * gen.normal(size=(20, 2))
        diag = clustering_diagnostic(np.vstack([a, b]), ["image"] * 20 + ["text"] * 20)
        assert diag["clustered"] is True

    def test_identical_points_not_clustered(self):
        pts = np.tile([1.0, 0.0], (8, 1))
        diag = clustering_diagnostic(pts, ["image"] * 4 + ["text"] * 4)
        assert diag["clustered"] is False

    def test_shuffled_tags_on_mixed_cloud_not_clustered(self):
        gen = np.random.default_rng(12)
        cloud = unit_rows(60, 8, gen)
        tags = ["image"] * 30 + ["text"] * 30
        diag = clustering_diagnostic(cloud, tags)
        assert diag["clustered"] is False

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            clustering_diagnostic(unit_rows(3, 4), ["image", "image", "text"])
        with pytest.raises(InsufficientSamples):
            clustering_diagnostic(unit_rows(4, 4), ["image"] * 4)
