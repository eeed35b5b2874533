import itertools

import numpy as np
import pytest

from emblend.errors import DimMismatch, EmblendError, EmptySet, NonFiniteVector, ZeroVector
from emblend.geometry import (Embedding, centroid, cosine_rows, cosine_sim, normalize,
                              normalize_rows)
from reference import spread


class TestNormalize:
    def test_pythagorean(self):
        assert np.allclose(normalize([3.0, 4.0]), [0.6, 0.8])

    def test_axis(self):
        assert np.allclose(normalize([0.0, 2.0]), [0.0, 1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            normalize([0.0, 0.0])

    def test_idempotent_after_one_rounding(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(2, 20))
            once = normalize(v)
            twice = normalize(once)
            assert np.allclose(twice, once, rtol=0, atol=1e-15)
            assert abs(float(np.linalg.norm(twice)) - 1.0) < 1e-14


class TestCosineSim:
    def test_identity(self):
        assert cosine_sim([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_diagonal(self):
        assert cosine_sim(normalize([1.0, 1.0]), [1.0, 0.0]) == pytest.approx(
            0.70710678, abs=1e-8)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u = normalize(rng.normal(size=8))
            v = normalize(rng.normal(size=8))
            assert cosine_sim(u, v) == cosine_sim(v, u)

    def test_clamped(self):
        v = normalize(np.full(64, 1.0))
        assert -1.0 <= cosine_sim(v, v) <= 1.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])


class TestCentroid:
    def test_symmetry(self):
        assert np.allclose(centroid([[1.0, 0.0], [-1.0, 0.0]]), [0.0, 0.0])

    def test_singleton(self):
        assert np.allclose(centroid([[1.0, 0.0]]), [1.0, 0.0])

    def test_mean_of_two(self):
        assert np.allclose(centroid([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])

    def test_empty(self):
        with pytest.raises(EmptySet):
            centroid(np.zeros((0, 3)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(10, 4))
        shuffled = pts[rng.permutation(10)]
        assert np.allclose(centroid(pts), centroid(shuffled))

    def test_not_renormalized(self):
        c = centroid([[1.0, 0.0], [0.0, 1.0]])
        assert np.linalg.norm(c) < 1.0


class TestSpread:
    def test_degenerate_cluster(self):
        pts = np.tile([0.3, 0.4], (5, 1))
        assert spread(pts, [0.3, 0.4]) == 0.0

    def test_two_points(self):
        assert spread([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0]) == pytest.approx(1.0)

    def test_single_distance(self):
        assert spread([[2.0, 0.0]], [0.0, 0.0]) == pytest.approx(2.0)

    def test_empty(self):
        with pytest.raises(EmptySet):
            spread(np.zeros((0, 2)), [0.0, 0.0])

    def test_zero_iff_identical(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(6, 3))
        c = centroid(pts)
        assert spread(pts, c) > 0.0


class TestEmbedding:
    def test_construction_normalizes(self):
        emb = Embedding(normalize([3.0, 4.0]), "e", "text", "s1")
        assert emb.dim == 2
        assert abs(np.linalg.norm(emb.values) - 1.0) <= 1e-6

    def test_non_unit_rejected(self):
        with pytest.raises(ZeroVector):
            Embedding(np.array([3.0, 4.0]), "e", "text", "s1")


def _magnitude_vectors(seed=6):
    """Random vectors of 1..40 entries with norms from about 1e-6 to 1e6."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=rng.integers(1, 40)) * 10.0 ** rng.uniform(-6, 6)
            for _ in range(2000)]


class TestScalarNorm:
    def test_normalize_bit_equal_to_linalg_norm(self):
        for v in _magnitude_vectors():
            want = v / float(np.linalg.norm(v))
            assert normalize(v).tobytes() == want.tobytes()

    def test_normalize_rows_bit_equal_to_normalize(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(300, 24)) * 10.0 ** rng.uniform(-6, 6, size=(300, 1))
        want = np.vstack([normalize(row) for row in m])
        assert normalize_rows(m.copy()).tobytes() == want.tobytes()

    def test_normalize_rows_rejects_first_small_row(self):
        m = np.ones((4, 3))
        m[2] = 1e-13
        m[3] = 0.0
        with pytest.raises(ZeroVector, match=repr(float(np.linalg.norm(m[2])))):
            normalize_rows(m)

    @pytest.mark.parametrize("dim", [2, 3, 31, 32, 33, 128])
    def test_normalize_rows_bit_equal_per_dim(self, dim):
        rng = np.random.default_rng(dim)
        m = rng.normal(size=(200, dim)) * 10.0 ** rng.uniform(-6, 6, size=(200, 1))
        want = [normalize(row).tobytes() for row in m]
        assert [row.tobytes() for row in normalize_rows(m.copy())] == want
        assert normalize_rows(m[:1].copy())[0].tobytes() == want[0]

    def test_normalize_rows_bit_equal_on_strided_rows(self):
        # every other column of a wider matrix: rows with a stride of two
        rng = np.random.default_rng(11)
        wide = rng.normal(size=(150, 66)) * 10.0 ** rng.uniform(-6, 6, size=(150, 1))
        m = wide[:, ::2]
        assert not m.flags.c_contiguous
        want = [normalize(row).tobytes() for row in m]
        assert [row.tobytes() for row in normalize_rows(m)] == want
        assert [row.tobytes() for row in wide[:, ::2]] == want  # divided in place

    @pytest.mark.parametrize("order", list(itertools.permutations(["nan", "inf", "zero"])))
    def test_normalize_rows_raises_what_the_first_bad_row_raises(self, order):
        bad = {"nan": np.array([np.nan, 1.0, 2.0]), "inf": np.array([1.0, -np.inf, 0.0]),
               "zero": np.zeros(3)}
        m = np.ones((7, 3))
        for at, name in zip((1, 3, 5), order):
            m[at] = bad[name]
        with pytest.raises(EmblendError) as want:
            normalize(bad[order[0]])
        assert type(want.value) is (ZeroVector if order[0] == "zero" else NonFiniteVector)
        before = m.copy()
        with pytest.raises(type(want.value)) as got:
            normalize_rows(m)
        assert str(got.value) == str(want.value)
        np.testing.assert_array_equal(m, before)  # left as it was

    def test_embedding_accepts_what_linalg_norm_accepts(self):
        for v in _magnitude_vectors(8)[:500]:
            unit = v / float(np.linalg.norm(v))
            for scale in (1.0, 1.0 + 5e-7, 1.0 - 5e-7, 1.0 + 2e-6, 1.0 - 2e-6):
                values = unit * scale
                if abs(float(np.linalg.norm(values)) - 1.0) > 1e-6:
                    with pytest.raises(ZeroVector):
                        Embedding(values, "e", "text", "s")
                else:
                    assert Embedding(values, "e", "text", "s").values is values

    def test_zero_vector_below_eps(self):
        v = np.full(4, 4e-13)  # norm 8e-13
        with pytest.raises(ZeroVector):
            normalize(v)
        assert normalize(v * 2).tobytes() == (v * 2 / float(np.linalg.norm(v * 2))).tobytes()

class TestCosineClamp:
    def test_rounding_past_one_is_clamped(self):
        rng = np.random.default_rng(9)
        over = None
        for _ in range(10000):
            v = normalize(rng.normal(size=32))
            if v @ v > 1.0:
                over = v
                break
        assert over is not None
        assert cosine_sim(over, over) == 1.0
        assert cosine_sim(over, -over) == -1.0

    def test_in_range_value_is_the_dot(self):
        u = normalize([1.0, 2.0, 3.0])
        v = normalize([3.0, -1.0, 0.5])
        assert cosine_sim(u, v) == float(np.dot(u, v))

    def test_nan_passes_through(self):
        assert np.isnan(cosine_sim([np.nan, 0.0], [1.0, 0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            cosine_sim(np.ones(3), np.ones((3, 1)))

    def test_cosine_rows_equal_cosine_sim_per_row(self):
        rng = np.random.default_rng(12)
        for dim in (2, 3, 31, 32, 33, 128):
            a = np.array([normalize(rng.normal(size=dim)) for _ in range(50)])
            b = np.array([normalize(rng.normal(size=dim)) for _ in range(50)])
            assert cosine_rows(a, b).tolist() == [cosine_sim(u, v) for u, v in zip(a, b)]
            # a 1-D second argument is every row's partner
            assert cosine_rows(a, b[0]).tolist() == [cosine_sim(u, b[0]) for u in a]
            assert cosine_rows(a, b[0]).tolist() == [cosine_sim(b[0], u) for u in a]

    def test_cosine_rows_clamps_as_cosine_sim(self):
        rng = np.random.default_rng(9)
        over = next(v for v in (normalize(rng.normal(size=32)) for _ in range(10000))
                    if v @ v > 1.0)
        a = np.array([over, over, [np.nan] + [0.0] * 31])
        b = np.array([over, -over, over])
        got = cosine_rows(a, b).tolist()
        assert got[:2] == [1.0, -1.0] == [cosine_sim(over, over), cosine_sim(over, -over)]
        assert np.isnan(got[2])
