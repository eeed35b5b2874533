import struct
import threading

import numpy as np
import pytest

from emblend.cache import MAGIC, EmbeddingCache
from emblend.errors import CacheCorrupt
from emblend.geometry import make_embedding


def make_emb(sample_id, dim=8, seed=0, expert="ex"):
    rng = np.random.default_rng(seed)
    return make_embedding(rng.normal(size=dim), expert, "text", sample_id)


def test_put_get_roundtrip_float32_exact(tmp_path):
    path = tmp_path / "c.eec"
    cache = EmbeddingCache(path, dim=8)
    emb = make_emb("s1", seed=3)
    cache.put(emb)
    got = cache.get("s1", "ex")
    assert got is not None
    assert np.array_equal(got.values, emb.values.astype(np.float32).astype(np.float64))
    assert got.modality == "text"


def test_get_absent_returns_none(tmp_path):
    cache = EmbeddingCache(tmp_path / "c.eec", dim=8)
    assert cache.get("nope", "ex") is None


def test_persists_across_reopen(tmp_path):
    path = tmp_path / "c.eec"
    cache = EmbeddingCache(path, dim=8)
    for i in range(5):
        cache.put(make_emb(f"s{i}", seed=i))
    reopened = EmbeddingCache(path, dim=8)
    assert len(reopened) == 5
    for i in range(5):
        assert reopened.get(f"s{i}", "ex") is not None


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "c.eec"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(CacheCorrupt):
        EmbeddingCache(path, dim=8)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "c.eec"
    path.write_bytes(struct.pack("<4sIIQ", MAGIC, 99, 8, 0))
    with pytest.raises(CacheCorrupt):
        EmbeddingCache(path, dim=8)


def test_truncated_record_rejected(tmp_path):
    path = tmp_path / "c.eec"
    cache = EmbeddingCache(path, dim=8)
    cache.put(make_emb("s1"))
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(CacheCorrupt):
        EmbeddingCache(path, dim=8)


def test_dim_mismatch_rejected(tmp_path):
    path = tmp_path / "c.eec"
    EmbeddingCache(path, dim=8)
    with pytest.raises(CacheCorrupt):
        EmbeddingCache(path, dim=16)


def test_reput_identical_is_noop(tmp_path):
    path = tmp_path / "c.eec"
    cache = EmbeddingCache(path, dim=8)
    emb = make_emb("s1")
    cache.put(emb)
    size_once = path.stat().st_size
    cache.put(emb)
    assert path.stat().st_size == size_once


def test_concurrent_puts_all_land(tmp_path):
    path = tmp_path / "c.eec"
    cache = EmbeddingCache(path, dim=8)
    embs = [make_emb(f"s{i}", seed=i) for i in range(40)]

    def worker(chunk):
        for e in chunk:
            cache.put(e)

    threads = [threading.Thread(target=worker, args=(embs[i::4],)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    reopened = EmbeddingCache(path, dim=8)
    assert len(reopened) == 40


def test_put_many_bytes_equal_per_item_puts(tmp_path):
    embs = [make_emb(f"s{i}", seed=i) for i in range(6)]
    # a repeat with equal values is skipped; a changed value is appended again
    sequence = embs + [embs[2], make_emb("s1", seed=99)]
    one, many = tmp_path / "one.eec", tmp_path / "many.eec"
    cache = EmbeddingCache(one, dim=8)
    for emb in sequence:
        cache.put(emb)
    batched = EmbeddingCache(many, dim=8)
    batched.put_many(sequence[:3])
    batched.put_many(sequence[3:])
    assert one.read_bytes() == many.read_bytes()
    reopened = EmbeddingCache(many, dim=8)
    assert len(reopened) == 6
    assert np.array_equal(reopened.get("s1", "ex").values, cache.get("s1", "ex").values)


def test_rows_are_float32_upcasts(tmp_path):
    cache = EmbeddingCache(tmp_path / "c.eec", dim=8)
    embs = [make_emb(f"s{i}", seed=i) for i in range(3)]
    cache.put_many(embs)
    rows = cache.rows(["s2", "s0"], "ex")
    assert rows.dtype == np.float64 and rows.shape == (2, 8)
    assert np.array_equal(rows[0], cache.get("s2", "ex").values)
    assert np.array_equal(rows[1], embs[0].values.astype(np.float32).astype(np.float64))
    assert cache.rows([], "ex").shape == (0, 8)
    with pytest.raises(KeyError):
        cache.rows(["absent"], "ex")


def test_every_truncation_is_corrupt(tmp_path):
    path = tmp_path / "c.eec"
    cache = EmbeddingCache(path, dim=8)
    cache.put_many([make_emb("s1"), make_emb("sample-two", seed=1)])
    data = path.read_bytes()
    for cut in range(1, len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(CacheCorrupt):
            EmbeddingCache(path, dim=8)


def test_unknown_modality_byte_rejected(tmp_path):
    path = tmp_path / "c.eec"
    EmbeddingCache(path, dim=8).put(make_emb("s1"))
    data = bytearray(path.read_bytes())
    data[20 + 2 + 2 + 2 + 2] = 250  # header, id_len, "s1", eid_len, "ex"
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorrupt, match="modality byte 250"):
        EmbeddingCache(path, dim=8)


def test_append_after_torn_append_drops_the_torn_tail(tmp_path):
    # a writer died after 9 bytes of record "b", before the header count
    # moved; the next append must overwrite that tail, not follow it
    path = tmp_path / "c.eec"
    EmbeddingCache(path, dim=8).put(make_emb("a", seed=1))
    counted = path.read_bytes()
    other = tmp_path / "b.eec"
    EmbeddingCache(other, dim=8).put(make_emb("b", seed=2))
    path.write_bytes(counted + other.read_bytes()[20:29])
    EmbeddingCache(path, dim=8).put(make_emb("z", seed=3))
    reloaded = EmbeddingCache(path, dim=8)
    assert ("b", "ex") not in reloaded
    for sample_id, seed in (("a", 1), ("z", 3)):
        stored = make_emb(sample_id, seed=seed).values.astype(np.float32)
        assert np.array_equal(reloaded.get(sample_id, "ex").values, stored)
    assert path.stat().st_size == 2 * len(counted) - 20
