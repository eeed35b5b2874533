import re
import struct
import sys
import threading

import numpy as np
import pytest

from emblend.cache import MAGIC, EmbeddingCache
from emblend.errors import CacheCorrupt
from emblend.experts import EmbedItem
from emblend.geometry import Embedding, normalize


def make_emb(sample_id, dim=8, seed=0, expert="ex"):
    rng = np.random.default_rng(seed)
    return Embedding(normalize(rng.normal(size=dim)), expert, "text", sample_id)


def put_embs(cache, embs):
    """One ``put_many`` of the embeddings, all of expert "ex", as one matrix."""
    cache.put_many("ex", [EmbedItem(e.sample_id, e.modality, "") for e in embs],
                   np.array([e.values for e in embs]))


@pytest.fixture(params=["memory", "file"])
def store_path(request, tmp_path):
    """The path of a store: None keeps it in memory, else a cache file."""
    return None if request.param == "memory" else tmp_path / "c.eec"


def stored(values, path):
    """The float64 values a store at ``path`` returns for ``values``."""
    return values if path is None else values.astype(np.float32).astype(np.float64)


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


def test_reput_identical_is_noop(store_path):
    cache = EmbeddingCache(store_path, dim=8)
    emb = make_emb("s1")
    cache.put(emb)
    size_once = None if store_path is None else store_path.stat().st_size
    cache.put(emb)
    put_embs(cache, [emb, emb])
    assert len(cache) == 1
    assert np.array_equal(cache.rows(["s1"], "ex")[0], stored(emb.values, store_path))
    if store_path is not None:
        assert store_path.stat().st_size == size_once


def test_changed_value_wins(store_path):
    cache = EmbeddingCache(store_path, dim=8)
    put_embs(cache, [make_emb("s0", seed=0), make_emb("s1", seed=1), make_emb("s2", seed=2)])
    changed = make_emb("s1", seed=99)
    cache.put(changed)
    put_embs(cache, [make_emb("s0", seed=5), make_emb("s0", seed=6)])  # last in a batch wins
    want = stored(changed.values, store_path)
    reads = [cache]
    if store_path is not None:
        reads.append(EmbeddingCache(store_path, dim=8))
    for store in reads:
        assert len(store) == 3
        assert np.array_equal(store.rows(["s1"], "ex")[0], want)
        assert np.array_equal(store.get("s1", "ex").values, want)
        assert np.array_equal(store.rows(["s0"], "ex")[0],
                              stored(make_emb("s0", seed=6).values, store_path))
        assert np.array_equal(store.rows(["s2"], "ex")[0],
                              stored(make_emb("s2", seed=2).values, store_path))


def test_concurrent_puts_all_land(tmp_path):
    # four writers grow the row matrix while a reader checks that every key
    # it finds stored reads back its own row
    path = tmp_path / "c.eec"
    cache = EmbeddingCache(path, dim=8)
    embs = [make_emb(f"s{i}", seed=i) for i in range(200)]
    want = {e.sample_id: stored(e.values, path) for e in embs}
    done, wrong = threading.Event(), []

    def worker(chunk):
        for e in chunk:
            cache.put(e)

    def reader():
        while not done.is_set():
            ids = [sid for sid in want if (sid, "ex") in cache]
            rows = cache.rows(ids, "ex")
            wrong.extend(sid for sid, row in zip(ids, rows) if not np.array_equal(row, want[sid]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        check = threading.Thread(target=reader)
        check.start()
        threads = [threading.Thread(target=worker, args=(embs[i::4],)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        done.set()
        check.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [check])
    assert wrong == []
    reopened = EmbeddingCache(path, dim=8)
    assert len(reopened) == 200
    assert np.array_equal(reopened.rows(list(want), "ex"), np.array(list(want.values())))


def test_put_many_bytes_equal_per_item_puts(tmp_path):
    embs = [make_emb(f"s{i}", seed=i) for i in range(6)]
    # a repeat with equal values is skipped; a changed value is appended again
    sequence = embs + [embs[2], make_emb("s1", seed=99)]
    one, many = tmp_path / "one.eec", tmp_path / "many.eec"
    cache = EmbeddingCache(one, dim=8)
    for emb in sequence:
        cache.put(emb)
    batched = EmbeddingCache(many, dim=8)
    put_embs(batched, sequence[:3])
    put_embs(batched, sequence[3:])
    assert one.read_bytes() == many.read_bytes()
    reopened = EmbeddingCache(many, dim=8)
    assert len(reopened) == 6
    assert np.array_equal(reopened.get("s1", "ex").values, cache.get("s1", "ex").values)


def test_rows_are_float64_at_storage_precision(store_path):
    # a store without a path keeps the values unrounded; a file keeps float32
    cache = EmbeddingCache(store_path, dim=8)
    embs = [make_emb(f"s{i}", seed=i) for i in range(3)]
    put_embs(cache, embs)
    rows = cache.rows(["s2", "s0", "s2"], "ex")
    assert rows.dtype == np.float64 and rows.shape == (3, 8)
    assert np.array_equal(rows[0], cache.get("s2", "ex").values)
    assert np.array_equal(rows[1], stored(embs[0].values, store_path))
    assert np.array_equal(rows[2], rows[0])
    assert (store_path is None) == np.array_equal(rows[1], embs[0].values)
    empty = cache.rows([], "ex")
    assert empty.dtype == np.float64 and empty.shape == (0, 8)
    with pytest.raises(KeyError):
        cache.rows(["absent"], "ex")
    with pytest.raises(KeyError):
        cache.rows(["s0"], "other-expert")


def test_rows_survive_growth(store_path):
    # the row matrix grows by doubling; earlier rows keep their values
    cache = EmbeddingCache(store_path, dim=8)
    embs = [make_emb(f"s{i}", seed=i) for i in range(40)]
    for start in range(0, 40, 7):
        put_embs(cache, embs[start:start + 7])
    rows = cache.rows([e.sample_id for e in embs], "ex")
    assert np.array_equal(rows, np.array([stored(e.values, store_path) for e in embs]))


def test_pathless_store_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = EmbeddingCache(None, dim=8)
    cache.put(make_emb("s1"))
    assert cache.path is None and ("s1", "ex") in cache
    assert list(tmp_path.iterdir()) == []


def test_every_truncation_is_corrupt(tmp_path):
    path = tmp_path / "c.eec"
    cache = EmbeddingCache(path, dim=8)
    put_embs(cache, [make_emb("s1"), make_emb("sample-two", seed=1)])
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


def test_unknown_modality_error_names_the_file(tmp_path):
    path = tmp_path / "c.eec"
    put_embs(EmbeddingCache(path, dim=8), [make_emb("s1"), make_emb("s2", seed=1)])
    data = bytearray(path.read_bytes())
    record = 2 + 2 + 2 + 2 + 1 + 4 * 8  # id_len, "s1", eid_len, "ex", modality, values
    data[20 + record + 8] = 7  # the second record's modality byte
    path.write_bytes(bytes(data))
    with pytest.raises(CacheCorrupt, match=f"^{re.escape(str(path))}: unknown modality byte 7$"):
        EmbeddingCache(path, dim=8)


def test_put_many_equals_sequential_puts(store_path, tmp_path):
    """Batches with repeated keys, equal and changed values, a -0.0 against a
    stored 0.0 and NaN values store and write what one ``put`` per item does."""
    rng = np.random.default_rng(13)
    base = rng.normal(size=(6, 8))
    base[0, 3] = 0.0
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    signed = base[0].copy()
    signed[3] = -0.0  # equal to base[0] under ==, so a put of it is skipped
    nan = np.full(8, np.nan)  # never equal, so always written
    modalities = ["text", "image", "audio", "video"]
    batches = [
        [("a", base[0]), ("b", base[1]), ("a", base[2]), ("c", base[3]), ("a", base[0])],
        [("b", base[1]), ("a", signed), ("d", nan), ("d", nan), ("c", base[4])],
        [("e", base[5]), ("b", base[2]), ("b", base[1]), ("e", base[5]), ("c", base[4])],
    ]
    sequential_path = None if store_path is None else tmp_path / "sequential.eec"
    sequential = EmbeddingCache(sequential_path, dim=8)
    batched = EmbeddingCache(store_path, dim=8)
    for n, batch in enumerate(batches):
        items = [EmbedItem(sid, modalities[(n + k) % 4], "") for k, (sid, _) in enumerate(batch)]
        for it, (_, values) in zip(items, batch):
            sequential.put_many("ex", [it], values[None, :])
        batched.put_many("ex", items, np.array([values for _, values in batch]))
    stores = [(sequential, batched)]
    if store_path is not None:
        assert sequential_path.read_bytes() == store_path.read_bytes()
        stores.append((EmbeddingCache(sequential_path, dim=8), EmbeddingCache(store_path, dim=8)))
    for want, got in stores:
        assert len(got) == len(want) == 5
        assert got.rows(list("abcde"), "ex").tobytes() == want.rows(list("abcde"), "ex").tobytes()
        for sid in "abce":  # d holds NaN, which get() refuses
            assert got.get(sid, "ex").modality == want.get(sid, "ex").modality


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
