import os
import pathlib
import re
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

from cachefile import HEADER, records, reseal, segment_spans, v1_bytes
from reference import tuple_keyed_merge
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


def test_every_cut_of_the_header_is_corrupt(tmp_path):
    path = tmp_path / "c.eec"
    EmbeddingCache(path, dim=8)
    header = path.read_bytes()
    assert len(header) == HEADER.size
    for cut in range(1, HEADER.size):
        path.write_bytes(header[:cut])
        with pytest.raises(CacheCorrupt, match="truncated header"):
            EmbeddingCache(path, dim=8)
        assert path.read_bytes() == header[:cut]


def test_v1_file_is_rejected_and_left_as_it_is(tmp_path):
    path = tmp_path / "c.eec"
    data = v1_bytes(8, [("s1", "ex", "text", make_emb("s1").values)])
    path.write_bytes(data)
    with pytest.raises(CacheCorrupt, match=f"^{re.escape(str(path))}: version 1 cache file; "
                                           "convert it with tools/cache_v1_to_v2.py$"):
        EmbeddingCache(path, dim=8)
    assert path.read_bytes() == data
    assert [p.name for p in tmp_path.iterdir()] == ["c.eec"]


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
    # the same record bytes in the same order, in 7 segments against 2
    assert records(one, 8) == records(many, 8)
    assert len(records(one, 8)) == 7
    assert len(segment_spans(one.read_bytes())) == 7
    assert len(segment_spans(many.read_bytes())) == 2
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
        assert records(sequential_path, 8) == records(store_path, 8)
        stores.append((EmbeddingCache(sequential_path, dim=8), EmbeddingCache(store_path, dim=8)))
    for want, got in stores:
        assert len(got) == len(want) == 5
        assert got.rows(list("abcde"), "ex").tobytes() == want.rows(list("abcde"), "ex").tobytes()
        for sid in "abce":  # d holds NaN, which get() refuses
            assert got.get(sid, "ex").modality == want.get(sid, "ex").modality


def test_append_after_torn_append_drops_the_torn_tail(tmp_path):
    # a writer died after 9 bytes of its segment for "b"; a load leaves that
    # tail in place, and the next append overwrites it rather than follow it
    path = tmp_path / "c.eec"
    EmbeddingCache(path, dim=8).put(make_emb("a", seed=1))
    complete = path.read_bytes()
    other = tmp_path / "b.eec"
    EmbeddingCache(other, dim=8).put(make_emb("b", seed=2))
    path.write_bytes(complete + other.read_bytes()[HEADER.size:HEADER.size + 9])
    EmbeddingCache(path, dim=8).put(make_emb("z", seed=3))
    reloaded = EmbeddingCache(path, dim=8)
    assert ("b", "ex") not in reloaded
    for sample_id, seed in (("a", 1), ("z", 3)):
        stored = make_emb(sample_id, seed=seed).values.astype(np.float32)
        assert np.array_equal(reloaded.get(sample_id, "ex").values, stored)
    assert path.stat().st_size == 2 * len(complete) - HEADER.size


def index_items(store):
    """The store's ((item_id, expert_id), row) pairs in row order; each
    expert's own index lists its ids in row order too."""
    pairs = []
    for expert_id, index in store._index.items():
        assert list(index.values()) == sorted(index.values())
        pairs += [((item_id, expert_id), row) for item_id, row in index.items()]
    return sorted(pairs, key=lambda pair: pair[1])


def index_keys(store):
    """The store's (item_id, expert_id) keys in row order."""
    return [key for key, _ in index_items(store)]


def store_state(store, keys):
    """Rows, modalities and row positions of ``keys`` in ``store``."""
    return ([store.rows([sid], eid).tobytes() for sid, eid in keys],
            [store.get(sid, eid).modality for sid, eid in keys],
            index_items(store))


def random_batches(seed, dim=8):
    """Three batches of (item, values) that repeat keys within and across
    batches, with changed values and every modality."""
    rng = np.random.default_rng(seed)
    modalities = ["text", "image", "audio", "video"]
    names = ["a", "bé", "c", "d", "e", "f"]
    batches = []
    for n in range(3):
        picks = rng.integers(0, len(names), size=5)
        batches.append([(EmbedItem(names[p], modalities[(n + k) % 4], ""),
                         normalize(rng.normal(size=dim))) for k, p in enumerate(picks)])
    return batches


def test_every_cut_of_the_final_segment_reopens_the_store_before_it(tmp_path):
    path = tmp_path / "c.eec"
    cache = EmbeddingCache(path, dim=8)
    batches = random_batches(3)
    for batch in batches[:2]:
        cache.put_many("ex", [it for it, _ in batch], np.array([v for _, v in batch]))
    keys = index_keys(cache)
    before = store_state(cache, keys)
    prefix = path.read_bytes()
    last = batches[2]
    cache.put_many("ex", [it for it, _ in last], np.array([v for _, v in last]))
    full = path.read_bytes()
    after = store_state(EmbeddingCache(path, dim=8), index_keys(cache))
    assert len(full) > len(prefix)
    z = make_emb("z", seed=9)
    for cut in range(len(prefix), len(full)):
        path.write_bytes(full[:cut])
        reopened = EmbeddingCache(path, dim=8)
        assert store_state(reopened, keys) == before and len(reopened) == len(keys)
        assert path.read_bytes() == full[:cut]  # a load never cuts the tail
        reopened.put(z)
        assert path.read_bytes()[:len(prefix)] == prefix
        assert len(segment_spans(path.read_bytes())) == 3
        assert np.array_equal(EmbeddingCache(path, dim=8).get("z", "ex").values,
                              z.values.astype(np.float32))
    path.write_bytes(full)
    assert store_state(EmbeddingCache(path, dim=8), index_keys(cache)) == after


def test_bad_crc_in_the_final_segment_is_a_torn_tail(tmp_path):
    path = tmp_path / "c.eec"
    cache = EmbeddingCache(path, dim=8)
    put_embs(cache, [make_emb("a", seed=1)])
    prefix = path.read_bytes()
    put_embs(cache, [make_emb("b", seed=2)])
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x10
    path.write_bytes(bytes(data))
    reopened = EmbeddingCache(path, dim=8)
    assert index_keys(reopened) == [("a", "ex")]
    reopened.put(make_emb("c", seed=3))
    assert path.read_bytes()[:len(prefix)] == prefix
    assert [r[0] for r in records(path, 8)] == ["a", "c"]


def test_every_bit_flip_in_a_non_final_segment_is_corrupt(tmp_path):
    path = tmp_path / "c.eec"
    cache = EmbeddingCache(path, dim=4)
    rng = np.random.default_rng(5)
    for names in (["s1", "s2"], ["s3"]):
        cache.put_many("ex", [EmbedItem(n, "image", "") for n in names],
                       rng.normal(size=(len(names), 4)))
    data = path.read_bytes()
    (start, end), _ = segment_spans(data)
    for bit in range(8 * start, 8 * end):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        with pytest.raises(CacheCorrupt, match="bad (CRC|segment head)"):
            EmbeddingCache(path, dim=4)


@pytest.mark.parametrize("field", ["modality", "id"])
def test_v2_body_with_valid_crc_but_bad_contents_is_corrupt(tmp_path, field):
    path = tmp_path / "c.eec"
    put_embs(EmbeddingCache(path, dim=8), [make_emb("s1"), make_emb("s2", seed=1)])
    data = bytearray(path.read_bytes())
    body = HEADER.size + 20
    if field == "modality":
        data[len(data) - 2 * 4 * 8 - 1] = 9  # the second record's modality byte
        match = f"^{re.escape(str(path))}: unknown modality byte 9$"
    else:
        data[body + 2 + 2 + 2 * 4] = 0xFF  # the first byte of the id table's text
        match = "bad segment body"
    path.write_bytes(reseal(bytes(data), HEADER.size))
    with pytest.raises(CacheCorrupt, match=match):
        EmbeddingCache(path, dim=8)


def test_first_occurrence_row_and_last_write_hold_across_segments(tmp_path):
    path = tmp_path / "c.eec"
    memory, cache = EmbeddingCache(None, dim=8), EmbeddingCache(path, dim=8)
    order, last = [], {}
    for batch in random_batches(11):
        items, values = [it for it, _ in batch], np.array([v for _, v in batch])
        for store in (memory, cache):
            store.put_many("ex", items, values)
        for it, v in batch:
            if it.item_id not in last:
                order.append(it.item_id)
            last[it.item_id] = (v, it.modality)
    reopened = EmbeddingCache(path, dim=8)
    for store, cast in ((memory, np.float64), (cache, np.float32), (reopened, np.float32)):
        assert index_items(store) == [((sid, "ex"), row) for row, sid in enumerate(order)]
        assert np.array_equal(store.rows(order, "ex"),
                              np.array([last[sid][0].astype(cast) for sid in order]))
        assert [store.get(sid, "ex").modality for sid in order] == [last[s][1] for s in order]


def test_interleaved_experts_keep_rows_in_first_occurrence_order(tmp_path):
    """Segments of two experts, alternating and sharing item ids, index each
    (id, expert) key at its first record's row, as one tuple-keyed dict did."""
    batches = [(expert_id, [it for it, _ in batch], np.array([v for _, v in batch]))
               for expert_id, batch in zip(["ex", "other", "other", "ex", "third", "ex"],
                                           random_batches(13) + random_batches(14))]
    path = tmp_path / "c.eec"
    memory, cache = EmbeddingCache(None, dim=8), EmbeddingCache(path, dim=8)
    for expert_id, items, block in batches:
        for store in (memory, cache):
            store.put_many(expert_id, items, block)
    index, values, modalities = tuple_keyed_merge(batches)
    assert len({eid for _, eid in index}) == 3 and len(index) < sum(len(b[1]) for b in batches)
    for store, cast in ((memory, np.float64), (cache, np.float32),
                        (EmbeddingCache(path, dim=8), np.float32)):
        assert index_items(store) == list(index.items()) and len(store) == len(index)
        assert np.array_equal(store.matrix, np.array([values[key].astype(cast) for key in index]))
        for (item_id, expert_id), row in index.items():
            assert (item_id, expert_id) in store
            assert store.get(item_id, expert_id).modality == modalities[item_id, expert_id]
            assert store.find([item_id, "absent"], expert_id).tolist() == [row, -1]
        assert ("a", "nobody") not in store and store.find(["a"], "nobody").tolist() == [-1]
        assert store.get("a", "nobody") is None and store.rows([], "nobody").shape == (0, 8)


def test_append_takes_in_segments_another_writer_added(tmp_path):
    path = tmp_path / "c.eec"
    first, second = EmbeddingCache(path, dim=8), EmbeddingCache(path, dim=8)
    put_embs(first, [make_emb("a", seed=1), make_emb("b", seed=2)])
    # "a" as "first" stored it is not written again; "b" changes; "c" is new
    put_embs(second, [make_emb("a", seed=1), make_emb("b", seed=5), make_emb("c", seed=3)])
    assert [r[0] for r in records(path, 8)] == ["a", "b", "b", "c"]
    for store in (second, EmbeddingCache(path, dim=8)):
        assert index_keys(store) == [("a", "ex"), ("b", "ex"), ("c", "ex")]
        assert np.array_equal(store.rows(["b"], "ex")[0],
                              make_emb("b", seed=5).values.astype(np.float32))


ROUNDS = 150
WRITER = """
import os, sys, time
import numpy as np
from emblend.cache import EmbeddingCache
from emblend.experts import EmbedItem
path, writer, rounds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cache = EmbeddingCache(path, dim=4)
open(f"{path}.ready{writer}", "w").close()  # start together
while not all(os.path.exists(f"{path}.ready{w}") for w in (1, 2)):
    time.sleep(0.001)
for rnd in range(rounds):
    keys = [f"k{(rnd + j) % 12}" for j in range(5)]
    # values name the writer, round and slot: no two puts are equal
    values = np.array([[writer, rnd, j, 1.0] for j in range(5)])
    cache.put_many("ex", [EmbedItem(k, "text", "") for k in keys], values)
"""


def test_two_writer_processes_leave_a_valid_file(tmp_path):
    path = tmp_path / "c.eec"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))
    procs = [subprocess.Popen([sys.executable, "-c", WRITER, str(path), str(w), str(ROUNDS)],
                              env=env) for w in (1, 2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    stored = records(path, 4)
    # every put landed whole, as one segment
    assert len(segment_spans(path.read_bytes())) == 2 * ROUNDS and len(stored) == 10 * ROUNDS
    batches = [stored[i:i + 5] for i in range(0, len(stored), 5)]
    assert all(len({tuple(np.frombuffer(r[3], "<f4")[:2]) for r in b}) == 1 for b in batches)
    rounds = sorted(tuple(np.frombuffer(b[0][3], "<f4")[:2]) for b in batches)
    assert rounds == sorted((w, r) for w in (1.0, 2.0) for r in range(ROUNDS))
    last, order = {}, []
    for item_id, _, _, value in stored:
        if item_id not in last:
            order.append(item_id)
        last[item_id] = value
    reopened = EmbeddingCache(path, dim=4)
    assert index_keys(reopened) == [(k, "ex") for k in order]
    assert [reopened.rows([k], "ex").astype(np.float32).tobytes() for k in order] == \
        [last[k] for k in order]
