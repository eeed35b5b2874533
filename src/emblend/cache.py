"""Embedding store: one row matrix per expert, persisted to a cache file
when given a path and kept in memory for the process when not.

File layout (version 2, all little-endian): a header of magic ``EEC1``,
version uint32 and dim uint32, then one segment per ``put_many`` that
stored anything. A segment is a head -- record count uint32, body length
uint64, CRC32 of the body uint32, CRC32 of those three fields uint32 --
and a body: expert_id_len uint16, expert_id UTF-8, the id table (count x
uint32 id lengths in code points, then the ids' UTF-8 back to back), count
modality bytes, and one count x dim float32 block. Values are stored at
float32 precision; reads return exact float64 upcasts. A key's first record
fixes its row and its last record gives its value and modality.

A load holds ``fcntl.flock(LOCK_SH)``. It stops at a final segment that is
short or fails its body CRC, without cutting it off, since it may be another
process's append in flight. A bad body CRC in any other segment, a head that
fails its CRC, an unknown modality byte or a non-UTF-8 id raises
``CacheCorrupt``. An append holds ``LOCK_EX``: it first takes in the
complete segments other processes appended since, then writes its segment
over any torn tail. A version 1 file raises ``CacheCorrupt``; convert it
with ``tools/cache_v1_to_v2.py``. Without a path the store keeps the
experts' float64 values unrounded and writes nothing.
"""
from __future__ import annotations

import contextlib
import fcntl
import os
import struct
import threading
import zlib
from itertools import compress, groupby, repeat
from operator import itemgetter

import numpy as np

from .errors import CacheCorrupt
from .experts import EmbedItem
from .geometry import MODALITIES, Embedding

MAGIC = b"EEC1"
VERSION = 2
_HEADER = struct.Struct("<4sII")
_HEAD = struct.Struct("<IQI")  # segment: count, body length, body CRC32
_CRC = struct.Struct("<I")  # CRC32 of the segment's _HEAD fields
_LEN = struct.Struct("<H")
_F32 = np.dtype("<f4")
_ID_LEN = np.dtype("<u4")

_MODALITY_BYTE = {m: i for i, m in enumerate(MODALITIES)}


class EmbeddingCache:
    """Content-addressed store keyed by (sample_id, expert_id): one row matrix,
    float32 with a path and float64 without, a modality code per row, and per
    expert a dict from item id to row. Writes serialize through an internal
    lock; reads hit the matrix.
    """

    def __init__(self, path, dim: int):
        self.path = None if path is None else os.fspath(path)
        self.dim = int(dim)
        self._lock = threading.Lock()
        self._index: dict = {}  # expert_id -> {item_id: row}
        self._size = 0  # rows in use, over all experts
        self._matrix = np.empty((0, self.dim), _F32 if self.path else np.float64)
        self._codes = np.empty(0, np.uint8)
        self._end = _HEADER.size  # file offset where the complete segments end
        if self.path is not None:
            self._load()

    @contextlib.contextmanager
    def _locked(self, mode):
        """The cache file under ``fcntl.flock(mode)``: read-only for LOCK_SH,
        for update (created if absent) for LOCK_EX."""
        flags = os.O_RDONLY if mode == fcntl.LOCK_SH else os.O_RDWR | os.O_CREAT
        with open(os.open(self.path, flags, 0o666), "rb" if flags == os.O_RDONLY else "r+b") as fh:
            fcntl.flock(fh, mode)
            yield fh

    def _load(self):
        shared = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        while True:
            with self._locked(fcntl.LOCK_SH if shared else fcntl.LOCK_EX) as fh:
                data = fh.read()
                if self._version(data) == VERSION:
                    runs, self._end = self._walk(memoryview(data)[_HEADER.size:], _HEADER.size)
                    for run in runs:
                        self._merge(*run)
                    return
                if not shared:  # creating the file needs LOCK_EX
                    fh.write(_HEADER.pack(MAGIC, VERSION, self.dim))
                    return
            shared = False

    def _version(self, data):
        """The header's version; None for an empty file."""
        if not data:
            return None
        if len(data) < _HEADER.size:
            raise CacheCorrupt(f"{self.path}: truncated header")
        magic, version, dim = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise CacheCorrupt(f"{self.path}: bad magic {magic!r}")
        if version == 1:
            raise CacheCorrupt(f"{self.path}: version 1 cache file; "
                               "convert it with tools/cache_v1_to_v2.py")
        if version != VERSION:
            raise CacheCorrupt(f"{self.path}: unsupported version {version}")
        if dim != self.dim:
            raise CacheCorrupt(f"{self.path}: cache dim {dim} != expected {self.dim}")
        return version

    def _walk(self, data, at):
        """The records of the complete segments in ``data``, the file's bytes
        from offset ``at`` on, as one (expert_id, ids, codes, values) per run
        of segments of one expert, and the offset where they end. A final
        segment that is short or fails its body CRC is left out."""
        segments = []
        view, pos, size = memoryview(data), 0, len(data)
        while pos + _HEAD.size + _CRC.size <= size:
            head = view[pos:pos + _HEAD.size]
            count, body_len, body_crc = _HEAD.unpack(head)
            if zlib.crc32(head) != _CRC.unpack_from(view, pos + _HEAD.size)[0]:
                raise CacheCorrupt(f"{self.path}: bad segment head at offset {at + pos}")
            start = pos + _HEAD.size + _CRC.size
            end = start + body_len
            if end > size:
                break
            if zlib.crc32(view[start:end]) != body_crc:
                if end == size:
                    break
                raise CacheCorrupt(f"{self.path}: bad CRC in segment at offset {at + pos}")
            segments.append(self._decode(view[start:end], count))
            pos = end
        runs = []
        for expert_id, group in groupby(segments, itemgetter(0)):
            _, lengths, texts, codes, blocks = zip(*group)
            ends = np.cumsum(np.concatenate(lengths)).tolist()
            text = "".join(texts)  # each run's id table is split once
            runs.append((expert_id, [text[a:b] for a, b in zip([0, *ends], ends)],
                         np.concatenate(codes), np.concatenate(blocks)))
        return runs, at + pos

    def _decode(self, body, count):
        """Expert id, id lengths, id text, modality codes and values of one
        segment body."""
        values_at = len(body) - 4 * self.dim * count
        codes_at = values_at - count
        try:
            (eid_len,) = _LEN.unpack_from(body)
            ids_at = _LEN.size + eid_len + _ID_LEN.itemsize * count
            if ids_at > codes_at:
                raise ValueError("segment body too short")
            expert_id = str(body[_LEN.size:_LEN.size + eid_len], "utf-8")
            text = str(body[ids_at:codes_at], "utf-8")
        except (struct.error, ValueError) as exc:
            raise CacheCorrupt(f"{self.path}: bad segment body: {exc}") from exc
        lengths = np.frombuffer(body, _ID_LEN, count, _LEN.size + eid_len)
        if lengths.sum() != len(text):
            raise CacheCorrupt(f"{self.path}: id lengths do not match the id table")
        codes = np.frombuffer(body, np.uint8, count, codes_at)
        if count and codes.max() >= len(MODALITIES):
            raise CacheCorrupt(f"{self.path}: unknown modality byte {codes.max()}")
        values = np.frombuffer(body, _F32, count * self.dim, values_at)
        return expert_id, lengths, text, codes, values.reshape(count, self.dim)

    def _merge(self, expert_id, ids, codes, values):
        """Take in one expert's records in order: an id new to the store takes
        the next row, and an id's last record gives its value and modality.
        An id enters the index only once its row is written."""
        if not ids:
            return
        last = dict(zip(ids, range(len(ids))))  # id -> its last record, first-seen order
        if len(last) < len(ids):
            picks = np.fromiter(last.values(), np.intp, len(last))
            codes, values = codes[picks], values[picks]
        index = self._index.get(expert_id)
        used = self._size
        rows = np.full(len(last), -1, np.intp)
        if index:
            rows[:] = np.fromiter(map(index.get, last, repeat(-1)), np.intp, len(last))
        new = rows < 0
        need = used + np.count_nonzero(new)
        rows[new] = np.arange(used, need)
        if need > len(self._matrix):  # grow to fit, at least doubling
            size = max(need, 2 * used)
            matrix = np.empty((size, self.dim), self._matrix.dtype)
            matrix[:used] = self._matrix[:used]
            grown = np.empty(size, np.uint8)
            grown[:used] = self._codes[:used]
            self._matrix, self._codes = matrix, grown
        self._matrix[rows] = values
        self._codes[rows] = codes
        if index:
            index.update(zip(compress(last, new.tolist()), rows[new].tolist()))
        elif used or len(last) < len(ids):
            self._index[expert_id] = dict(zip(last, range(used, need)))
        else:  # into an empty store without repeats: record i took row i
            self._index[expert_id] = last
        self._size = need

    def _changed(self, expert_id, ids, codes, block):
        """The records of a batch that change what their id holds at that
        point: those equal to the stored row or to the id's earlier record in
        the batch are dropped."""
        index = self._index.get(expert_id, {})
        latest = {}  # id -> position of its latest record so far
        on_stored, stored_rows, on_batch, batch_pos = [], [], [], []
        for i, key in enumerate(ids):
            earlier = latest.get(key)
            if earlier is not None:
                on_batch.append(i)
                batch_pos.append(earlier)
            elif key in index:
                on_stored.append(i)
                stored_rows.append(index[key])
            latest[key] = i
        if not (on_stored or on_batch):
            return ids, codes, block
        same = np.zeros(len(ids), dtype=bool)
        same[on_stored] = (block[on_stored] == self._matrix[stored_rows]).all(axis=1)
        same[on_batch] = (block[on_batch] == block[batch_pos]).all(axis=1)
        kept = np.flatnonzero(~same)
        return [ids[i] for i in kept.tolist()], codes[kept], block[kept]

    def get(self, sample_id: str, expert_id: str):
        """Return the stored Embedding, or None when absent."""
        row = self._index.get(expert_id, {}).get(sample_id)
        if row is None:
            return None
        return Embedding(self._matrix[row].astype(np.float64), expert_id,
                         MODALITIES[self._codes[row]], sample_id)

    def rows(self, sample_ids, expert_id: str) -> np.ndarray:
        """Float64 values of the stored rows, one per id; KeyError when absent."""
        index = self._index.get(expert_id, {})
        picks = np.fromiter(map(index.__getitem__, sample_ids), np.intp)
        return self._matrix[picks].astype(np.float64, copy=False)

    def find(self, sample_ids, expert_id: str) -> np.ndarray:
        """The row of each id in ``matrix``, -1 where the store lacks it."""
        index = self._index.get(expert_id, {})
        return np.fromiter(map(index.get, sample_ids, repeat(-1)), np.intp)

    @property
    def matrix(self) -> np.ndarray:
        """The stored rows at storage precision, by row: a view, which a later
        write may change in place or, when the store grows, leave behind."""
        return self._matrix[:self._size]

    def put(self, embedding: Embedding) -> None:
        self.put_many(embedding.expert_id,
                      [EmbedItem(embedding.sample_id, embedding.modality, "")],
                      embedding.values[None, :])

    def put_many(self, expert_id: str, items, matrix) -> None:
        """Store row i of ``matrix`` as the values of ``items[i]``, in order,
        with one file segment.

        An item equal to what its key holds at that point, stored before or
        put earlier in the batch, is skipped; the last write of a key wins.
        """
        block = np.asarray(matrix, dtype=self._matrix.dtype).reshape(len(items), self.dim)
        ids = [it.item_id for it in items]
        codes = np.array([_MODALITY_BYTE[it.modality] for it in items], np.uint8)
        with self._lock:
            if self.path is None:
                self._merge(expert_id, *self._changed(expert_id, ids, codes, block))
                return
            with self._locked(fcntl.LOCK_EX) as fh:
                if os.fstat(fh.fileno()).st_size < self._end:
                    raise CacheCorrupt(f"{self.path}: file ends before offset {self._end}")
                fh.seek(self._end)
                tail = fh.read()
                runs, end = self._walk(tail, self._end)
                for run in runs:
                    self._merge(*run)
                self._end = end
                ids, codes, block = self._changed(expert_id, ids, codes, block)
                if ids:
                    fh.seek(self._end)
                    fh.write(_segment(expert_id, ids, codes, block))
                    fh.truncate()
                    self._merge(expert_id, ids, codes, block)
                    self._end = fh.tell()

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key) -> bool:
        sample_id, expert_id = key
        return sample_id in self._index.get(expert_id, {})


def _segment(expert_id, ids, codes, block) -> bytes:
    """One segment of records of one expert."""
    eid = expert_id.encode("utf-8")
    body = b"".join([_LEN.pack(len(eid)), eid, np.array([len(s) for s in ids], _ID_LEN).tobytes(),
                     "".join(ids).encode("utf-8"), codes.tobytes(),
                     block.astype(_F32, copy=False).tobytes()])
    head = _HEAD.pack(len(ids), len(body), zlib.crc32(body))
    return head + _CRC.pack(zlib.crc32(head)) + body
