"""Embedding store: one row matrix per expert, persisted to a cache file
when given a path and kept in memory for the process when not.

Binary layout: magic ``EEC1`` (4 bytes), version uint32 LE, dim uint32 LE,
count uint64 LE, then per record: id_len uint16 LE, id UTF-8, expert_id_len
uint16 LE, expert_id UTF-8, modality byte, dim x float32 LE. Values are
stored at float32 precision; reads return exact float64 upcasts. An append
writes its records right after the last counted one, cuts off any torn tail
that followed, and writes the header count last. Without a path the store
keeps the experts' float64 values unrounded and writes nothing.
"""
from __future__ import annotations

import os
import struct
import threading

import numpy as np

from .errors import CacheCorrupt
from .experts import EmbedItem
from .geometry import MODALITIES, Embedding

MAGIC = b"EEC1"
VERSION = 1
_HEADER = struct.Struct("<4sIIQ")
_COUNT = struct.Struct("<Q")
_COUNT_OFFSET = len(MAGIC) + 4 + 4
_LEN = struct.Struct("<H")
_F32 = np.dtype("<f4")

_MODALITY_BYTE = {m: i for i, m in enumerate(MODALITIES)}
_BYTE_MODALITY = {i: m for m, i in _MODALITY_BYTE.items()}


class EmbeddingCache:
    """Content-addressed store keyed by (sample_id, expert_id): one row matrix,
    float32 with a path and float64 without, and a dict from key to (row,
    modality). Writes serialize through an internal lock; reads hit the matrix.
    """

    def __init__(self, path, dim: int):
        self.path = None if path is None else os.fspath(path)
        self.dim = int(dim)
        self._lock = threading.Lock()
        self._index: dict = {}
        self._matrix = np.empty((0, self.dim), _F32 if self.path else np.float64)
        self._record_count = 0  # records on disk; last write per key wins
        self._end = _HEADER.size  # file offset where the counted records end
        if self.path is None:
            return
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            self._load()
        else:
            with open(self.path, "wb") as fh:
                fh.write(_HEADER.pack(MAGIC, VERSION, self.dim, 0))

    def _load(self):
        with open(self.path, "rb") as fh:
            data = fh.read()
        if len(data) < _HEADER.size:
            raise CacheCorrupt(f"{self.path}: truncated header")
        magic, version, dim, count = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise CacheCorrupt(f"{self.path}: bad magic {magic!r}")
        if version != VERSION:
            raise CacheCorrupt(f"{self.path}: unsupported version {version}")
        if dim != self.dim:
            raise CacheCorrupt(f"{self.path}: cache dim {dim} != expected {self.dim}")
        vec_bytes = 4 * self.dim
        end = len(data)
        pos = _HEADER.size
        found = {}  # key -> (value offset, modality); insertion order fixes the row
        for _ in range(count):
            if pos + _LEN.size > end:
                raise CacheCorrupt(f"{self.path}: truncated record")
            (id_len,) = _LEN.unpack_from(data, pos)
            id_end = pos + _LEN.size + id_len
            if id_end + _LEN.size > end:
                raise CacheCorrupt(f"{self.path}: truncated record")
            (eid_len,) = _LEN.unpack_from(data, id_end)
            eid_end = id_end + _LEN.size + eid_len
            if eid_end + 1 + vec_bytes > end:
                raise CacheCorrupt(f"{self.path}: truncated record")
            modality = _BYTE_MODALITY.get(data[eid_end])
            if modality is None:
                raise CacheCorrupt(f"{self.path}: unknown modality byte {data[eid_end]}")
            key = (data[pos + _LEN.size:id_end].decode("utf-8"),
                   data[id_end + _LEN.size:eid_end].decode("utf-8"))
            found[key] = (eid_end + 1, modality)
            pos = eid_end + 1 + vec_bytes
        block = bytearray().join(data[off:off + vec_bytes] for off, _ in found.values())
        self._matrix = np.frombuffer(block, _F32).reshape(len(found), self.dim)
        self._index = {key: (row, modality)
                       for row, (key, (_, modality)) in enumerate(found.items())}
        self._record_count = count
        self._end = pos

    def get(self, sample_id: str, expert_id: str):
        """Return the stored Embedding, or None when absent."""
        hit = self._index.get((sample_id, expert_id))
        if hit is None:
            return None
        row, modality = hit
        return Embedding(self._matrix[row].astype(np.float64), expert_id, modality, sample_id)

    def rows(self, sample_ids, expert_id: str) -> np.ndarray:
        """Float64 values of the stored rows, one per id; KeyError when absent."""
        index = self._index
        picks = np.array([index[(sid, expert_id)][0] for sid in sample_ids], dtype=np.intp)
        return self._matrix[picks].astype(np.float64, copy=False)

    def put(self, embedding: Embedding) -> None:
        self.put_many(embedding.expert_id,
                      [EmbedItem(embedding.sample_id, embedding.modality, "")],
                      embedding.values[None, :])

    def put_many(self, expert_id: str, items, matrix) -> None:
        """Store row i of ``matrix`` as the values of ``items[i]``, in order,
        with one file write.

        An item equal to what its key holds at that point, stored before or
        put earlier in the batch, is skipped; the last write of a key wins.
        """
        block = np.asarray(matrix, dtype=self._matrix.dtype).reshape(len(items), self.dim)
        with self._lock:
            index, used = self._index, len(self._index)
            keys = [(it.item_id, expert_id) for it in items]
            rows, latest = [], {}  # latest: key -> position of its latest item so far
            # items whose key already holds a value, and where that value is:
            # a row of the stored matrix, or an earlier item of the batch
            on_stored, stored_rows, on_batch, batch_pos = [], [], [], []
            for i, key in enumerate(keys):
                earlier = latest.get(key)
                if earlier is not None:
                    row = rows[earlier]
                    on_batch.append(i)
                    batch_pos.append(earlier)
                else:
                    hit = index.get(key)
                    if hit is None:
                        row = used
                        used += 1
                    else:
                        row = hit[0]
                        on_stored.append(i)
                        stored_rows.append(row)
                latest[key] = i
                rows.append(row)
            if self.path is not None:
                eid = expert_id.encode("utf-8")
                tails = {m: _LEN.pack(len(eid)) + eid + bytes([b])
                         for m, b in _MODALITY_BYTE.items()}
                sids = [it.item_id.encode("utf-8") for it in items]
                headers = [_LEN.pack(len(sid)) + sid + tails[it.modality]
                           for sid, it in zip(sids, items)]
            if used > len(self._matrix):  # grow to fit, at least doubling
                grown = np.empty((max(used, 2 * len(index)), self.dim), block.dtype)
                grown[:len(index)] = self._matrix[:len(index)]
                self._matrix = grown
            stored = self._matrix
            written = range(len(items))
            if on_stored or on_batch:
                same = np.zeros(len(items), dtype=bool)
                same[on_stored] = (block[on_stored] == stored[stored_rows]).all(axis=1)
                same[on_batch] = (block[on_batch] == block[batch_pos]).all(axis=1)
                written = np.flatnonzero(~same).tolist()
            final = {keys[i]: i for i in written}  # the last write of a key wins
            last = list(final.values())
            stored[[rows[i] for i in last]] = block[last]
            index.update({key: (rows[i], items[i].modality) for key, i in final.items()})
            if self.path is None or not written:
                return
            values = block.tobytes()
            size = block.itemsize * self.dim
            self._record_count += len(written)
            with open(self.path, "r+b") as fh:
                fh.seek(self._end)
                fh.write(b"".join([headers[i] + values[i * size:(i + 1) * size]
                                   for i in written]))
                self._end = fh.tell()
                fh.truncate()
                fh.seek(_COUNT_OFFSET)
                fh.write(_COUNT.pack(self._record_count))

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key) -> bool:
        return key in self._index
