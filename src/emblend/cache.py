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
                raise CacheCorrupt(f"unknown modality byte {data[eid_end]}")
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

        A record equal to the one already stored under its key is skipped.
        """
        block = np.asarray(matrix, dtype=self._matrix.dtype).reshape(len(items), self.dim)
        eid = expert_id.encode("utf-8")
        eid_part = _LEN.pack(len(eid)) + eid
        with self._lock:
            index, used = self._index, len(self._index)
            if used + len(items) > len(self._matrix):  # grow to fit, at least doubling
                grown = np.empty((max(used + len(items), 2 * used), self.dim), block.dtype)
                grown[:used] = self._matrix[:used]
                self._matrix = grown
            stored = self._matrix
            records = []
            for it, values in zip(items, block):
                key = (it.item_id, expert_id)
                prior = index.get(key)
                if prior is not None and np.array_equal(stored[prior[0]], values):
                    continue
                if self.path is not None:
                    sid = it.item_id.encode("utf-8")
                    records.append(_LEN.pack(len(sid)) + sid + eid_part
                                   + bytes([_MODALITY_BYTE[it.modality]]) + values.tobytes())
                row = len(index) if prior is None else prior[0]
                stored[row] = values
                index[key] = (row, it.modality)
            if not records:
                return
            self._record_count += len(records)
            with open(self.path, "r+b") as fh:
                fh.seek(self._end)
                fh.write(b"".join(records))
                self._end = fh.tell()
                fh.truncate()
                fh.seek(_COUNT_OFFSET)
                fh.write(_COUNT.pack(self._record_count))

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key) -> bool:
        return key in self._index
