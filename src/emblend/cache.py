"""Persistent embedding cache, and the in-memory store used without one.

Binary layout: magic ``EEC1`` (4 bytes), version uint32 LE, dim uint32 LE,
count uint64 LE, then per record: id_len uint16 LE, id UTF-8, expert_id_len
uint16 LE, expert_id UTF-8, modality byte, dim x float32 LE. Values are
stored at float32 precision; reads return exact float64 upcasts. An append
writes its records right after the last counted one, cuts off any torn tail
that followed, and writes the header count last.
"""
from __future__ import annotations

import os
import struct
import threading

import numpy as np

from .errors import CacheCorrupt
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
    """Content-addressed on-disk store keyed by (sample_id, expert_id).

    Writes serialize through an internal lock; reads hit the in-memory map.
    """

    def __init__(self, path, dim: int):
        self.path = os.fspath(path)
        self.dim = int(dim)
        self._lock = threading.Lock()
        self._map: dict = {}
        self._record_count = 0  # records on disk; last write per key wins
        self._end = _HEADER.size  # file offset where the counted records end
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
            sample_id = data[pos + _LEN.size:id_end].decode("utf-8")
            expert_id = data[id_end + _LEN.size:eid_end].decode("utf-8")
            values = np.frombuffer(data, _F32, self.dim, eid_end + 1)
            self._map[(sample_id, expert_id)] = (modality, values)
            pos = eid_end + 1 + vec_bytes
        self._record_count = count
        self._end = pos

    def get(self, sample_id: str, expert_id: str):
        """Return the cached Embedding, or None when absent."""
        hit = self._map.get((sample_id, expert_id))
        if hit is None:
            return None
        modality, values = hit
        return Embedding(values.astype(np.float64), expert_id, modality, sample_id)

    def rows(self, sample_ids, expert_id: str) -> np.ndarray:
        """Float64 upcasts of the cached values, one row per id; KeyError when absent."""
        found = self._map
        return np.array([found[(sid, expert_id)][1] for sid in sample_ids],
                        dtype=np.float64).reshape(-1, self.dim)

    def put(self, embedding: Embedding) -> None:
        self.put_many([embedding])

    def put_many(self, embeddings) -> None:
        """Append the embeddings in order with one write.

        A record equal to the one already cached under its key is skipped.
        """
        with self._lock:
            records = []
            for emb in embeddings:
                key = (emb.sample_id, emb.expert_id)
                values = np.asarray(emb.values, dtype=_F32)
                prior = self._map.get(key)
                if prior is not None and np.array_equal(prior[1], values):
                    continue
                sid = emb.sample_id.encode("utf-8")
                eid = emb.expert_id.encode("utf-8")
                records.append(_LEN.pack(len(sid)) + sid + _LEN.pack(len(eid)) + eid
                               + bytes([_MODALITY_BYTE[emb.modality]]) + values.tobytes())
                self._map[key] = (emb.modality, values)
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
        return len(self._map)

    def __contains__(self, key) -> bool:
        return key in self._map


class MemoryStore:
    """Process-lifetime store with the cache's interface, for engines without
    a cache directory. Keeps the experts' float64 values unrounded."""

    def __init__(self, dim: int):
        self.dim = int(dim)
        self._map: dict = {}

    def get(self, sample_id: str, expert_id: str):
        return self._map.get((sample_id, expert_id))

    def rows(self, sample_ids, expert_id: str) -> np.ndarray:
        found = self._map
        return np.array([found[(sid, expert_id)].values for sid in sample_ids],
                        dtype=np.float64).reshape(-1, self.dim)

    def put(self, embedding: Embedding) -> None:
        self._map[(embedding.sample_id, embedding.expert_id)] = embedding

    def put_many(self, embeddings) -> None:
        for emb in embeddings:
            self.put(emb)

    def __contains__(self, key) -> bool:
        return key in self._map
