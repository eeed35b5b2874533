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
over any torn tail. A version 1 file (a header count, then records of id,
expert id, modality byte and values) is read once and rewritten as version
2: a temporary file in the same directory, fsynced, then ``os.replace``d
under ``LOCK_EX``. Where the process may not write the file or its
directory, it is read as it stands and ``put_many`` raises PermissionError
rather than append to it. Without a path the store keeps the experts' float64
values unrounded and writes nothing.
"""
from __future__ import annotations

import contextlib
import errno
import fcntl
import os
import struct
import tempfile
import threading
import zlib
from itertools import compress, repeat
from operator import attrgetter, not_

import numpy as np

from .errors import CacheCorrupt
from .experts import EmbedItem
from .geometry import MODALITIES, Embedding

MAGIC = b"EEC1"
VERSION = 2
_HEADER = struct.Struct("<4sII")
_HEAD = struct.Struct("<IQI")  # segment: count, body length, body CRC32
_CRC = struct.Struct("<I")  # CRC32 of the segment's _HEAD fields
_V1_HEADER = struct.Struct("<4sIIQ")  # version 1: magic, version, dim, record count
_LEN = struct.Struct("<H")
_F32 = np.dtype("<f4")
_ID_LEN = np.dtype("<u4")

_MODALITY_BYTE = {m: i for i, m in enumerate(MODALITIES)}
_READ_ONLY = (errno.EACCES, errno.EPERM, errno.EROFS)  # why a v1 rewrite may be refused


class EmbeddingCache:
    """Content-addressed store keyed by (sample_id, expert_id): one row matrix,
    float32 with a path and float64 without, a modality code per row, and a
    dict from key to row. Writes serialize through an internal lock; reads hit
    the matrix.
    """

    def __init__(self, path, dim: int):
        self.path = None if path is None else os.fspath(path)
        self.dim = int(dim)
        self._lock = threading.Lock()
        self._index: dict = {}
        self._matrix = np.empty((0, self.dim), _F32 if self.path else np.float64)
        self._codes = np.empty(0, np.uint8)
        self._end = _HEADER.size  # file offset where the complete segments end
        if self.path is not None:
            self._load()

    @contextlib.contextmanager
    def _locked(self, mode):
        """The cache file under ``fcntl.flock(mode)``: read-only for LOCK_SH,
        for update (created if absent) for LOCK_EX. Reopened until the lock
        is on the file the path names, since a v1 rewrite replaces it."""
        flags = os.O_RDONLY if mode == fcntl.LOCK_SH else os.O_RDWR | os.O_CREAT
        while True:
            fh = open(os.open(self.path, flags, 0o666), "rb" if flags == os.O_RDONLY else "r+b")
            try:
                fcntl.flock(fh, mode)
                held, named = os.fstat(fh.fileno()), os.stat(self.path)
                if (held.st_dev, held.st_ino) == (named.st_dev, named.st_ino):
                    yield fh
                    return
            finally:
                fh.close()

    def _load(self):
        shared = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        v1 = False  # a version 1 file was read under LOCK_SH
        while True:
            try:
                with self._locked(fcntl.LOCK_SH if shared else fcntl.LOCK_EX) as fh:
                    data = fh.read()
                    version = self._version(data)
                    if version == VERSION:
                        *records, self._end = self._walk(memoryview(data)[_HEADER.size:],
                                                         _HEADER.size)
                        self._merge(*records)
                        return
                    if version == 1 and (v1 or not shared):
                        self._merge(*self._read_v1(data))
                        self._end = None  # no appends to a version 1 file
                        if not shared:
                            self._rewrite(fh)
                        return
                    if not shared:  # creating the file needs LOCK_EX
                        fh.write(_HEADER.pack(MAGIC, VERSION, self.dim))
                        return
                    v1 = version == 1
            except OSError as exc:
                if exc.errno not in _READ_ONLY or not v1 or shared:
                    raise
                if self._end is None:  # read under LOCK_EX; only the rewrite was refused
                    return
                shared = True  # read it under LOCK_SH as it stands
                continue
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
        if version not in (1, VERSION):
            raise CacheCorrupt(f"{self.path}: unsupported version {version}")
        if dim != self.dim:
            raise CacheCorrupt(f"{self.path}: cache dim {dim} != expected {self.dim}")
        return version

    def _walk(self, data, at):
        """Keys, modality codes and values of the complete segments in
        ``data``, the file's bytes from offset ``at`` on, and the offset where
        they end. A final segment that is short or fails its body CRC is left out."""
        keys, codes, blocks = [], [], []
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
            seg_keys, seg_codes, seg_values = self._decode(view[start:end], count)
            keys += seg_keys
            codes.append(seg_codes)
            blocks.append(seg_values)
            pos = end
        return (keys, np.concatenate([np.empty(0, np.uint8), *codes]),
                np.concatenate([np.empty((0, self.dim), _F32), *blocks]), at + pos)

    def _decode(self, body, count):
        """Keys, modality codes and values of one segment body."""
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
        ends = np.cumsum(np.frombuffer(body, _ID_LEN, count, _LEN.size + eid_len)).tolist()
        if (ends[-1] if ends else 0) != len(text):
            raise CacheCorrupt(f"{self.path}: id lengths do not match the id table")
        ids = [text[a:b] for a, b in zip([0, *ends], ends)]
        codes = np.frombuffer(body, np.uint8, count, codes_at)
        if count and codes.max() >= len(MODALITIES):
            raise CacheCorrupt(f"{self.path}: unknown modality byte {codes.max()}")
        values = np.frombuffer(body, _F32, count * self.dim, values_at)
        return list(zip(ids, repeat(expert_id))), codes, values.reshape(count, self.dim)

    def _read_v1(self, data):
        """Keys, modality codes and values of a version 1 file's counted
        records, in file order."""
        if len(data) < _V1_HEADER.size:
            raise CacheCorrupt(f"{self.path}: truncated header")
        count = _V1_HEADER.unpack_from(data)[3]
        vec_bytes = 4 * self.dim
        end = len(data)
        pos = _V1_HEADER.size
        keys, codes, offsets = [], [], []
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
            if data[eid_end] >= len(MODALITIES):
                raise CacheCorrupt(f"{self.path}: unknown modality byte {data[eid_end]}")
            try:
                keys.append((data[pos + _LEN.size:id_end].decode("utf-8"),
                             data[id_end + _LEN.size:eid_end].decode("utf-8")))
            except UnicodeDecodeError as exc:
                raise CacheCorrupt(f"{self.path}: record at offset {pos} has a non-UTF-8 id") \
                    from exc
            codes.append(data[eid_end])
            offsets.append(eid_end + 1)
            pos = eid_end + 1 + vec_bytes
        block = b"".join(data[off:off + vec_bytes] for off in offsets)
        return (keys, np.array(codes, np.uint8),
                np.frombuffer(block, _F32).reshape(count, self.dim))

    def _rewrite(self, fh):
        """Replace the file ``fh`` holds under LOCK_EX with a version 2 file of
        the stored rows: one segment per run of rows of one expert."""
        keys = list(self._index)
        runs = [0] + [i for i in range(1, len(keys)) if keys[i][1] != keys[i - 1][1]]
        segments = [_segment(keys[a:b], self._codes[a:b], self._matrix[a:b])
                    for a, b in zip(runs, [*runs[1:], len(keys)]) if a < b]
        data = b"".join([_HEADER.pack(MAGIC, VERSION, self.dim), *segments])
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self.path) or ".", suffix=".tmp")
        try:
            with open(fd, "wb") as out:
                os.fchmod(out.fileno(), os.fstat(fh.fileno()).st_mode & 0o777)
                out.write(data)
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self._end = len(data)

    def _merge(self, keys, codes, values):
        """Take in records in order: a key new to the store takes the next
        row, and a key's last record gives its value and modality. A key
        enters the index only once its row is written."""
        last = dict(zip(keys, range(len(keys))))  # key -> its last record, first-seen order
        if len(last) < len(keys):
            picks = np.fromiter(last.values(), np.intp, len(last))
            codes, values = codes[picks], values[picks]
        index = self._index
        used = len(index)
        rows = np.full(len(last), -1, np.intp)
        if used:
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
        if used or len(last) < len(keys):
            index.update(zip(compress(last, new.tolist()), rows[new].tolist()))
        else:  # into an empty store without repeats: record i took row i
            self._index = last

    def _changed(self, keys, codes, block):
        """The records of a batch that change what their key holds at that
        point: those equal to the stored row or to the key's earlier record
        in the batch are dropped."""
        index = self._index
        latest = {}  # key -> position of its latest record so far
        on_stored, stored_rows, on_batch, batch_pos = [], [], [], []
        for i, key in enumerate(keys):
            earlier = latest.get(key)
            if earlier is not None:
                on_batch.append(i)
                batch_pos.append(earlier)
            elif key in index:
                on_stored.append(i)
                stored_rows.append(index[key])
            latest[key] = i
        if not (on_stored or on_batch):
            return keys, codes, block
        same = np.zeros(len(keys), dtype=bool)
        same[on_stored] = (block[on_stored] == self._matrix[stored_rows]).all(axis=1)
        same[on_batch] = (block[on_batch] == block[batch_pos]).all(axis=1)
        kept = np.flatnonzero(~same)
        return [keys[i] for i in kept.tolist()], codes[kept], block[kept]

    def get(self, sample_id: str, expert_id: str):
        """Return the stored Embedding, or None when absent."""
        row = self._index.get((sample_id, expert_id))
        if row is None:
            return None
        return Embedding(self._matrix[row].astype(np.float64), expert_id,
                         MODALITIES[self._codes[row]], sample_id)

    def rows(self, sample_ids, expert_id: str) -> np.ndarray:
        """Float64 values of the stored rows, one per id; KeyError when absent."""
        picks = np.fromiter(map(self._index.__getitem__, zip(sample_ids, repeat(expert_id))),
                            np.intp)
        return self._matrix[picks].astype(np.float64, copy=False)

    def missing(self, items, expert_id: str) -> list:
        """The items whose key the store lacks, the first of each id, in order."""
        keys = zip(map(attrgetter("item_id"), items), repeat(expert_id))
        absent, seen = [], set()
        for it in compress(items, map(not_, map(self._index.__contains__, keys))):
            if it.item_id not in seen:
                seen.add(it.item_id)
                absent.append(it)
        return absent

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
        keys = [(it.item_id, expert_id) for it in items]
        codes = np.array([_MODALITY_BYTE[it.modality] for it in items], np.uint8)
        with self._lock:
            if self.path is None:
                self._merge(*self._changed(keys, codes, block))
                return
            if self._end is None:
                raise PermissionError(
                    errno.EACCES, "version 1 cache file could not be rewritten as version 2, "
                    "so it takes no new records", self.path)
            with self._locked(fcntl.LOCK_EX) as fh:
                if os.fstat(fh.fileno()).st_size < self._end:
                    raise CacheCorrupt(f"{self.path}: file ends before offset {self._end}")
                fh.seek(self._end)
                tail = fh.read()
                *appended, end = self._walk(tail, self._end)
                self._merge(*appended)
                self._end = end
                keys, codes, block = self._changed(keys, codes, block)
                if keys:
                    fh.seek(self._end)
                    fh.write(_segment(keys, codes, block))
                    fh.truncate()
                    self._merge(keys, codes, block)
                    self._end = fh.tell()

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key) -> bool:
        return key in self._index


def _segment(keys, codes, block) -> bytes:
    """One segment of records that share an expert id."""
    ids = [sample_id for sample_id, _ in keys]
    eid = keys[0][1].encode("utf-8")
    body = b"".join([_LEN.pack(len(eid)), eid, np.array([len(s) for s in ids], _ID_LEN).tobytes(),
                     "".join(ids).encode("utf-8"), codes.tobytes(),
                     block.astype(_F32, copy=False).tobytes()])
    head = _HEAD.pack(len(ids), len(body), zlib.crc32(body))
    return head + _CRC.pack(zlib.crc32(head)) + body
