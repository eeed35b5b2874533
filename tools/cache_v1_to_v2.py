"""Convert version 1 embedding cache files to version 2, in place.

    python3 tools/cache_v1_to_v2.py PATH...

Needs ``emblend`` importable (installed, or ``PYTHONPATH=src``). A version 1
file is a header -- magic ``EEC1``, version uint32 = 1, dim uint32, record
count uint64 -- and that many records of id_len uint16, id UTF-8,
expert_id_len uint16, expert_id UTF-8, a modality byte and dim float32
values, all little-endian; bytes past the counted records are ignored. A
key's first record fixes its row and its last record gives its value and
modality, as in version 2.

Each file is converted under ``fcntl.flock(LOCK_EX)``: its records are
written through ``EmbeddingCache.put_many`` into a temporary file in the same
directory, one segment per run of rows of one expert, which takes the
file's mode, is fsynced and then ``os.replace``s it. A version 2 file is left
untouched. A file that cannot be read as version 1 raises ``CacheCorrupt``
and is left as it was, with no temporary file. Prints one line per path and
exits 1 if any path failed.
"""
from __future__ import annotations

import argparse
import contextlib
import fcntl
import os
import struct
import sys
import tempfile
from itertools import groupby

import numpy as np

from emblend.cache import MAGIC, VERSION, EmbeddingCache
from emblend.errors import CacheCorrupt
from emblend.experts import EmbedItem
from emblend.geometry import MODALITIES

PREFIX = struct.Struct("<4sI")  # magic and version, in both versions
V1_HEADER = struct.Struct("<4sIIQ")  # magic, version, dim, record count
LEN = struct.Struct("<H")


def read_v1(path, data):
    """The dim of a version 1 file's bytes and its counted records as
    (item_id, expert_id, modality byte, float32 values), in file order."""
    if len(data) < V1_HEADER.size:
        raise CacheCorrupt(f"{path}: truncated header")
    _, _, dim, count = V1_HEADER.unpack_from(data)
    vec_bytes = 4 * dim
    end = len(data)
    pos = V1_HEADER.size
    records = []
    for _ in range(count):
        if pos + LEN.size > end:
            raise CacheCorrupt(f"{path}: truncated record")
        (id_len,) = LEN.unpack_from(data, pos)
        id_end = pos + LEN.size + id_len
        if id_end + LEN.size > end:
            raise CacheCorrupt(f"{path}: truncated record")
        (eid_len,) = LEN.unpack_from(data, id_end)
        eid_end = id_end + LEN.size + eid_len
        if eid_end + 1 + vec_bytes > end:
            raise CacheCorrupt(f"{path}: truncated record")
        if data[eid_end] >= len(MODALITIES):
            raise CacheCorrupt(f"{path}: unknown modality byte {data[eid_end]}")
        try:
            item_id = data[pos + LEN.size:id_end].decode("utf-8")
            expert_id = data[id_end + LEN.size:eid_end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CacheCorrupt(f"{path}: record at offset {pos} has a non-UTF-8 id") from exc
        records.append((item_id, expert_id, data[eid_end],
                        np.frombuffer(data, "<f4", dim, eid_end + 1)))
        pos = eid_end + 1 + vec_bytes
    return dim, records


def write_v2(path, dim, records) -> None:
    """A version 2 store at the empty file ``path`` of ``records``: the rows
    in first-occurrence order with their last values, one ``put_many`` per
    run of rows of one expert."""
    latest = {}  # (item_id, expert_id) -> (code, values) of its last record
    for item_id, expert_id, code, values in records:
        latest[item_id, expert_id] = code, values
    store = EmbeddingCache(path, dim)
    for expert_id, run in groupby(latest.items(), lambda entry: entry[0][1]):
        keys, rows = zip(*run)
        store.put_many(expert_id, [EmbedItem(item_id, MODALITIES[code], "")
                                   for (item_id, _), (code, _) in zip(keys, rows)],
                       np.array([values for _, values in rows]))


def convert(path) -> bool:
    """Rewrite the version 1 cache file at ``path`` as version 2 under its
    LOCK_EX; False, and the file untouched, when it already is version 2."""
    path = os.fspath(path)
    while True:
        with open(path, "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            held, named = os.fstat(fh.fileno()), os.stat(path)
            if (held.st_dev, held.st_ino) == (named.st_dev, named.st_ino):
                return rewrite(path, fh.read(), held.st_mode & 0o777)
        # another conversion replaced the file while this one waited for the lock


def rewrite(path, data, mode) -> bool:
    """Replace the file at ``path``, whose bytes are ``data``, with a version 2
    file of mode ``mode``, unless it already is version 2."""
    if len(data) < PREFIX.size:
        raise CacheCorrupt(f"{path}: truncated header")
    magic, version = PREFIX.unpack_from(data)
    if magic != MAGIC:
        raise CacheCorrupt(f"{path}: bad magic {magic!r}")
    if version == VERSION:
        return False
    if version != 1:
        raise CacheCorrupt(f"{path}: unsupported version {version}")
    dim, records = read_v1(path, data)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with open(fd, "rb") as out:
            write_v2(tmp, dim, records)
            os.fchmod(out.fileno(), mode)
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", metavar="PATH", help="cache file to convert")
    args = parser.parse_args(argv)
    status = 0
    for path in args.paths:
        try:
            converted = convert(path)
        except (CacheCorrupt, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"{path}: converted to version 2" if converted
              else f"{path}: already version 2, left untouched")
    return status


if __name__ == "__main__":
    sys.exit(main())
