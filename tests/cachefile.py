"""Test-local writer and reader of the cache file formats, written from the
layouts in the docstrings of ``emblend.cache`` and ``tools/cache_v1_to_v2.py``
and independent of their code: a version 1 writer (the old append format,
read by the conversion tool) and a version 2 record walker."""
import struct
import zlib

import numpy as np

from emblend.geometry import MODALITIES

V1_HEADER = struct.Struct("<4sIIQ")
HEADER = struct.Struct("<4sII")
HEAD = struct.Struct("<IQII")  # count, body length, body CRC32, head CRC32


def v1_bytes(dim, records, count=None):
    """A version 1 file of ``records`` (item_id, expert_id, modality, values);
    the header counts ``count`` records (all of them by default)."""
    out = [V1_HEADER.pack(b"EEC1", 1, dim, len(records) if count is None else count)]
    for item_id, expert_id, modality, values in records:
        sid, eid = item_id.encode("utf-8"), expert_id.encode("utf-8")
        out += [struct.pack("<H", len(sid)), sid, struct.pack("<H", len(eid)), eid,
                bytes([MODALITIES.index(modality)]), np.asarray(values, "<f4").tobytes()]
    return b"".join(out)


def segment_spans(data):
    """(start, end) of each segment of a version 2 file's bytes, in order; the
    last may run past the end of ``data``."""
    pos, spans = HEADER.size, []
    while pos < len(data):
        _, body_len, _, _ = HEAD.unpack_from(data, pos)
        spans.append((pos, pos + HEAD.size + body_len))
        pos = spans[-1][1]
    return spans


def records(path, dim):
    """(item_id, expert_id, modality, float32 value bytes) of every record of
    a version 2 file, in file order; each segment's CRCs must hold."""
    data = path.read_bytes()
    assert data[:HEADER.size] == HEADER.pack(b"EEC1", 2, dim)
    out = []
    for start, end in segment_spans(data):
        count, body_len, body_crc, head_crc = HEAD.unpack_from(data, start)
        assert zlib.crc32(data[start:start + HEAD.size - 4]) == head_crc
        body = data[start + HEAD.size:end]
        assert len(body) == body_len and zlib.crc32(body) == body_crc
        (n,) = struct.unpack_from("<H", body)
        expert_id = body[2:2 + n].decode("utf-8")
        lengths = struct.unpack_from(f"<{count}I", body, 2 + n)
        values_at = len(body) - 4 * dim * count
        codes_at = values_at - count
        text = body[2 + n + 4 * count:codes_at].decode("utf-8")
        at = 0
        for i, length in enumerate(lengths):
            value = body[values_at + 4 * dim * i:values_at + 4 * dim * (i + 1)]
            out.append((text[at:at + length], expert_id, MODALITIES[body[codes_at + i]], value))
            at += length
    return out


def reseal(data, start):
    """``data`` with the CRCs of the segment at ``start`` recomputed."""
    data = bytearray(data)
    count, body_len, _, _ = HEAD.unpack_from(data, start)
    body = data[start + HEAD.size:start + HEAD.size + body_len]
    fields = struct.pack("<IQI", count, body_len, zlib.crc32(body))
    data[start:start + HEAD.size] = fields + struct.pack("<I", zlib.crc32(fields))
    return bytes(data)
