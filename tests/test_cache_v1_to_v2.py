"""tools/cache_v1_to_v2.py: a version 1 cache file becomes the version 2 file
the store loads to the same rows, values and modalities; a corrupt one is
rejected and left as it was."""
import importlib.util
import os
import pathlib
import re

import numpy as np
import pytest

from cachefile import records, segment_spans, v1_bytes
from emblend.cache import EmbeddingCache
from emblend.errors import CacheCorrupt
from test_cache import index_items, make_emb

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cache_v1_to_v2.py"
_spec = importlib.util.spec_from_file_location("cache_v1_to_v2", TOOL)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def v1_record(emb):
    return emb.sample_id, emb.expert_id, emb.modality, emb.values


def assert_rejected(path, data, match=None):
    """Converting ``path``, holding ``data``, raises CacheCorrupt and leaves
    its bytes and its directory as they were."""
    path.write_bytes(data)
    with pytest.raises(CacheCorrupt, match=match):
        tool.convert(path)
    assert path.read_bytes() == data
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_v1_file_migrates_to_v2(tmp_path):
    """The tool reads a version 1 file by the record walk and rewrites it as
    version 2: same rows (first occurrence), values (last write) and
    modalities; records past the header count are dropped."""
    rng = np.random.default_rng(21)
    rows = rng.normal(size=(7, 8))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    written = [("a", "ex", "text", rows[0]), ("b", "ex", "image", rows[1]),
               ("a", "ex", "audio", rows[2]), ("c", "other", "video", rows[3]),
               ("d", "ex", "text", rows[4]), ("b", "ex", "image", rows[5])]
    path = tmp_path / "c.eec"
    path.write_bytes(v1_bytes(8, written + [("torn", "ex", "text", rows[6])], count=6)[:-3])
    mode = 0o640
    path.chmod(mode)
    assert tool.convert(path) is True
    migrated = EmbeddingCache(path, dim=8)
    want = {("a", "ex"): (rows[2], "audio"), ("b", "ex"): (rows[5], "image"),
            ("c", "other"): (rows[3], "video"), ("d", "ex"): (rows[4], "text")}
    assert index_items(migrated) == [(key, row) for row, key in enumerate(want)]
    # one segment per run of one expert's rows, in row order
    assert [r[:3] for r in records(path, 8)] == [(*key, m) for key, (_, m) in want.items()]
    assert len(segment_spans(path.read_bytes())) == 3
    assert path.stat().st_mode & 0o777 == mode
    assert [p.name for p in tmp_path.iterdir()] == ["c.eec"]
    for store in (migrated, EmbeddingCache(path, dim=8)):
        assert len(store) == 4 and ("torn", "ex") not in store
        for (sid, eid), (values, modality) in want.items():
            assert np.array_equal(store.rows([sid], eid)[0],
                                  values.astype(np.float32).astype(np.float64))
            assert store.get(sid, eid).modality == modality


def test_version_2_file_is_left_untouched(tmp_path, capsys):
    v1, v2 = tmp_path / "v1.eec", tmp_path / "v2.eec"
    v1.write_bytes(v1_bytes(8, [v1_record(make_emb("s1"))]))
    EmbeddingCache(v2, dim=8).put(make_emb("s2", seed=1))
    data, inode = v2.read_bytes(), v2.stat().st_ino
    assert tool.main([str(v1), str(v2)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{v1}: converted to version 2", f"{v2}: already version 2, left untouched"]
    assert v2.read_bytes() == data and v2.stat().st_ino == inode
    assert tool.convert(v1) is False
    assert [r[0] for r in records(v1, 8)] == ["s1"]


def test_conversion_locks_the_file_the_path_names(tmp_path, monkeypatch):
    # another conversion replaces the file while this one waits for its lock;
    # this one then locks the new file, finds version 2 and leaves it
    path, other = tmp_path / "c.eec", tmp_path / "other.eec"
    data = v1_bytes(8, [v1_record(make_emb("s1"))])
    path.write_bytes(data)
    other.write_bytes(data)
    tool.convert(other)
    converted = other.read_bytes()
    flock = tool.fcntl.flock

    def replaced_while_waiting(fh, mode):
        if other.exists():
            os.replace(other, path)
        flock(fh, mode)
    monkeypatch.setattr(tool.fcntl, "flock", replaced_while_waiting)
    assert tool.convert(path) is False
    assert path.read_bytes() == converted


def test_failed_path_is_reported_and_the_rest_converted(tmp_path, capsys):
    bad, good = tmp_path / "bad.eec", tmp_path / "good.eec"
    bad.write_bytes(b"XXXX" + b"\x00" * 16)
    good.write_bytes(v1_bytes(8, [v1_record(make_emb("s1"))]))
    assert tool.main([str(bad), str(good)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {bad}: bad magic b'XXXX'\n"
    assert out == f"{good}: converted to version 2\n"
    assert len(EmbeddingCache(good, dim=8)) == 1


def test_truncated_record_rejected(tmp_path):
    # a version 1 file whose counted record is cut short
    data = v1_bytes(8, [v1_record(make_emb("s1"))])
    assert_rejected(tmp_path / "c.eec", data[:-5], "truncated record")


def test_every_truncation_is_corrupt(tmp_path):
    # a version 1 file counts its records in the header, so every cut is corrupt
    data = v1_bytes(8, [v1_record(make_emb("s1")), v1_record(make_emb("sample-two", seed=1))])
    for cut in range(1, len(data)):
        assert_rejected(tmp_path / "c.eec", data[:cut])


def test_unknown_modality_byte_rejected(tmp_path):
    data = bytearray(v1_bytes(8, [v1_record(make_emb("s1"))]))
    data[20 + 2 + 2 + 2 + 2] = 250  # header, id_len, "s1", eid_len, "ex"
    assert_rejected(tmp_path / "c.eec", bytes(data), "modality byte 250")


def test_unknown_modality_error_names_the_file(tmp_path):
    path = tmp_path / "c.eec"
    data = bytearray(v1_bytes(8, [v1_record(make_emb("s1")), v1_record(make_emb("s2", seed=1))]))
    record = 2 + 2 + 2 + 2 + 1 + 4 * 8  # id_len, "s1", eid_len, "ex", modality, values
    data[20 + record + 8] = 7  # the second record's modality byte
    assert_rejected(path, bytes(data), f"^{re.escape(str(path))}: unknown modality byte 7$")


def test_v1_non_utf8_id_is_corrupt(tmp_path):
    data = bytearray(v1_bytes(8, [v1_record(make_emb("s1")), v1_record(make_emb("s2", seed=1))]))
    record = 2 + 2 + 2 + 2 + 1 + 4 * 8
    data[20 + record + 2] = 0xFF  # the first byte of the second record's id
    assert_rejected(tmp_path / "c.eec", bytes(data), "non-UTF-8 id")
