"""Remote wire-protocol tests against a local HTTP stub service."""
import json
import math
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
import yaml

from cachefile import records
from reference import side_items

from emblend.cache import EmbeddingCache
from emblend.cli import run
from emblend.dataio import Component, PairedSample, ingest
from emblend.engine import SLICE_BATCHES
from emblend.errors import DescriberFailure, RemoteFailure
from emblend.experts import EmbedItem
from emblend.geometry import Embedding, normalize
from emblend.remote import RemoteDescriber, RemoteExpert


class StubHandler(BaseHTTPRequestHandler):
    behavior = "ok"
    fail_after = 0  # embed requests answered before "fail_after" starts failing
    dim = 6
    seen = []
    seen_headers = []
    active = 0
    max_active = 0
    lock = threading.Lock()

    def log_message(self, *args):
        pass

    def do_POST(self):
        cls = type(self)
        with cls.lock:
            cls.active += 1
            cls.max_active = max(cls.max_active, cls.active)
        try:
            length = int(self.headers["Content-Length"])
            req = json.loads(self.rfile.read(length))
            cls.seen.append(req)
            cls.seen_headers.append(self.headers)
            describe = req.get("task") == "describe"
            embeds = sum(1 for r in cls.seen if r.get("task") != "describe")
            if (cls.behavior == "http_error"
                    or (cls.behavior == "describe_error" and describe)
                    or (cls.behavior == "fail_after" and not describe
                        and embeds > cls.fail_after)):
                self.send_response(500)
                self.end_headers()
                return
            if cls.behavior == "not_found":
                self.send_response(404)
                self.end_headers()
                return
            if cls.behavior in WRONG_SHAPES:
                body = wrong_shapes([item["id"] for item in req["inputs"]])[cls.behavior]
            elif cls.behavior == "describe_wrong_shape" and describe:
                body = {"descriptions": ["x"]}
            elif describe:
                body = {"descriptions": [
                    {"id": item["id"], "text": f"description of {item['id']}"}
                    for item in req["inputs"]
                ]}
            else:
                ids = [item["id"] for item in req["inputs"]]
                if cls.behavior == "drop_one" and len(ids) > 1:
                    ids = ids[:-1]
                dim = cls.dim if cls.behavior != "wrong_dim" else cls.dim + 2
                body = {"embeddings": [
                    {"id": i, "vector": _vector_for(i, dim)} for i in ids
                ]}
            payload = json.dumps(body).encode() if cls.behavior != "not_json" else b"<html>"
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        finally:
            with cls.lock:
                cls.active -= 1


def wrong_shapes(ids):
    """200 replies of the wrong JSON shape, by stub behaviour; each breaks
    embed and describe requests alike."""
    def entries(vector, text, key=lambda i: i):
        return {"embeddings": [{"id": key(i), "vector": vector} for i in ids],
                "descriptions": [{"id": key(i), "text": text} for i in ids]}
    return {"list": [], "string": "x",
            "entries_not_objects": {"embeddings": [1], "descriptions": ["x"]},
            "scalar_values": entries(5, 5),
            "strings_in_vector": entries(["x", 1, 2, 3, 4, 5], ["x"]),
            "unhashable_ids": entries([1, 0, 0, 0, 0, 0], "t", key=lambda i: [i])}


WRONG_SHAPES = list(wrong_shapes([]))


def _vector_for(item_id, dim):
    rng = np.random.default_rng(abs(hash(item_id)) % (2 ** 32))
    v = rng.normal(size=dim)
    return (v / np.linalg.norm(v)).tolist()


@pytest.fixture
def stub_server():
    StubHandler.behavior = "ok"
    StubHandler.seen = []
    StubHandler.seen_headers = []
    StubHandler.max_active = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    # a short poll, so that shutdown() returns without waiting out the 0.5 s default
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()
    server.server_close()


def make_expert(endpoint, batch_size=32, max_in_flight=4, api_key=None):
    return RemoteExpert("remote-x", StubHandler.dim, endpoint, model="stub-model",
                        api_key=api_key, batch_size=batch_size, max_in_flight=max_in_flight)


def describe(describer, sample_id, content):
    """The describer's text for a video pair of one raw component."""
    pair = PairedSample(sample_id, "p", "video", [Component(content)], [Component("x.")])
    return describer.describe_batch([(pair, pair.raw_components)])[0]


def assert_rows_are_stub_vectors(rows, items):
    """Row i is the stub's vector for item i, normalized bit for bit as one
    ``Embedding(normalize(vector))``."""
    for row, it in zip(rows, items, strict=True):
        want = Embedding(normalize(_vector_for(it.item_id, StubHandler.dim)),
                         "remote-x", it.modality, it.item_id)
        assert row.tobytes() == want.values.tobytes()


def test_batch_cardinality_and_dim(stub_server):
    expert = make_expert(stub_server)
    items = [EmbedItem("a", "text", "hello"), EmbedItem("b", "image", "pic")]
    rows = expert.embed_batch(items)
    assert isinstance(rows, np.ndarray)
    assert rows.shape == (2, StubHandler.dim) and rows.dtype == np.float64
    assert_rows_are_stub_vectors(rows, items)
    assert expert.embed_batch(items[1:]).tobytes() == rows[1].tobytes()


def test_request_wire_format(stub_server):
    expert = make_expert(stub_server)
    expert.embed_batch([EmbedItem("a", "audio", "clip")])
    req = StubHandler.seen[-1]
    assert req["model"] == "stub-model"
    assert req["inputs"] == [{"id": "a", "modality": "audio", "content": "clip"}]


def test_http_error_raises(stub_server):
    StubHandler.behavior = "http_error"
    with pytest.raises(RemoteFailure):
        make_expert(stub_server).embed_batch([EmbedItem("a", "text", "x")])


def test_missing_id_raises(stub_server):
    StubHandler.behavior = "drop_one"
    with pytest.raises(RemoteFailure):
        make_expert(stub_server).embed_batch(
            [EmbedItem("a", "text", "x"), EmbedItem("b", "text", "y")])


def test_wrong_dim_raises(stub_server):
    StubHandler.behavior = "wrong_dim"
    with pytest.raises(RemoteFailure):
        make_expert(stub_server).embed_batch([EmbedItem("a", "text", "x")])


def test_unreachable_endpoint_raises():
    expert = make_expert("http://127.0.0.1:1/embed")
    expert.timeout = 0.2
    with pytest.raises(RemoteFailure):
        expert.embed_batch([EmbedItem("a", "text", "x")])


# -- the client's failure messages and headers --------------------------------

def clients(endpoint):
    """A call to each remote client at ``endpoint`` and the failure it raises."""
    return [(lambda: make_expert(endpoint).embed_batch([EmbedItem("a", "text", "x")]),
             RemoteFailure),
            (lambda: describe(RemoteDescriber(endpoint, model="cap"), "s", "x"),
             DescriberFailure)]


def test_refused_connection_is_a_failed_request():
    with socket.socket() as sock:  # a port that nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        endpoint = f"http://127.0.0.1:{sock.getsockname()[1]}/embed"
    for call, failure in clients(endpoint):
        with pytest.raises(failure, match=f"^request to {re.escape(endpoint)} failed: "):
            call()


@pytest.mark.parametrize("behavior,message", [("not_json", "returned non-JSON body"),
                                              ("not_found", "returned status 404"),
                                              ("http_error", "returned status 500")])
def test_bad_reply_names_the_endpoint(stub_server, behavior, message):
    StubHandler.behavior = behavior
    for call, failure in clients(stub_server):
        with pytest.raises(failure, match=f"^{re.escape(stub_server)} {message}$"):
            call()


@pytest.mark.parametrize("behavior", WRONG_SHAPES)
def test_reply_of_the_wrong_shape_names_the_endpoint(stub_server, behavior):
    StubHandler.behavior = behavior
    for call, failure in clients(stub_server):
        with pytest.raises(failure, match=f"^{re.escape(stub_server)} returned no "):
            call()


def test_endpoint_without_scheme_is_a_failed_request():
    for call, failure in clients("127.0.0.1:1/embed"):
        with pytest.raises(failure, match="^request to 127.0.0.1:1/embed failed: "):
            call()


def test_auth_and_content_type_headers_reach_the_server(stub_server):
    make_expert(stub_server, api_key="key-1").embed_batch([EmbedItem("a", "text", "x")])
    describe(RemoteDescriber(stub_server, model="cap", api_key="key-2"), "s", "x")
    make_expert(stub_server).embed_batch([EmbedItem("b", "text", "y")])
    auth = [h.get("Authorization") for h in StubHandler.seen_headers]
    assert auth == ["Bearer key-1", "Bearer key-2", None]
    assert [h.get("Content-Type") for h in StubHandler.seen_headers] == ["application/json"] * 3


def test_in_flight_bound_respected(stub_server):
    expert = make_expert(stub_server, batch_size=1, max_in_flight=2)
    items = [EmbedItem(f"i{k}", "text", "x") for k in range(12)]
    rows = expert.embed_batch(items)
    assert rows.shape == (12, StubHandler.dim)
    assert_rows_are_stub_vectors(rows, items)
    assert StubHandler.max_active <= 2


def test_describer_roundtrip(stub_server):
    describer = RemoteDescriber(stub_server, model="cap")
    text = describe(describer, "s7", "frames...")
    assert text == "description of s7"
    req = StubHandler.seen[-1]
    assert req["task"] == "describe"
    assert req["inputs"] == [{"id": "s7", "modality": "video", "content": "frames..."}]


def test_describer_failure_on_http_error(stub_server):
    StubHandler.behavior = "http_error"
    with pytest.raises(DescriberFailure):
        describe(RemoteDescriber(stub_server, model="cap"), "s", "x")


def test_describe_batch_chunks_in_order(stub_server):
    describer = RemoteDescriber(stub_server, model="cap", batch_size=3, max_in_flight=2)
    pairs = [PairedSample(f"s{k}", "p", "image", [Component("a"), Component("b")],
                          [Component("x.")]) for k in range(7)]
    texts = describer.describe_batch([(p, p.raw_components) for p in pairs])
    assert texts == [f"description of s{k}" for k in range(7)]
    sent = [item for r in StubHandler.seen for item in r["inputs"]]
    assert {"id": "s0", "modality": "image", "content": "a\nb"} in sent
    assert sorted(len(r["inputs"]) for r in StubHandler.seen) == [1, 3, 3]
    assert describer.describe_batch([]) == []


# -- engine traffic through the CLI, every expert remote ---------------------

BATCH = 4


@pytest.fixture(scope="module")
def remote_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("remote-corpus")
    assert run(["synth", "--out", str(root), "--pools", "2", "--samples-per-pool", "9",
                "--modalities", "image,text", "--seed", "3"]) == 0
    return root


def remote_config(tmp_path, corpus_dir, endpoint, max_in_flight=2, experts_remote=True):
    doc = yaml.safe_load((corpus_dir / "config.yaml").read_text())
    if experts_remote:
        doc["experts"] = [{"expert_id": e["expert_id"], "kind": "remote", "dim": StubHandler.dim,
                           "endpoint": endpoint, "model": e["expert_id"]}
                          for e in doc["experts"]]
    doc["remote"] = {"batch_size": BATCH, "max_in_flight": max_in_flight,
                     "describe_endpoint": endpoint}
    doc["cache_dir"] = str(tmp_path / "cache")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path), [e["expert_id"] for e in doc["experts"]]


def posts(model=None, describe=False):
    return sum(1 for r in StubHandler.seen
               if (r.get("task") == "describe") == describe
               and (model is None or r["model"] == model))


def test_embed_posts_one_request_per_batch(stub_server, remote_corpus, tmp_path):
    config, experts = remote_config(tmp_path, remote_corpus, stub_server)
    corpus = str(remote_corpus / "corpus.jsonl")
    ids = {it.item_id for s in ingest(corpus) for side in ("raw", "annotation")
           for it in side_items(s, side)}
    assert run(["embed", "--config", config, "--corpus", corpus,
                "--out", str(tmp_path / "e1")]) == 0
    for eid in experts:
        assert posts(eid) == math.ceil(len(ids) / BATCH)
    StubHandler.seen = []
    assert run(["embed", "--config", config, "--corpus", corpus,
                "--out", str(tmp_path / "e2")]) == 0
    assert StubHandler.seen == []


def test_sns_describes_in_batches(stub_server, remote_corpus, tmp_path):
    config, experts = remote_config(tmp_path, remote_corpus, stub_server)
    corpus = str(remote_corpus / "corpus.jsonl")
    samples = ingest(corpus)
    media = sum(1 for s in samples if s.raw_modality != "text")
    assert run(["embed", "--config", config, "--corpus", corpus,
                "--out", str(tmp_path / "e")]) == 0
    StubHandler.seen = []
    assert run(["sns", "--config", config, "--corpus", corpus,
                "--out", str(tmp_path / "sns")]) == 0
    assert posts(describe=True) == math.ceil(media / BATCH)
    # one description per pair, embedded through the gating expert only
    assert posts(experts[0]) == math.ceil(len(samples) / BATCH)
    assert posts() == posts(experts[0])


def stored_ids(path, dim):
    """Item ids of a cache file's records, in file order."""
    return [item_id for item_id, _, _, _ in records(path, dim)]


def test_sns_stores_descriptions_in_pair_order(stub_server, remote_corpus, tmp_path):
    """The batched describer answers media pairs before text pairs; the
    descriptions are still embedded, and stored, in pair order."""
    config, experts = remote_config(tmp_path, remote_corpus, stub_server)
    lines = (remote_corpus / "corpus.jsonl").read_text().splitlines(keepends=True)
    corpus = str(tmp_path / "text_first.jsonl")  # the text pool, then the image pool
    (tmp_path / "text_first.jsonl").write_text("".join(reversed(lines)))
    assert run(["sns", "--config", config, "--corpus", corpus,
                "--out", str(tmp_path / "sns")]) == 0
    ids = stored_ids(tmp_path / "cache" / f"{experts[0]}.eec", StubHandler.dim)
    described = [item_id.split("#")[0] for item_id in ids if "#d:" in item_id]
    assert described == [s.sample_id for s in ingest(corpus)]


def test_describer_down_passes_media_pairs_through(stub_server, remote_corpus, tmp_path):
    config, _ = remote_config(tmp_path, remote_corpus, stub_server, experts_remote=False)
    corpus = remote_corpus / "corpus.jsonl"
    StubHandler.behavior = "describe_error"
    out = tmp_path / "sns"
    assert run(["sns", "--config", config, "--corpus", str(corpus), "--out", str(out)]) == 0
    inputs = corpus.read_text().splitlines()
    emitted = (out / "trimmed.jsonl").read_text().splitlines()
    log = [json.loads(line) for line in (out / "nucleus_log.jsonl").read_text().splitlines()]
    samples = ingest(str(corpus))
    assert len(log) == len(samples) == len(emitted)
    for sample, src, line, rec in zip(samples, inputs, emitted, log):
        if sample.raw_modality == "text":
            assert rec["error"] is None and rec["sim_backward"] is not None
        else:
            assert rec["error"] and not rec["accepted"]
            assert line == src
    media = sum(1 for s in samples if s.raw_modality != "text")
    assert posts(describe=True) >= media  # each media pair was tried on its own


def test_describer_reply_of_the_wrong_shape_fails_its_pairs_alone(stub_server, remote_corpus,
                                                                  tmp_path):
    config, _ = remote_config(tmp_path, remote_corpus, stub_server, experts_remote=False)
    corpus = remote_corpus / "corpus.jsonl"
    StubHandler.behavior = "describe_wrong_shape"
    out = tmp_path / "sns"
    assert run(["sns", "--config", config, "--corpus", str(corpus), "--out", str(out)]) == 0
    log = [json.loads(line) for line in (out / "nucleus_log.jsonl").read_text().splitlines()]
    for sample, rec in zip(ingest(str(corpus)), log, strict=True):
        if sample.raw_modality == "text":
            assert rec["error"] is None
        else:
            assert "returned no 'descriptions' list of objects" in rec["error"]


def test_embed_reply_of_the_wrong_shape_is_exit_3(stub_server, remote_corpus, tmp_path, capsys):
    config, _ = remote_config(tmp_path, remote_corpus, stub_server)
    StubHandler.behavior = "strings_in_vector"
    assert run(["embed", "--config", config, "--corpus", str(remote_corpus / "corpus.jsonl"),
                "--out", str(tmp_path / "e")]) == 3
    assert "remote failure: " in capsys.readouterr().err


def test_embed_failure_mid_run_keeps_written_slices(stub_server, remote_corpus, tmp_path):
    config, experts = remote_config(tmp_path, remote_corpus, stub_server, max_in_flight=1)
    corpus = str(remote_corpus / "corpus.jsonl")
    slice_posts = SLICE_BATCHES  # requests of BATCH items per slice
    StubHandler.behavior = "fail_after"
    StubHandler.fail_after = slice_posts + 3  # fails inside the second slice
    assert run(["embed", "--config", config, "--corpus", corpus,
                "--out", str(tmp_path / "e")]) == 3
    first = EmbeddingCache(tmp_path / "cache" / f"{experts[0]}.eec", StubHandler.dim)
    order = []
    for s in ingest(corpus):
        for side in ("raw", "annotation"):
            order += [it.item_id for it in side_items(s, side) if it.item_id not in order]
    assert len(first) == slice_posts * BATCH
    assert all((item_id, experts[0]) in first for item_id in order[:slice_posts * BATCH])


def test_sns_gating_failure_mid_run_fails_unstored_pairs_alone(stub_server, remote_corpus,
                                                               tmp_path):
    """Cold-cache ``sns`` whose gating expert starts failing inside its second
    slice: pairs whose rows the first slice stored are scored, and every other
    pair, retried on its own, passes through unchanged with the remote error."""
    config, experts = remote_config(tmp_path, remote_corpus, stub_server, max_in_flight=1)
    corpus = remote_corpus / "corpus.jsonl"
    StubHandler.behavior = "fail_after"
    StubHandler.fail_after = SLICE_BATCHES + 3
    out = tmp_path / "sns"
    assert run(["sns", "--config", config, "--corpus", str(corpus), "--out", str(out),
                "--direction", "forward"]) == 0
    gating = EmbeddingCache(tmp_path / "cache" / f"{experts[0]}.eec", StubHandler.dim)
    assert len(gating) == SLICE_BATCHES * BATCH
    samples = ingest(str(corpus))
    inputs = corpus.read_text().splitlines()
    emitted = (out / "trimmed.jsonl").read_text().splitlines()
    log = [json.loads(line) for line in (out / "nucleus_log.jsonl").read_text().splitlines()]
    assert len(log) == len(samples) == len(emitted)
    stored = [all((it.item_id, experts[0]) in gating
                  for side in ("raw", "annotation") for it in side_items(s, side))
              for s in samples]
    assert any(stored) and not all(stored)
    for ok, src, line, rec in zip(stored, inputs, emitted, log):
        if ok:
            assert rec["error"] is None and rec["sim_forward"] is not None
        else:
            assert "returned status 500" in rec["error"] and not rec["accepted"]
            assert line == src
    failed_posts = posts(experts[0]) - SLICE_BATCHES - 1  # less the first failed request
    assert failed_posts >= stored.count(False)  # each unstored pair was tried on its own
