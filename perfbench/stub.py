"""Localhost stand-in for the remote embedding and describer services.

Serves the wire protocol of ``emblend.remote``: an embed request returns the
synthetic expert's vector for each input under the request's ``model``, and
a describe request returns the ``PayloadDescriber`` text of the components
joined by newlines, so a remote run produces the same artifacts as a local
one. Counters are kept on the server side: requests (embed and describe
POSTs alike), describe requests, items, bytes, failures and per-request
service time. ``GET /stats`` returns them; ``GET
/stats?reset=1`` also zeroes them. Stats requests are not counted.

At most ``os.cpu_count()`` connections are handled at once; further ones
wait in the listen backlog.

Usage: python3 perfbench/stub.py SPEC_JSON
SPEC_JSON holds {"experts": [<synth expert entries>], "describe_semantic_dim": int}.
The first line written to stdout is ``PORT <n>``. SIGTERM stops the server.
"""
from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import common

common.use_checkout_sources()

from emblend.experts import EmbedItem, SyntheticExpert, SyntheticExpertConfig  # noqa: E402
from emblend.sns import Component, PayloadDescriber  # noqa: E402


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        self.requests = 0
        self.describe_requests = 0
        self.items = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.failures = 0
        self.service_ms = []

    def snapshot(self) -> dict:
        return {"requests": self.requests, "describe_requests": self.describe_requests,
                "items": self.items, "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out, "failures": self.failures,
                "service_ms": list(self.service_ms)}


class StubServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128

    def __init__(self, spec: dict):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.experts = {}
        for entry in spec["experts"]:
            cfg = SyntheticExpertConfig(
                expert_id=entry["expert_id"], seed=int(entry["seed"]),
                dim=int(entry["dim"]), semantic_dim=int(entry["semantic_dim"]),
                gap_magnitude=float(entry["gap_magnitude"]),
                noise_sigma=float(entry["noise_sigma"]))
            self.experts[entry["expert_id"]] = SyntheticExpert(cfg)
        self.describer = PayloadDescriber(int(spec["describe_semantic_dim"]))
        self.counters = Counters()
        self.slots = threading.BoundedSemaphore(os.cpu_count() or 1)

    def process_request(self, request, client_address):
        self.slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self.slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()


class StubHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _reply(self, status: int, body: dict) -> int:
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        return len(payload)

    def do_GET(self):
        counters = self.server.counters
        if not self.path.startswith("/stats"):
            self._reply(404, {"error": "not found"})
            return
        with counters.lock:
            body = counters.snapshot()
            if "reset=1" in self.path:
                counters.reset()
        self._reply(200, body)

    def do_POST(self):
        t0 = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        describe = False
        n_items = 0
        try:
            req = json.loads(raw)
            inputs = req["inputs"]
            n_items = len(inputs)
            describe = req.get("task") == "describe"
            if describe:
                body = {"descriptions": [
                    {"id": it["id"], "text": self.server.describer(
                        None, [Component(c) for c in it["content"].split("\n")])}
                    for it in inputs]}
            else:
                expert = self.server.experts[req["model"]]
                body = {"embeddings": [
                    {"id": it["id"], "vector": expert.embed(
                        EmbedItem(it["id"], it["modality"], it["content"])).values.tolist()}
                    for it in inputs]}
            status = 200
        except Exception as exc:  # any bad request is answered and counted
            body, status = {"error": f"{type(exc).__name__}: {exc}"}, 500
        sent = self._reply(status, body)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        counters = self.server.counters
        with counters.lock:
            counters.requests += 1
            counters.describe_requests += describe
            counters.items += n_items
            counters.bytes_in += len(raw)
            counters.bytes_out += sent
            counters.failures += status != 200
            counters.service_ms.append(elapsed_ms)


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    server = StubServer(spec)
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
