"""HTTP client for remote embedding and describer services.

Embedding request:  POST {"model": str, "inputs": [{"id", "modality", "content"}]}
Embedding response: {"embeddings": [{"id": str, "vector": [float, ...]}]}
Describe request adds "task": "describe"; the response carries
{"descriptions": [{"id": str, "text": str}]}.

Requests go out through the standard library's ``urllib.request``. A failed
connection, a non-2xx status, a body that is not JSON, a missing id, or a
wrong-dimension vector raise RemoteFailure (DescriberFailure for describe).
Embeddings and descriptions alike are sent in requests of ``batch_size``
inputs, issued through a pool bounded by ``max_in_flight``; a failed request
fails the whole call. ``embed_batch`` returns the normalized vectors as one
float64 matrix, a row per input.
"""
from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DescriberFailure, RemoteFailure, UnsupportedModality
from .experts import EmbedItem, ExpertDescriptor
from .geometry import Embedding, normalize_rows


def _post_json(endpoint, payload, headers, timeout, failure_cls):
    """POST ``payload`` as JSON and return the decoded JSON reply; a failure
    of any kind raises ``failure_cls``."""
    try:
        request = urllib.request.Request(endpoint, data=json.dumps(payload).encode("utf-8"),
                                         headers=headers, method="POST")
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            body = resp.read()
    except urllib.error.HTTPError as exc:  # a non-2xx status
        exc.close()
        raise failure_cls(f"{endpoint} returned status {exc.code}") from None
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise failure_cls(f"request to {endpoint} failed: {exc}") from exc
    try:
        return json.loads(body)
    except ValueError as exc:
        raise failure_cls(f"{endpoint} returned non-JSON body") from exc


def _in_chunks(fn, items, batch_size, max_in_flight) -> list:
    """``fn`` over consecutive chunks of ``batch_size`` items, at most
    ``max_in_flight`` at once; the results in item order."""
    chunks = [items[i:i + batch_size] for i in range(0, len(items), batch_size)]
    if len(chunks) <= 1:
        return fn(items) if items else []
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return [out for chunk in pool.map(fn, chunks) for out in chunk]


class RemoteExpert:
    """Expert backed by a remote embedding endpoint."""

    def __init__(self, descriptor: ExpertDescriptor, endpoint: str, model: str,
                 api_key: str | None = None, batch_size: int = 32,
                 max_in_flight: int = 4, timeout: float = 30.0):
        self.descriptor = descriptor
        self.endpoint = endpoint
        self.model = model
        self.batch_size = max(1, int(batch_size))
        self.max_in_flight = max(1, int(max_in_flight))
        self.timeout = timeout
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"

    @property
    def expert_id(self) -> str:
        return self.descriptor.expert_id

    @property
    def dim(self) -> int:
        return self.descriptor.dim

    def _embed_chunk(self, items):
        payload = {
            "model": self.model,
            "inputs": [
                {"id": it.item_id, "modality": it.modality, "content": it.content}
                for it in items
            ],
        }
        body = _post_json(self.endpoint, payload, self._headers, self.timeout, RemoteFailure)
        vectors = {e.get("id"): e.get("vector") for e in body.get("embeddings", [])}
        for it in items:
            vec = vectors.get(it.item_id)
            if vec is None:
                raise RemoteFailure(f"response missing embedding for id {it.item_id!r}")
            if len(vec) != self.dim:
                raise RemoteFailure(
                    f"expert {self.expert_id!r} returned dim {len(vec)}, expected {self.dim}")
        return [vectors[it.item_id] for it in items]

    def embed(self, item: EmbedItem) -> Embedding:
        return Embedding(self.embed_batch([item])[0], self.expert_id, item.modality, item.item_id)

    def embed_batch(self, items) -> np.ndarray:
        """The items' normalized vectors, one float64 row each."""
        items = list(items)
        for it in items:
            if it.modality not in self.descriptor.supported_modalities:
                raise UnsupportedModality(
                    f"expert {self.expert_id!r} does not support {it.modality!r}")
        vectors = _in_chunks(self._embed_chunk, items, self.batch_size, self.max_in_flight)
        return normalize_rows(np.array(vectors, dtype=np.float64).reshape(len(items), self.dim))


class RemoteDescriber:
    """Describer backed by a remote modality-to-text endpoint."""

    def __init__(self, endpoint: str, model: str, api_key: str | None = None,
                 timeout: float = 60.0, batch_size: int = 32, max_in_flight: int = 4):
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self.batch_size = max(1, int(batch_size))
        self.max_in_flight = max(1, int(max_in_flight))
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"

    def _describe_chunk(self, inputs):
        payload = {
            "model": self.model,
            "task": "describe",
            "inputs": [{"id": item_id, "modality": modality, "content": content}
                       for item_id, modality, content in inputs],
        }
        body = _post_json(self.endpoint, payload, self._headers, self.timeout, DescriberFailure)
        texts = {}
        for entry in body.get("descriptions", []):
            if isinstance(entry.get("text"), str):
                texts.setdefault(entry.get("id"), entry["text"])
        for item_id, _, _ in inputs:
            if item_id not in texts:
                raise DescriberFailure(f"response missing description for id {item_id!r}")
        return [texts[item_id] for item_id, _, _ in inputs]

    def describe(self, item_id: str, modality: str, content: str) -> str:
        return self._describe_chunk([(item_id, modality, content)])[0]

    def describe_batch(self, requests) -> list:
        """Descriptions of (pair, components) requests, in request order; a
        pair is sent as its raw modality and its components joined by newlines."""
        inputs = [(pair.sample_id, pair.raw_modality, "\n".join(c.content for c in components))
                  for pair, components in requests]
        return _in_chunks(self._describe_chunk, inputs, self.batch_size, self.max_in_flight)

    def __call__(self, pair, components) -> str:
        return self.describe_batch([(pair, components)])[0]
