"""HTTP client for remote embedding and describer services.

Embedding request:  POST {"model": str, "inputs": [{"id", "modality", "content"}]}
Embedding response: {"embeddings": [{"id": str, "vector": [float, ...]}]}
Describe request adds "task": "describe"; the response carries
{"descriptions": [{"id": str, "text": str}]}.

Both clients share one ``EndpointClient``: it sends the inputs in requests
of ``batch_size`` through a pool bounded by ``max_in_flight`` with the
standard library's ``urllib.request``, and checks each reply's shape. A
failed connection, a non-2xx status, a body that is not JSON, a reply that
is not an object listing objects under its key, or an input whose id has no
valid value (a vector of ``dim`` numbers, a text string) raise RemoteFailure
(DescriberFailure for describe), naming the endpoint; a failed request fails
the whole call. ``embed_batch`` returns the normalized vectors as one
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
from .experts import EmbedItem
from .geometry import MODALITIES, normalize_rows

_NUMBERS = frozenset((int, float))  # the types json decodes a number to


class EndpointClient:
    """One remote endpoint: its model, auth header, request bounds and timeout."""

    failure = RemoteFailure

    def __init__(self, endpoint: str, model: str, api_key: str | None = None,
                 batch_size: int = 32, max_in_flight: int = 4, timeout: float = 30.0):
        self.endpoint = endpoint
        self.model = model
        self.batch_size = batch_size
        self.max_in_flight = max_in_flight
        self.timeout = timeout
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"

    def _post(self, payload):
        """POST ``payload`` as JSON and return the decoded JSON reply."""
        try:
            request = urllib.request.Request(self.endpoint, headers=self._headers, method="POST",
                                             data=json.dumps(payload).encode("utf-8"))
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:  # a non-2xx status
            exc.close()
            raise self.failure(f"{self.endpoint} returned status {exc.code}") from None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise self.failure(f"request to {self.endpoint} failed: {exc}") from exc
        try:
            return json.loads(body)
        except ValueError as exc:
            raise self.failure(f"{self.endpoint} returned non-JSON body") from exc

    def _values(self, items, key: str, field: str, valid, **task) -> list:
        """The ``field`` of each item's entry in the replies' ``key`` lists, in
        item order; an entry's ``field`` must pass ``valid``. Each request
        carries ``batch_size`` items, at most ``max_in_flight`` at once."""
        def request(chunk):
            body = self._post({"model": self.model, **task, "inputs": [
                {"id": it.item_id, "modality": it.modality, "content": it.content}
                for it in chunk]})
            entries = body.get(key) if isinstance(body, dict) else None
            if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
                raise self.failure(f"{self.endpoint} returned no {key!r} list of objects")
            found = {e.get("id"): e.get(field) for e in entries if isinstance(e.get("id"), str)}
            for it in chunk:
                if not valid(found.get(it.item_id)):
                    raise self.failure(
                        f"{self.endpoint} returned no valid {field} for id {it.item_id!r}")
            return [found[it.item_id] for it in chunk]

        chunks = [items[i:i + self.batch_size] for i in range(0, len(items), self.batch_size)]
        if len(chunks) <= 1:
            return request(items) if items else []
        with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
            return [value for chunk in pool.map(request, chunks) for value in chunk]


class RemoteExpert(EndpointClient):
    """Expert backed by a remote embedding endpoint."""

    def __init__(self, expert_id: str, dim: int, endpoint: str, model: str,
                 modalities=MODALITIES, api_key: str | None = None, batch_size: int = 32,
                 max_in_flight: int = 4, timeout: float = 30.0):
        super().__init__(endpoint, model, api_key, batch_size, max_in_flight, timeout)
        self.expert_id = expert_id
        self.dim = dim
        self.modalities = frozenset(modalities)

    def _is_vector(self, vec) -> bool:
        return isinstance(vec, list) and len(vec) == self.dim and set(map(type, vec)) <= _NUMBERS

    def embed_batch(self, items) -> np.ndarray:
        """The items' normalized vectors, one float64 row each."""
        items = list(items)
        for it in items:
            if it.modality not in self.modalities:
                raise UnsupportedModality(
                    f"expert {self.expert_id!r} does not support {it.modality!r}")
        vectors = self._values(items, "embeddings", "vector", self._is_vector)
        return normalize_rows(np.array(vectors, dtype=np.float64).reshape(len(items), self.dim))


class RemoteDescriber(EndpointClient):
    """Describer backed by a remote modality-to-text endpoint."""

    failure = DescriberFailure

    def describe_batch(self, requests) -> list:
        """Descriptions of (pair, components) requests, in request order; a
        pair is sent as its raw modality and its components joined by newlines."""
        items = [EmbedItem(pair.sample_id, pair.raw_modality,
                           "\n".join(c.content for c in components))
                 for pair, components in requests]
        return self._values(items, "descriptions", "text", lambda text: isinstance(text, str),
                            task="describe")
