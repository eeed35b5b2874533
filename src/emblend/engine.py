"""Assembly of experts, caches and side-embedding rules into one engine.

A sample side embeds as the normalized mean of its component embeddings,
for every expert, which keeps gating, fusion inputs and anchors consistent.
Raw sides of each sample pass through all experts and concatenate in config
order into the projection input; annotation sides embed once through the
anchor expert.

Embedding is batch-first. Each stage lists the (item, expert) keys it needs,
and the expert's handle embeds the ones its store lacks with
``expert.embed_batch``: first occurrence order, in slices of
``SLICE_BATCHES`` expert batches; each slice's matrix goes to the store in
one write. Side matrices are then gathered from the store. The store is
backed by the expert's cache file, or kept in memory when no cache
directory is set; it is the only copy of an embedding a handle keeps, and
every vector a stage uses is a row read from it, at storage precision.
A handle opens its store on first use, so a subcommand loads only the
stores of the experts it reads: ``sns`` the gating expert's, ``curate``
without ``--model`` under a sampling strategy none.
"""
from __future__ import annotations

import os
from functools import cached_property
from itertools import chain
from operator import attrgetter

import numpy as np

from .cache import EmbeddingCache
from .config import EngineConfig, build_expert
from .experts import EmbedItem, SyntheticExpert
from .projection import forward
from .remote import RemoteDescriber
from .sns import (PayloadDescriber, component_item_id, pair_items, side_ids, side_items,
                  side_vectors)

SLICE_BATCHES = 8   # expert batches per embed_batch call and store write
DEFAULT_BATCH = 32  # batch size of experts that do not declare one


class ExpertHandle:
    """Store-through wrapper around one expert backend; ``path`` is its cache
    file, or None for a store kept in memory."""

    def __init__(self, expert, path):
        self.expert = expert
        self.path = path

    @cached_property
    def store(self) -> EmbeddingCache:
        """The expert's store, opened on first use."""
        return EmbeddingCache(self.path, self.expert.dim)

    @property
    def expert_id(self) -> str:
        return self.expert.expert_id

    @property
    def dim(self) -> int:
        return self.expert.dim

    def embed(self, item: EmbedItem) -> np.ndarray:
        """The item's stored float64 row, embedding it first on a miss."""
        return self.rows([item])[0]

    def resolve(self, items) -> None:
        """Embed and store every item whose key the store lacks.

        Slices written before a failing one stay stored.
        """
        missing = self.store.missing(items, self.expert_id)
        step = SLICE_BATCHES * getattr(self.expert, "batch_size", DEFAULT_BATCH)
        for start in range(0, len(missing), step):
            chunk = missing[start:start + step]
            self.store.put_many(self.expert_id, chunk, self.expert.embed_batch(chunk))

    def rows(self, items) -> np.ndarray:
        """Stored float64 values of the items, one row each, embedding misses first."""
        self.resolve(items)
        return self.store.rows(map(attrgetter("item_id"), items), self.expert_id)


class Engine:
    def __init__(self, config: EngineConfig):
        self.config = config
        self.handles = {}
        self.expert_order = []
        for entry in config.experts:
            expert = build_expert(entry, config.remote)
            path = None
            if config.cache_dir:
                os.makedirs(config.cache_dir, exist_ok=True)
                path = os.path.join(config.cache_dir, f"{expert.expert_id}.eec")
            self.handles[expert.expert_id] = ExpertHandle(expert, path)
            self.expert_order.append(expert.expert_id)
        self.gating = self.handles[config.gating_expert]
        self.anchor = self.handles[config.anchor_expert]
        remote = config.remote.with_env()
        gating = self.gating.expert
        self.describer = None
        if remote.describe_endpoint:
            self.describer = RemoteDescriber(
                remote.describe_endpoint, remote.describe_model, api_key=remote.api_key,
                timeout=remote.timeout, batch_size=remote.batch_size,
                max_in_flight=remote.max_in_flight)
        elif isinstance(gating, SyntheticExpert):
            self.describer = PayloadDescriber(gating.config.semantic_dim)

    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def n_experts(self) -> int:
        return len(self.expert_order)

    def describe_fn(self):
        """Describer callable for non-text backward extraction, or None."""
        return self.describer

    def side_matrix(self, samples, side: str, expert_id: str) -> np.ndarray:
        """Side vectors of the samples through one expert. The sides' cached
        item ids resolve to store rows in one pass; only sides with a miss
        build their ``EmbedItem``s, the misses are embedded in first-occurrence
        order, and the rows are then read by position."""
        handle = self.handles[expert_id]
        groups = [side_ids(s, side) for s in samples]
        counts = np.fromiter(map(len, groups), np.intp, len(groups))
        ids = list(chain.from_iterable(groups))
        at = handle.store.find(ids, expert_id)
        misses = np.flatnonzero(at < 0)
        if misses.size:
            starts = np.cumsum(counts) - counts
            owners = np.searchsorted(starts, misses, side="right") - 1
            handle.resolve([side_items(samples[k], side)[i - starts[k]]
                            for k, i in zip(owners.tolist(), misses.tolist())])
            at = handle.store.find(ids, expert_id)
        return side_vectors(handle.store.matrix, counts, at)

    def anchor_matrix(self, samples) -> np.ndarray:
        return self.side_matrix(samples, "annotation", self.config.anchor_expert)

    def fused_inputs(self, samples) -> np.ndarray:
        """Concatenated raw-side embeddings across all experts, config order."""
        blocks = [self.side_matrix(samples, "raw", eid) for eid in self.expert_order]
        return np.concatenate(blocks, axis=1)

    def fused_outputs(self, samples, model) -> np.ndarray:
        fused, _ = forward(model, self.fused_inputs(samples))
        return fused

    def expert_space(self, samples, expert_id: str):
        """(raw, annotation) side matrices within one expert's own space."""
        return (self.side_matrix(samples, "raw", expert_id),
                self.side_matrix(samples, "annotation", expert_id))

    def embed_query(self, text: str) -> np.ndarray:
        item = EmbedItem(component_item_id("query", "q", text), "text", text)
        return self.anchor.embed(item)

    def populate_caches(self, samples) -> dict:
        """Embed every component of every sample through every expert.

        Each sample contributes its raw components, then its annotation
        components; a store write follows that order.
        """
        items = [it for s in samples for it in pair_items(s)]
        for eid in self.expert_order:
            self.handles[eid].resolve(items)
        return {eid: len(items) for eid in self.expert_order}
