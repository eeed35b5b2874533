"""Assembly of experts, caches and side-embedding rules into one engine.

A sample side embeds as the normalized mean of its component embeddings,
for every expert, which keeps gating, fusion inputs and anchors consistent;
``side_matrix`` averages the stored rows with ``geometry.side_vectors``.
Raw sides of each sample pass through all experts and concatenate in config
order into the projection input; annotation sides embed once through the
anchor expert. Every stage reads the corpus's columns (``dataio.Corpus``):
its item ids, contents and per-sample component counts; it builds no pair.

Embedding is batch-first, and a stage reads every stored row through one
method, ``ExpertHandle.positions``: given a column of item ids in groups of
given sizes and a builder for a group's items, it looks the ids up in the
store, embeds the ones it lacks with ``expert.embed_batch`` (first
occurrence order, ``SLICE_BATCHES`` expert batches per store write) and
returns each id's row in ``store.matrix``. Warm, cold and half-warm stores
take this one path; it builds the items of each group with a missing id
once, so a warm store builds none. The store is backed by the expert's cache
file, or kept in memory when no cache directory is set; it is the only copy
of an embedding a handle keeps, and every vector a stage uses is a row read
from it, at storage precision. A handle opens its store on first use, so a
subcommand loads only the stores of the experts it reads: ``sns`` the gating
expert's, ``curate`` without ``--model`` under a sampling strategy none.
"""
from __future__ import annotations

import os
from functools import cache, cached_property
from itertools import accumulate, pairwise

import numpy as np

from .cache import EmbeddingCache
from .config import EngineConfig, build_expert
from .dataio import component_item_id
from .errors import EmblendError
from .experts import EmbedItem, PayloadDescriber, SyntheticExpert
from .geometry import side_vectors
from .projection import forward
from .remote import RemoteDescriber

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

    def embed(self, item: EmbedItem) -> np.ndarray:
        """The item's stored float64 row, embedding it first on a miss."""
        at, _ = self.positions([item.item_id], [1], lambda k: (item,))
        return self.store.matrix[at[0]].astype(np.float64)

    def positions(self, ids, counts, items, failure=None):
        """The row in ``store.matrix`` of every id in ``ids``, in order, after
        embedding the ids the store lacks, and the errors of the groups that
        fail; group k is the next ``counts[k]`` ids.

        ``items(k)`` builds the items of group k: only for a group with a
        missing id, once per pass. Slices written before a failing one stay
        stored. With ``failure``, a failed embed is retried group by group,
        and a group that still fails gets ``failure(str(exc))`` in the
        errors, by position, and rows -1; without it the error propagates.
        """
        at = self.store.find(ids, self.expert_id)
        errors = {}
        if (at >= 0).all():
            return at, errors
        starts = list(accumulate(counts, initial=0))
        try:
            self._put_missing(at, starts, items)
        except EmblendError:
            if failure is None:
                raise
            for k, (lo, hi) in enumerate(pairwise(starts)):
                try:
                    self._put_missing(self.store.find(ids[lo:hi], self.expert_id), (0, hi - lo),
                                      lambda _, k=k: items(k))
                except EmblendError as exc:
                    errors[k] = failure(str(exc))
        at = self.store.find(ids, self.expert_id)
        for k in errors:
            at[starts[k]:starts[k + 1]] = -1
        return at, errors

    def _put_missing(self, at, starts, items) -> None:
        """Embed and store the first item of each id whose row ``at`` lacks,
        in order, ``SLICE_BATCHES`` expert batches per store write. The ids
        lie in groups that start at ``starts``, walked in order: ``items(k)``
        builds group k's items, once for each group with a miss."""
        absent, first = (at < 0).tolist(), {}
        for k, (lo, hi) in enumerate(pairwise(starts)):
            if any(absent[lo:hi]):
                for item, miss in zip(items(k), absent[lo:hi]):
                    if miss:
                        first.setdefault(item.item_id, item)
        missing = list(first.values())
        step = SLICE_BATCHES * getattr(self.expert, "batch_size", DEFAULT_BATCH)
        for start in range(0, len(missing), step):
            chunk = missing[start:start + step]
            self.store.put_many(self.expert_id, chunk, self.expert.embed_batch(chunk))


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
        """Describer (``describe_batch``) for non-text backward extraction, or None."""
        return self.describer

    def side_matrix(self, corpus, side: str, expert_id: str) -> np.ndarray:
        """Side vectors of the corpus's samples through one expert, averaged
        from the store rows of the sides' item ids by position, one run per
        side; the first side that fails raises."""
        handle = self.handles[expert_id]
        picks, counts = corpus.side(side)
        ids = corpus.item_ids
        at, _ = handle.positions([ids[j] for j in picks.tolist()], counts,
                                 lambda k: corpus.items(k, side))
        sides, errors = side_vectors(handle.store.matrix, at, counts)
        if errors:
            raise errors[min(errors)]
        return sides

    def anchor_matrix(self, corpus) -> np.ndarray:
        return self.side_matrix(corpus, "annotation", self.config.anchor_expert)

    def fused_inputs(self, corpus) -> np.ndarray:
        """Concatenated raw-side embeddings across all experts, config order."""
        blocks = [self.side_matrix(corpus, "raw", eid) for eid in self.expert_order]
        return np.concatenate(blocks, axis=1)

    def fused_outputs(self, corpus, model) -> np.ndarray:
        fused, _ = forward(model, self.fused_inputs(corpus))
        return fused

    def expert_space(self, corpus, expert_id: str):
        """(raw, annotation) side matrices within one expert's own space."""
        return (self.side_matrix(corpus, "raw", expert_id),
                self.side_matrix(corpus, "annotation", expert_id))

    def embed_query(self, text: str) -> np.ndarray:
        item = EmbedItem(component_item_id("query", "q", text), "text", text)
        return self.anchor.embed(item)

    def populate_caches(self, corpus) -> dict:
        """Embed every component of every sample through every expert.

        Each sample contributes its raw components, then its annotation
        components; a store write follows that order.
        """
        items = cache(corpus.items)  # a sample's items, built once for every expert
        for eid in self.expert_order:
            self.handles[eid].positions(corpus.item_ids, corpus.n_raw + corpus.n_ann, items)
        return {eid: len(corpus.item_ids) for eid in self.expert_order}
