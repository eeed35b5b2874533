"""Symmetric nucleus subsampling of paired samples.

A pair is trimmed in up to two passes: forward extraction keeps raw
components most similar to the annotation; backward extraction keeps
annotation sentences grounded in a description of the (possibly trimmed)
raw side. A trimmed variant replaces the original only when its gate
similarity reaches ``rho`` times the original pair's similarity, so every
emitted pair is either byte-identical to its input or at least as aligned
as the gate demands.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (DescriberFailure, EmblendError, GatingExpertFailure,
                     InvariantViolation, ZeroSize)
from .experts import EmbedItem, decode_payload, encode_payload, hash_payload
from .geometry import MODALITIES, cosine_sim, normalize

DIRECTIONS = ("off", "forward", "backward", "bidirectional")

SENTENCE_TERMINATORS = frozenset(".!?")


@dataclass(frozen=True)
class Component:
    """One segmentable unit of a sample side; byte size is of the content."""

    content: str
    byte_size: int = 0

    def __post_init__(self):
        if self.byte_size == 0:
            object.__setattr__(self, "byte_size", len(self.content.encode("utf-8")))


@dataclass(frozen=True)
class PairedSample:
    sample_id: str
    pool_id: str
    raw_modality: str
    raw_components: tuple
    annotation_components: tuple
    presegmented: bool = False
    annotation_text: str = ""
    media_ref: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "raw_components", tuple(self.raw_components))
        object.__setattr__(self, "annotation_components", tuple(self.annotation_components))
        if self.raw_modality not in MODALITIES:
            raise InvariantViolation(f"unknown modality {self.raw_modality!r}", self.sample_id)
        if not self.raw_components or not self.annotation_components:
            raise InvariantViolation("both sides need at least one component", self.sample_id)
        for comp in self.raw_components + self.annotation_components:
            if comp.byte_size <= 0:
                raise InvariantViolation("component byte size must be > 0", self.sample_id)
        if not self.annotation_text:
            object.__setattr__(
                self, "annotation_text",
                "\n".join(c.content for c in self.annotation_components))

    @property
    def raw_bytes(self) -> int:
        return sum(c.byte_size for c in self.raw_components)

    @property
    def annotation_bytes(self) -> int:
        return sum(c.byte_size for c in self.annotation_components)


@dataclass
class SnsConfig:
    direction: str = "bidirectional"
    tau_alpha: dict = field(default_factory=lambda: {m: 0.0 for m in MODALITIES})
    tau_beta: dict = field(default_factory=lambda: {m: 0.0 for m in MODALITIES})
    rho: float = 1.0
    reinject: bool = True

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if isinstance(self.tau_alpha, (int, float)):
            self.tau_alpha = {m: float(self.tau_alpha) for m in MODALITIES}
        if isinstance(self.tau_beta, (int, float)):
            self.tau_beta = {m: float(self.tau_beta) for m in MODALITIES}
        for tau in (*self.tau_alpha.values(), *self.tau_beta.values()):
            if not -1.0 <= tau <= 1.0:
                raise ValueError("tau thresholds must lie in [-1, 1]")
        if self.rho < 0:
            raise ValueError("rho must be >= 0")


@dataclass
class NucleusRecord:
    sample_id: str
    direction: str
    accepted: bool
    sim_original: float | None
    sim_variant: float | None
    size_before: tuple
    size_after: tuple
    sim_forward: float | None = None
    sim_backward: float | None = None
    forward_accepted: bool | None = None
    backward_accepted: bool | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "direction": self.direction,
            "accepted": self.accepted,
            "sim_original": self.sim_original,
            "sim_variant": self.sim_variant,
            "size_before": {"raw": self.size_before[0], "annotation": self.size_before[1]},
            "size_after": {"raw": self.size_after[0], "annotation": self.size_after[1]},
            "sim_forward": self.sim_forward,
            "sim_backward": self.sim_backward,
            "forward_accepted": self.forward_accepted,
            "backward_accepted": self.backward_accepted,
            "error": self.error,
        }


def segment_text(text: str) -> list:
    """Split text into sentences at ., ! or ? followed by whitespace or end.

    Components keep their original bytes (terminator included); the
    whitespace between sentences is treated as separator.
    """
    components = []
    n = len(text)
    i = 0
    while i < n and text[i].isspace():
        i += 1
    start = i
    while i < n:
        if text[i] in SENTENCE_TERMINATORS and (i + 1 == n or text[i + 1].isspace()):
            piece = text[start:i + 1]
            if piece.strip():
                components.append(piece)
            i += 1
            while i < n and text[i].isspace():
                i += 1
            start = i
        else:
            i += 1
    if start < n:
        tail = text[start:].rstrip()
        if tail:
            components.append(tail)
    return components


def mi_gate(sim_variant: float, sim_original: float, rho: float) -> bool:
    """Accept a variant iff sim_variant >= rho * sim_original."""
    return sim_variant >= rho * sim_original


def info_density(sim_proxy: float, size_x_bytes: int, size_y_bytes: int) -> float:
    """Similarity proxy per byte of pair content."""
    if size_x_bytes <= 0 or size_y_bytes <= 0:
        raise ZeroSize("pair sides must have positive byte sizes")
    return sim_proxy / (size_x_bytes + size_y_bytes)


def extract(sims, tau: float):
    """Indices of components with sim > tau; all indices if none pass.

    Forward extraction passes raw-component sims and tau_alpha, backward
    extraction annotation-sentence sims and tau_beta.
    """
    kept = [i for i, s in enumerate(sims) if s > tau]
    return kept or list(range(len(sims)))


class TableDescriber:
    """Fixture describer: looks descriptions up by sample id."""

    def __init__(self, table: dict):
        self.table = dict(table)

    def __call__(self, pair: PairedSample, components) -> str:
        try:
            return self.table[pair.sample_id]
        except KeyError:
            raise DescriberFailure(f"no description for sample {pair.sample_id!r}")


class PayloadDescriber:
    """Synthetic-corpus describer: emits the mean component payload as text.

    Works on the same content conventions as the synthetic expert, so the
    description embeds where the raw side does.
    """

    def __init__(self, semantic_dim: int):
        self.semantic_dim = semantic_dim

    def __call__(self, pair: PairedSample, components) -> str:
        payloads = []
        for comp in components:
            vec = decode_payload(comp.content)
            if vec is None:
                vec = hash_payload(comp.content, self.semantic_dim)
            elif vec.shape[0] != self.semantic_dim:
                raise DescriberFailure(
                    f"component payload dim {vec.shape[0]} != {self.semantic_dim}")
            payloads.append(vec)
        try:
            mean = normalize(np.mean(payloads, axis=0))
        except EmblendError as exc:
            raise DescriberFailure(f"degenerate payload mean: {exc}") from exc
        return encode_payload(mean)


def component_item_id(sample_id: str, tag: str, content: str) -> str:
    """Stable sub-item id: keyed by content so trimming never shifts identities."""
    digest = hashlib.blake2b(content.encode("utf-8"), digest_size=6).hexdigest()
    return f"{sample_id}#{tag}:{digest}"


def _embed_components(gating, sample_id, modality, components, tag):
    try:
        return [
            gating.embed(EmbedItem(component_item_id(sample_id, tag, comp.content),
                                   modality, comp.content)).values
            for comp in components
        ]
    except EmblendError as exc:
        raise GatingExpertFailure(str(exc)) from exc


def side_vector(component_vectors) -> np.ndarray:
    """Side embedding: normalized mean of its component embeddings."""
    return normalize(np.mean(component_vectors, axis=0))


def apply_sns(pair: PairedSample, config: SnsConfig, gating, describe_fn=None):
    """Run the configured extraction direction(s) on one pair.

    Returns (emitted_pair, NucleusRecord). Backend failures never drop a
    pair: it passes through unchanged with accepted=False and an error note.
    """
    size_before = (pair.raw_bytes, pair.annotation_bytes)
    if config.direction == "off":
        rec = NucleusRecord(pair.sample_id, "off", False, None, None,
                            size_before, size_before)
        return pair, rec

    try:
        return _apply_directed(pair, config, gating, describe_fn, size_before)
    except EmblendError as exc:
        rec = NucleusRecord(pair.sample_id, config.direction, False, None, None,
                            size_before, size_before, error=str(exc))
        return pair, rec


def _apply_directed(pair, config, gating, describe_fn, size_before):
    raw_vecs = _embed_components(gating, pair.sample_id, pair.raw_modality,
                                 pair.raw_components, "r")
    ann_vecs = _embed_components(gating, pair.sample_id, "text",
                                 pair.annotation_components, "a")
    ann_side = side_vector(ann_vecs)
    sim_original = cosine_sim(side_vector(raw_vecs), ann_side)

    cur_raw = list(pair.raw_components)
    cur_raw_vecs = raw_vecs
    cur_ann = list(pair.annotation_components)
    sim_fwd = sim_bwd = None
    fwd_accepted = bwd_accepted = None
    nucleus_raw = None
    nucleus_raw_vecs = None

    if config.direction in ("forward", "bidirectional"):
        tau = config.tau_alpha[pair.raw_modality]
        sims = [cosine_sim(v, ann_side) for v in raw_vecs]
        kept = extract(sims, tau)
        nucleus_raw = [pair.raw_components[i] for i in kept]
        nucleus_raw_vecs = [raw_vecs[i] for i in kept]
        sim_fwd = cosine_sim(side_vector(nucleus_raw_vecs), ann_side)
        fwd_accepted = mi_gate(sim_fwd, sim_original, config.rho)
        if fwd_accepted and config.reinject:
            cur_raw = nucleus_raw
            cur_raw_vecs = nucleus_raw_vecs

    if config.direction in ("backward", "bidirectional"):
        # Bidirectional describes the forward-extraction output; backward-only
        # describes the original raw side. Text raw data is its own description.
        describe_base = nucleus_raw if nucleus_raw is not None else list(pair.raw_components)
        if pair.raw_modality == "text":
            description = " ".join(c.content for c in describe_base)
        else:
            if describe_fn is None:
                raise DescriberFailure(
                    f"modality {pair.raw_modality!r} needs a describer for backward extraction")
            description = describe_fn(pair, describe_base)
        try:
            desc_vec = gating.embed(
                EmbedItem(component_item_id(pair.sample_id, "d", description),
                          "text", description)).values
        except EmblendError as exc:
            raise DescriberFailure(str(exc)) from exc
        tau = config.tau_beta[pair.raw_modality]
        sims = [cosine_sim(desc_vec, v) for v in ann_vecs]
        kept = extract(sims, tau)
        nucleus_ann = [pair.annotation_components[j] for j in kept]
        nucleus_ann_vecs = [ann_vecs[j] for j in kept]
        sim_bwd = cosine_sim(side_vector(cur_raw_vecs), side_vector(nucleus_ann_vecs))
        bwd_accepted = mi_gate(sim_bwd, sim_original, config.rho)
        if bwd_accepted and config.reinject:
            cur_ann = nucleus_ann

    accepted = bool(fwd_accepted) or bool(bwd_accepted)
    emitted = pair
    if config.reinject and accepted:
        emitted = replace(pair, raw_components=tuple(cur_raw),
                          annotation_components=tuple(cur_ann))
    # sim of the emitted pair when accepted, else of the last rejected candidate
    if bwd_accepted:
        sim_variant = sim_bwd
    elif fwd_accepted:
        sim_variant = sim_fwd
    else:
        sim_variant = sim_bwd if sim_bwd is not None else sim_fwd

    rec = NucleusRecord(
        pair.sample_id, config.direction, accepted, sim_original, sim_variant,
        size_before, (emitted.raw_bytes, emitted.annotation_bytes),
        sim_forward=sim_fwd, sim_backward=sim_bwd,
        forward_accepted=fwd_accepted, backward_accepted=bwd_accepted)
    return emitted, rec


def calibrate_taus(samples, gating, low_pct: float = 10.0, high_pct: float = 90.0):
    """Per-modality thresholds at the midpoint of the observed similarity band.

    Forward bands come from raw-component-vs-annotation similarities, backward
    bands from annotation-sentence-vs-raw-side similarities.
    """
    fwd_sims = {m: [] for m in MODALITIES}
    bwd_sims = {m: [] for m in MODALITIES}
    for pair in samples:
        raw_vecs = _embed_components(gating, pair.sample_id, pair.raw_modality,
                                     pair.raw_components, "r")
        ann_vecs = _embed_components(gating, pair.sample_id, "text",
                                     pair.annotation_components, "a")
        ann_side = side_vector(ann_vecs)
        raw_side = side_vector(raw_vecs)
        fwd_sims[pair.raw_modality].extend(cosine_sim(v, ann_side) for v in raw_vecs)
        bwd_sims[pair.raw_modality].extend(cosine_sim(raw_side, v) for v in ann_vecs)

    def midpoint(values):
        if not values:
            return 0.0
        lo, hi = np.percentile(values, [low_pct, high_pct])
        return float((lo + hi) / 2.0)

    tau_alpha = {m: midpoint(v) for m, v in fwd_sims.items()}
    tau_beta = {m: midpoint(v) for m, v in bwd_sims.items()}
    return tau_alpha, tau_beta
