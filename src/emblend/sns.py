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
from .geometry import MODALITIES, cosine_sim, normalize, normalize_rows

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


def side_items(pair: PairedSample, side: str) -> list:
    """Items of one side's components: raw keeps the pair's modality, the
    annotation side is text."""
    if side == "raw":
        components, modality, tag = pair.raw_components, pair.raw_modality, "r"
    else:
        components, modality, tag = pair.annotation_components, "text", "a"
    return [EmbedItem(component_item_id(pair.sample_id, tag, c.content), modality, c.content)
            for c in components]


def side_vector(component_vectors) -> np.ndarray:
    """Side embedding: normalized mean of its component embeddings."""
    return normalize(np.mean(component_vectors, axis=0))


def side_vectors(rows, counts) -> np.ndarray:
    """``side_vector`` of each run of ``counts[i]`` consecutive rows, stacked.

    Bit-equal to ``side_vector`` on each run: its rows are summed in order
    (added position by position across runs, since ``np.add.reduceat`` does
    not sum in order), divided by the run length and normalized.
    """
    counts = np.asarray(counts, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    sums = rows[starts]
    for j in range(1, counts.max(initial=0)):
        longer = counts > j
        sums[longer] += rows[starts[longer] + j]
    return normalize_rows(sums / counts[:, None])


@dataclass
class _Trim:
    """One pair after forward extraction, waiting for its backward pass."""

    pair: PairedSample
    ann_rows: np.ndarray
    sim_original: float
    cur_raw: list
    cur_raw_side: np.ndarray
    describe_base: list
    sim_fwd: float | None = None
    fwd_accepted: bool | None = None


def _passthrough(pair, config, error=None):
    size = (pair.raw_bytes, pair.annotation_bytes)
    return pair, NucleusRecord(pair.sample_id, config.direction, False, None, None,
                               size, size, error=error)


def _forward(pair, config, rows) -> _Trim:
    """Sides from the pair's rows (raw, then annotation); forward extraction when configured."""
    raw_rows, ann_rows = np.split(rows, [len(pair.raw_components)])
    raw_side, ann_side = side_vector(raw_rows), side_vector(ann_rows)
    sim_original = cosine_sim(raw_side, ann_side)
    # Bidirectional describes the forward-extraction output; backward-only
    # describes the original raw side.
    trim = _Trim(pair, ann_rows, sim_original, list(pair.raw_components), raw_side,
                 list(pair.raw_components))
    if config.direction in ("forward", "bidirectional"):
        tau = config.tau_alpha[pair.raw_modality]
        kept = extract([cosine_sim(v, ann_side) for v in raw_rows], tau)
        nucleus_raw = [pair.raw_components[i] for i in kept]
        nucleus_raw_side = side_vector(raw_rows[kept])
        trim.describe_base = nucleus_raw
        trim.sim_fwd = cosine_sim(nucleus_raw_side, ann_side)
        trim.fwd_accepted = mi_gate(trim.sim_fwd, sim_original, config.rho)
        if trim.fwd_accepted and config.reinject:
            trim.cur_raw = nucleus_raw
            trim.cur_raw_side = nucleus_raw_side
    return trim


def _describe(trim: _Trim, describe_fn) -> str:
    """Text raw data is its own description; other modalities go to describe_fn."""
    pair = trim.pair
    if pair.raw_modality == "text":
        return " ".join(c.content for c in trim.describe_base)
    if describe_fn is None:
        raise DescriberFailure(
            f"modality {pair.raw_modality!r} needs a describer for backward extraction")
    return describe_fn(pair, trim.describe_base)


def _backward(trim: _Trim, config, desc_rows):
    """Backward extraction when configured, against the description's stored
    row (``desc_rows``, one row); then the emitted pair and its record."""
    pair = trim.pair
    cur_ann = list(pair.annotation_components)
    sim_bwd = bwd_accepted = None
    if config.direction in ("backward", "bidirectional"):
        tau = config.tau_beta[pair.raw_modality]
        kept = extract([cosine_sim(desc_rows[0], v) for v in trim.ann_rows], tau)
        nucleus_ann = [pair.annotation_components[j] for j in kept]
        sim_bwd = cosine_sim(trim.cur_raw_side, side_vector(trim.ann_rows[kept]))
        bwd_accepted = mi_gate(sim_bwd, trim.sim_original, config.rho)
        if bwd_accepted and config.reinject:
            cur_ann = nucleus_ann

    sim_fwd, fwd_accepted = trim.sim_fwd, trim.fwd_accepted
    accepted = bool(fwd_accepted) or bool(bwd_accepted)
    emitted = pair
    if config.reinject and accepted:
        emitted = replace(pair, raw_components=tuple(trim.cur_raw),
                          annotation_components=tuple(cur_ann))
    # sim of the emitted pair when accepted, else of the last rejected candidate
    if bwd_accepted:
        sim_variant = sim_bwd
    elif fwd_accepted:
        sim_variant = sim_fwd
    else:
        sim_variant = sim_bwd if sim_bwd is not None else sim_fwd

    rec = NucleusRecord(
        pair.sample_id, config.direction, accepted, trim.sim_original, sim_variant,
        (pair.raw_bytes, pair.annotation_bytes), (emitted.raw_bytes, emitted.annotation_bytes),
        sim_forward=sim_fwd, sim_backward=sim_bwd,
        forward_accepted=fwd_accepted, backward_accepted=bwd_accepted)
    return emitted, rec


def apply_sns(pair: PairedSample, config: SnsConfig, gating, describe_fn=None):
    """Run the configured extraction direction(s) on one pair.

    Returns (emitted_pair, NucleusRecord). Backend failures never drop a
    pair: it passes through unchanged with accepted=False and an error note.
    """
    return run_sns([pair], config, gating, describe_fn)[0]


def pair_items(pair: PairedSample) -> list:
    """Raw, then annotation component items of one pair."""
    return side_items(pair, "raw") + side_items(pair, "annotation")


def _stored_rows(gating, groups, failure) -> list:
    """The stored rows of each group of items, or the ``failure`` raised for it.

    One batched ``resolve`` embeds every group's missing items; what a failed
    batch left missing is embedded group by group, so a group fails alone.
    """
    try:
        gating.resolve([it for group in groups for it in group])
    except EmblendError:
        pass
    out = []
    for group in groups:
        try:
            out.append(gating.rows(group))
        except EmblendError as exc:
            out.append(failure(str(exc)))
    return out


def _describe_all(trims: dict, describe_fn, jobs: int) -> dict:
    """The description, or the EmblendError raised for it, of every pair.

    A describer with ``describe_batch`` gets every non-text pair in one call;
    if that call fails, or the describer has none, pairs are described one at
    a time, on ``jobs`` threads.
    """
    out = {}
    batch = getattr(describe_fn, "describe_batch", None)
    media = [i for i, t in trims.items() if t.pair.raw_modality != "text"]
    if batch is not None and media:
        try:
            out.update(zip(media, batch([(trims[i].pair, trims[i].describe_base)
                                         for i in media])))
        except EmblendError:
            pass

    def one(i):
        try:
            return _describe(trims[i], describe_fn)
        except EmblendError as exc:
            return exc

    rest = [i for i in trims if i not in out]
    if jobs > 1 and len(rest) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            out.update(zip(rest, pool.map(one, rest)))
    else:
        out.update((i, one(i)) for i in rest)
    return out


def run_sns(pairs, config: SnsConfig, gating, describe_fn=None, jobs: int = 1) -> list:
    """``apply_sns`` over many pairs: the (emitted_pair, NucleusRecord) of each.

    ``gating`` is an engine ``ExpertHandle``; every vector is a row read from
    its store. Phases: one batched embed of all components, then forward
    extraction of every pair; one describe of every non-text pair; one
    batched embed of the descriptions, stored in pair order; backward
    extraction of every pair.
    """
    pairs = list(pairs)
    if config.direction == "off":
        return [_passthrough(p, config) for p in pairs]
    results = [None] * len(pairs)
    trims = {}
    component_rows = _stored_rows(gating, [pair_items(p) for p in pairs], GatingExpertFailure)
    for i, (pair, rows) in enumerate(zip(pairs, component_rows)):
        try:
            if isinstance(rows, EmblendError):
                raise rows
            trims[i] = _forward(pair, config, rows)
        except EmblendError as exc:
            results[i] = _passthrough(pair, config, str(exc))
    desc_rows = {}  # the description's stored row, or the EmblendError raised for it
    if config.direction in ("backward", "bidirectional"):
        descriptions = _describe_all(trims, describe_fn, jobs)
        described = [i for i in trims if isinstance(descriptions[i], str)]
        items = [EmbedItem(component_item_id(pairs[i].sample_id, "d", descriptions[i]), "text",
                           descriptions[i]) for i in described]
        rows = _stored_rows(gating, [[it] for it in items], DescriberFailure)
        desc_rows = {**descriptions, **dict(zip(described, rows))}
    for i, trim in trims.items():
        rows = desc_rows.get(i)
        try:
            if isinstance(rows, EmblendError):
                raise rows
            results[i] = _backward(trim, config, rows)
        except EmblendError as exc:
            results[i] = _passthrough(trim.pair, config, str(exc))
    return results


def calibrate_taus(samples, gating, low_pct: float = 10.0, high_pct: float = 90.0):
    """Per-modality thresholds at the midpoint of the observed similarity band.

    Forward bands come from raw-component-vs-annotation similarities, backward
    bands from annotation-sentence-vs-raw-side similarities. ``gating`` is an
    engine ``ExpertHandle``, read as in ``run_sns``; a pair whose components
    cannot be embedded raises its GatingExpertFailure.
    """
    fwd_sims = {m: [] for m in MODALITIES}
    bwd_sims = {m: [] for m in MODALITIES}
    for pair, rows in zip(samples, _stored_rows(gating, [pair_items(p) for p in samples],
                                                GatingExpertFailure)):
        if isinstance(rows, EmblendError):
            raise rows
        raw_rows, ann_rows = np.split(rows, [len(pair.raw_components)])
        raw_side, ann_side = side_vector(raw_rows), side_vector(ann_rows)
        fwd_sims[pair.raw_modality].extend(cosine_sim(v, ann_side) for v in raw_rows)
        bwd_sims[pair.raw_modality].extend(cosine_sim(raw_side, v) for v in ann_rows)

    def midpoint(values):
        if not values:
            return 0.0
        lo, hi = np.percentile(values, [low_pct, high_pct])
        return float((lo + hi) / 2.0)

    tau_alpha = {m: midpoint(v) for m, v in fwd_sims.items()}
    tau_beta = {m: midpoint(v) for m, v in bwd_sims.items()}
    return tau_alpha, tau_beta
