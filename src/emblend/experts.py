"""Embedding backends: the expert interface and the deterministic synthetic expert.

The synthetic expert reproduces modality-gapped geometry at desk scale. It
derives a unit semantic payload from item content, offsets it along a fixed
per-modality direction, adds counter-based noise keyed by (seed, item id),
and normalizes:

    embed(item) = normalize(pad(payload) + gap_magnitude * offset[modality] + noise)

Content conventions:
  * ``@vec:<base64 of little-endian float32>`` carries an explicit payload
    (used by synthetic corpora for non-text media stand-ins).
  * Any other string is feature-hashed by token into the payload space, so
    texts sharing words embed nearby.

The expert embeds in batches (``embed_batch``): one pass over the items
checks each modality and takes each payload's bytes or text; the explicit
payloads, the hashed texts, the offsets, the noise and both normalizations
then run on the batch's matrix. Every row is bit-equal to embedding its item
alone, and a batch fails with its first failing item's error.

``PayloadDescriber`` is the synthetic expert's describer for SNS: it reads
the same content conventions and describes components as their mean payload.
Like every describer it answers in batches (``describe_batch``), and it
averages with ``geometry.side_vectors``.
"""
from __future__ import annotations

import base64
import binascii
import hashlib
import re
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (DescriberFailure, DimMismatch, EmblendError, ParseError,
                     UnsupportedModality)
from .geometry import MODALITIES, Embedding, normalize_rows, row_norms, run_starts, side_vectors

VEC_PREFIX = "@vec:"

_TOKEN_RE = re.compile(r"\w+")


@dataclass(frozen=True)
class EmbedItem:
    """One thing to embed: a sample side, a component, or a description."""

    item_id: str
    modality: str
    content: str


def encode_payload(vec) -> str:
    """Serialize a payload vector into the ``@vec:`` content convention."""
    arr = np.asarray(vec, dtype="<f4")
    return VEC_PREFIX + base64.b64encode(arr.tobytes()).decode("ascii")


def _payload_bytes(content: str) -> bytes | None:
    """The bytes of ``@vec:`` content, or None for plain text."""
    if not content.startswith(VEC_PREFIX):
        return None
    try:
        return binascii.a2b_base64(content[len(VEC_PREFIX):].encode("ascii"))
    except (ValueError, binascii.Error) as exc:
        raise ParseError(f"malformed @vec payload: {exc}") from exc


def _payload_values(raw: bytes) -> np.ndarray:
    """The float64 vector of ``@vec`` bytes."""
    try:
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)
    except ValueError as exc:
        raise ParseError(f"malformed @vec payload: {exc}") from exc


def _hash_rows(texts, semantic_dim: int) -> np.ndarray:
    """Deterministic token feature-hash of each text: a unit row of semantic_dim."""
    counts = []
    for text in texts:
        vec = [0.0] * semantic_dim
        for tok in _TOKEN_RE.findall(text.lower()) or [text]:
            digest = hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
            vec[int.from_bytes(digest[:4], "little") % semantic_dim] += (
                1.0 if digest[4] & 1 else -1.0)
        if not any(vec):
            vec[0] = 1.0  # cancelled or empty token set: deterministic fallback direction
        counts.append(vec)
    vecs = np.array(counts, dtype=np.float64).reshape(len(texts), semantic_dim)
    vecs /= row_norms(vecs)[:, None]
    return vecs


def orthogonal_offsets(dim: int, semantic_dim: int, seed: int) -> dict:
    """One fixed unit offset per modality, pairwise orthogonal where dim allows.

    When the non-semantic coordinates have room for all modalities, offsets
    live there so they do not interfere with payload geometry.
    """
    n = len(MODALITIES)
    rng = np.random.Generator(np.random.PCG64(seed))
    free = dim - semantic_dim
    if free >= n:
        block = rng.normal(size=(free, n))
        q, _ = np.linalg.qr(block)
        offsets = np.zeros((n, dim))
        offsets[:, semantic_dim:] = q[:, :n].T
    elif dim >= n:
        block = rng.normal(size=(dim, n))
        q, _ = np.linalg.qr(block)
        offsets = q[:, :n].T
    else:
        offsets = rng.normal(size=(n, dim))
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    return {m: offsets[i] for i, m in enumerate(MODALITIES)}


@dataclass
class SyntheticExpertConfig:
    expert_id: str
    seed: int
    dim: int
    semantic_dim: int
    gap_magnitude: float = 0.0
    noise_sigma: float = 0.0
    modality_offsets: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.semantic_dim <= self.dim:
            raise ValueError("semantic_dim must be in [1, dim]")
        if self.gap_magnitude < 0 or self.noise_sigma < 0:
            raise ValueError("gap_magnitude and noise_sigma must be >= 0")
        if not self.modality_offsets:
            self.modality_offsets = orthogonal_offsets(self.dim, self.semantic_dim, self.seed)
        for m, off in self.modality_offsets.items():
            self.modality_offsets[m] = np.asarray(off, dtype=np.float64)


class _NoiseStream:
    """Standard normal draws from a Philox stream keyed by blake2b(seed|item id).

    One bit generator serves every item: it is rekeyed with a complete fresh
    state (the digest's two little-endian 64-bit words as key, counter 0,
    empty buffer), which draws the same numbers as a new
    ``Philox(key=int.from_bytes(digest, "little"))`` without building the
    OS-entropy seed sequence that constructor discards. A call holds the lock
    for all its draws, so threads may share one stream.
    """

    _FRESH = (0, 0, 0, 0)

    def __init__(self):
        self._lock = threading.Lock()
        self._bitgen = np.random.Philox(key=0)
        self._rng = np.random.Generator(self._bitgen)

    def draws(self, seed: int, item_ids, dim: int) -> np.ndarray:
        """``dim`` draws per item, one row each."""
        out = np.empty((len(item_ids), dim))
        keys = np.frombuffer(b"".join(
            hashlib.blake2b(f"{seed}|{item_id}".encode("utf-8"), digest_size=16).digest()
            for item_id in item_ids), dtype="<u8").reshape(-1, 2).tolist()
        philox = {"counter": self._FRESH, "key": None}
        state = {"bit_generator": "Philox", "state": philox, "buffer": self._FRESH,
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        with self._lock:
            for row, key in zip(out, keys):
                philox["key"] = key
                self._bitgen.state = state
                self._rng.standard_normal(out=row)
        return out


def _generate_rows(config: SyntheticExpertConfig, vecs: np.ndarray, modalities, item_ids,
                   noise: _NoiseStream) -> np.ndarray:
    """normalize(row + gap * offset[modality] + noise keyed by (seed, item_id))
    of each row of ``vecs`` (padded payloads), in place."""
    if config.gap_magnitude > 0:
        offsets = np.array([config.modality_offsets[m] for m in modalities]).reshape(vecs.shape)
        vecs += config.gap_magnitude * offsets
    if config.noise_sigma > 0:
        # Generator.normal(0, sigma) returns loc + scale * z; the 0.0 + keeps its bits
        vecs += 0.0 + config.noise_sigma * noise.draws(config.seed, item_ids, config.dim)
    return normalize_rows(vecs)


class SyntheticExpert:
    """Deterministic expert: same (seed, item) always yields the same embedding."""

    def __init__(self, config: SyntheticExpertConfig, modalities=MODALITIES):
        self.config = config
        self.expert_id = config.expert_id
        self.dim = config.dim
        self.modalities = frozenset(modalities)
        self._noise = _NoiseStream()

    def embed(self, item: EmbedItem) -> Embedding:
        return Embedding(self.embed_batch([item])[0], self.expert_id, item.modality, item.item_id)

    def embed_batch(self, items) -> np.ndarray:
        """The items' unit embeddings, one float64 row each.

        One pass in item order checks each modality and takes each payload:
        the bytes of an ``@vec`` item, the feature hash of a text. The
        explicit payloads are then normalized as one matrix. The first item
        that fails, in batch order, raises its own error.
        """
        cfg = self.config
        sd = cfg.semantic_dim
        vecs = np.zeros((len(items), cfg.dim))
        explicit, blobs, hashed, texts = [], [], [], []
        failure = None
        for i, it in enumerate(items):
            try:
                if it.modality not in self.modalities:
                    raise UnsupportedModality(
                        f"expert {self.expert_id!r} does not support {it.modality!r}")
                raw = _payload_bytes(it.content)
                if raw is None:
                    hashed.append(i)
                    texts.append(it.content)
                elif len(raw) != 4 * sd:
                    n = len(_payload_values(raw))  # ParseError unless whole float32s
                    raise DimMismatch(f"@vec payload has {n} entries, expected {sd}")
                else:
                    explicit.append(i)
                    blobs.append(raw)
            except EmblendError as exc:
                failure = exc
                break
        if explicit:
            # the payloads before the failing item still fail first
            vecs[explicit, :sd] = normalize_rows(
                np.frombuffer(b"".join(blobs), dtype="<f4").astype(np.float64).reshape(-1, sd))
        if failure is not None:
            raise failure
        if texts:
            vecs[hashed, :sd] = _hash_rows(texts, sd)
        _generate_rows(cfg, vecs, [it.modality for it in items], [it.item_id for it in items],
                       self._noise)
        # a second normalization: stored embeddings are normalize(normalize(raw)),
        # and the cache and artifact bytes depend on it
        return normalize_rows(vecs)


class PayloadDescriber:
    """Synthetic-corpus describer: emits the mean component payload as text.

    Works on the same content conventions as the synthetic expert, so the
    description embeds where the raw side does.
    """

    def __init__(self, semantic_dim: int):
        self.semantic_dim = semantic_dim

    def describe_batch(self, requests) -> list:
        """The ``@vec`` text of each (pair, components) request's mean
        payload, in order. One pass takes every component's payload, then
        ``side_vectors`` averages each request's. The first failing
        component raises its own error, else the first degenerate mean
        ``DescriberFailure``; no components mean NaN, as with ``np.mean``
        (the run of such a request is one NaN row)."""
        sd = self.semantic_dim
        components = [comp for _, comps in requests for comp in comps]
        explicit, blobs, hashed, texts = [], [], [], []
        for at, comp in enumerate(components):
            raw = _payload_bytes(comp.content)
            if raw is None:
                hashed.append(at)
                texts.append(comp.content)
            elif len(raw) != 4 * sd:
                n = len(_payload_values(raw))  # ParseError unless whole float32s
                raise DescriberFailure(f"component payload dim {n} != {sd}")
            else:
                explicit.append(at)
                blobs.append(raw)
        rows = np.full((len(components) + 1, sd), np.nan)  # the last: a request of none
        if blobs:
            rows[explicit] = np.frombuffer(b"".join(blobs), dtype="<f4").reshape(-1, sd)
        if texts:
            rows[hashed] = _hash_rows(texts, sd)
        counts = np.array([len(comps) for _, comps in requests], dtype=np.intp)
        at = np.insert(np.arange(len(components)), run_starts(counts)[counts == 0],
                       len(components))
        means, errors = side_vectors(rows, at, np.maximum(counts, 1))
        if errors:
            exc = errors[min(errors)]
            raise DescriberFailure(f"degenerate payload mean: {exc}") from exc
        return [encode_payload(mean) for mean in means]

    def __call__(self, pair, components) -> str:
        """One request's description: a batch of one."""
        return self.describe_batch([(pair, components)])[0]
