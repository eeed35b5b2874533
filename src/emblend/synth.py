"""Synthetic benchmark corpora with controllable semantic structure.

Samples are grouped into semantic clusters; each pair shares a per-sample
payload between its raw core component and its annotation core sentence.
Non-text media stand-ins carry explicit ``@vec`` payloads; text samples are
token sentences whose feature hashes realize the same geometry. Distractor
components on both sides give the nucleus subsampler something to trim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import Component, PairedSample
from .errors import ConfigError
from .experts import SyntheticExpertConfig, encode_payload
from .geometry import MODALITIES, normalize


@dataclass
class SynthSpec:
    seed: int = 0
    pools: int = 4
    samples_per_pool: int = 500
    modalities: tuple = MODALITIES  # cycled over pools
    clusters: int = 8
    dim: int = 32
    semantic_dim: int = 16
    gap_magnitude: float = 1.8
    noise_sigma: float = 0.02
    raw_distractors: int = 2
    annotation_extras: int = 1
    annotation_noise: float = 0.05
    distractor_mix: float = 0.2
    jitter: float = 1.2
    expert_ids: tuple = ("e2e", "fusion", "text")
    # the text expert models describe-then-embed: it never sees raw media, so
    # its modality separation is tiny and its noise is the pipeline's largest
    text_gap: float = 0.08
    text_noise: float = 0.14

    def __post_init__(self):
        self.modalities = tuple(self.modalities)
        if not self.modalities or not set(self.modalities) <= set(MODALITIES):
            raise ConfigError(f"synth modalities must be some of {MODALITIES}")
        if self.clusters < 1 or self.pools < 1 or self.samples_per_pool < 1:
            raise ConfigError("synth pools, samples_per_pool and clusters must be >= 1")
        # what expert_configs and the engine config built from them need
        if self.seed < 0 or self.dim < 2 or not 1 <= self.semantic_dim <= self.dim:
            raise ConfigError("synth needs seed >= 0, dim >= 2 and semantic_dim in [1, dim]")
        for name in ("gap_magnitude", "noise_sigma", "text_gap", "text_noise"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"synth {name} must be finite and >= 0")


def expert_configs(spec: SynthSpec) -> list:
    """One synthetic expert per configured id, each with its own offsets and noise.

    The last expert id is the text-style anchor expert and gets the
    describe-then-embed profile (text_gap, text_noise); earlier experts carry
    the full modality gap with mild per-expert variation.
    """
    configs = []
    for i, eid in enumerate(spec.expert_ids):
        if i == len(spec.expert_ids) - 1 and len(spec.expert_ids) > 1:
            gap, noise = spec.text_gap, spec.text_noise
        else:
            gap = spec.gap_magnitude * (1.0 - 0.125 * i)
            noise = spec.noise_sigma
        configs.append(SyntheticExpertConfig(
            expert_id=eid,
            seed=spec.seed * 1000 + 101 + i,
            dim=spec.dim,
            semantic_dim=spec.semantic_dim,
            gap_magnitude=gap,
            noise_sigma=noise,
        ))
    return configs


def _vec_sentence(payload) -> str:
    return encode_payload(np.asarray(payload, dtype=np.float64))


def _token_sentence(tokens) -> str:
    return " ".join(tokens) + "."


def _text_pair(rng, sample_id, cluster, spec):
    # tokens must survive \w+ tokenization as single units, so strip separators
    sid = sample_id.replace("-", "")
    cluster_tokens = [f"c{cluster}k{j}" for j in range(3)]
    sample_tokens = [f"s{sid}t{j}" for j in range(5)]
    core = cluster_tokens + sample_tokens
    raw = [_token_sentence(core)]
    for d in range(spec.raw_distractors):
        noise_tokens = [f"n{rng.integers(10**6)}x{j}" for j in range(4)]
        raw.append(_token_sentence(noise_tokens))
    ann_core = list(core)
    if spec.annotation_noise > 0 and rng.random() < spec.annotation_noise * 4:
        ann_core = ann_core[:-1] + [f"s{sid}alt"]
    annotation = [_token_sentence(ann_core)]
    for d in range(spec.annotation_extras):
        noise_tokens = [f"m{rng.integers(10**6)}y{j}" for j in range(4)]
        annotation.append(_token_sentence(noise_tokens))
    return raw, annotation


def _vec_pair(rng, payload, spec):
    raw = [_vec_sentence(payload)]
    for _ in range(spec.raw_distractors):
        mix = spec.distractor_mix * payload + rng.normal(size=spec.semantic_dim)
        raw.append(_vec_sentence(normalize(mix)))
    ann_payload = payload
    if spec.annotation_noise > 0:
        ann_payload = normalize(
            payload + spec.annotation_noise * rng.normal(size=spec.semantic_dim))
    annotation = [_vec_sentence(ann_payload)]
    for _ in range(spec.annotation_extras):
        mix = spec.distractor_mix * payload + rng.normal(size=spec.semantic_dim)
        annotation.append(_vec_sentence(normalize(mix)))
    return raw, annotation


def generate_corpus(spec: SynthSpec) -> list:
    """Deterministic corpus of PairedSamples for the given spec."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    centers = rng.normal(size=(spec.clusters, spec.semantic_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    samples = []
    for p in range(spec.pools):
        pool_id = f"pool{p}"
        modality = spec.modalities[p % len(spec.modalities)]
        for i in range(spec.samples_per_pool):
            sample_id = f"{pool_id}-{i:05d}"
            cluster = int(rng.integers(spec.clusters))
            if modality == "text":
                raw, annotation = _text_pair(rng, sample_id, cluster, spec)
            else:
                payload = normalize(
                    centers[cluster] + spec.jitter * rng.normal(size=spec.semantic_dim))
                raw, annotation = _vec_pair(rng, payload, spec)
            # shuffle so the informative component is not always first
            raw = [raw[j] for j in rng.permutation(len(raw))]
            annotation = [annotation[j] for j in rng.permutation(len(annotation))]
            samples.append(PairedSample(
                sample_id=sample_id,
                pool_id=pool_id,
                raw_modality=modality,
                raw_components=[Component(c) for c in raw],
                annotation_components=[Component(c) for c in annotation],
                presegmented=(modality != "text"),
            ))
    return samples
