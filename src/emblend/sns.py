"""Symmetric nucleus subsampling of paired samples.

A pair is trimmed in up to two passes: forward extraction keeps raw
components most similar to the annotation; backward extraction keeps
annotation sentences grounded in a description of the (possibly trimmed)
raw side. A trimmed variant replaces the original only when its gate
similarity reaches ``rho`` times the original pair's similarity, so every
emitted pair is either byte-identical to its input or at least as aligned
as the gate demands.

This module holds only the algorithm: the pairs it trims and their item ids
are ``dataio``'s, the side-mean kernel is ``geometry.side_vectors``, and a
describer answers only ``describe_batch`` (``experts.PayloadDescriber``).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

# the noqa names are re-exported: perfbench/stub.py and test_acceptance.py import them
from .dataio import Component, PairedSample, component_item_id, pair_ids, pair_items  # noqa: F401
from .errors import DescriberFailure, EmblendError, GatingExpertFailure, ZeroSize
from .experts import EmbedItem, PayloadDescriber  # noqa: F401
from .geometry import (MODALITIES, cosine_rows, run_cosines, run_starts, side_vector,  # noqa: F401
                       side_vectors)

DIRECTIONS = ("off", "forward", "backward", "bidirectional")


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


def _layout(firsts, offsets):
    """The run layout (``geometry.run_starts``) of the row positions
    ``firsts[k] + j`` for each j in ``offsets[k]``, run k after run k - 1."""
    at = np.array([first + j for first, off in zip(firsts, offsets) for j in off], dtype=np.intp)
    return at, np.array([len(off) for off in offsets], dtype=np.intp)


def _pair_sides(pairs, rows):
    """For pairs whose rows lie one after another, raw then annotation: the
    run layout and sides of their raw and of their annotation components,
    and the EmblendError of each pair (by position) whose raw, else whose
    annotation, side does not normalize."""
    sizes = [(len(p.raw_components), len(p.annotation_components)) for p in pairs]
    starts = [0, *accumulate(n_raw + n_ann for n_raw, n_ann in sizes)]
    raw = _layout(starts, [range(n_raw) for n_raw, _ in sizes])
    ann = _layout(starts, [range(n_raw, n_raw + n_ann) for n_raw, n_ann in sizes])
    raw_sides, raw_errors = side_vectors(rows, *raw)
    ann_sides, ann_errors = side_vectors(rows, *ann)
    return (*raw, raw_sides), (*ann, ann_sides), {**ann_errors, **raw_errors}


@dataclass
class _Trim:
    """One pair between the phases of ``run_sns``; its annotation rows start
    at row ``ann_at``."""

    pair: PairedSample
    ann_at: int
    sim_original: float
    cur_raw: list
    cur_raw_side: np.ndarray
    describe_base: list
    cur_ann: list
    sim_fwd: float | None = None
    fwd_accepted: bool | None = None
    sim_bwd: float | None = None
    bwd_accepted: bool | None = None


def _passthrough(pair, config, error=None):
    size = (pair.raw_bytes, pair.annotation_bytes)
    return pair, NucleusRecord(pair.sample_id, config.direction, False, None, None,
                               size, size, error=error)


def _forward(pairs: dict, rows, config) -> dict:
    """Sides of each pair, then forward extraction when configured: {i:
    _Trim, or the EmblendError that fails pair i}. ``rows`` holds the pairs'
    rows one after another, raw then annotation."""
    if not pairs:
        return {}
    (raw_at, n_raw, raw_sides), (ann_at, n_ann, ann_sides), errors = _pair_sides(
        pairs.values(), rows)
    # Bidirectional describes the forward-extraction output; backward-only
    # describes the original raw side.
    trims = [_Trim(pair, at, sim, list(pair.raw_components), side,
                   list(pair.raw_components), list(pair.annotation_components))
             for pair, at, sim, side in zip(pairs.values(), ann_at[run_starts(n_ann)].tolist(),
                                            cosine_rows(raw_sides, ann_sides).tolist(),
                                            raw_sides)]
    if config.direction in ("forward", "bidirectional"):
        kept = [extract(sims, config.tau_alpha[t.pair.raw_modality])
                for t, sims in zip(trims, run_cosines(rows, raw_at, n_raw, ann_sides))]
        nucleus_sides, nucleus_errors = side_vectors(
            rows, *_layout(raw_at[run_starts(n_raw)].tolist(), kept))
        errors = {**nucleus_errors, **errors}
        sims = cosine_rows(nucleus_sides, ann_sides).tolist()
        for t, k, side, sim in zip(trims, kept, nucleus_sides, sims):
            nucleus_raw = [t.pair.raw_components[j] for j in k]
            t.describe_base = nucleus_raw
            t.sim_fwd = sim
            t.fwd_accepted = mi_gate(sim, t.sim_original, config.rho)
            if t.fwd_accepted and config.reinject:
                t.cur_raw, t.cur_raw_side = nucleus_raw, side
    return {i: errors.get(k, t) for k, (i, t) in enumerate(zip(pairs, trims))}


def _backward(trims: dict, rows, descs, config) -> dict:
    """Backward extraction of each trim against its description's stored row
    (``descs``, one row per trim in order): {i: the trim, or the EmblendError
    that fails pair i}."""
    if not trims:
        return {}
    firsts = [t.ann_at for t in trims.values()]
    ann = _layout(firsts, [range(len(t.pair.annotation_components)) for t in trims.values()])
    kept = [extract(sims, config.tau_beta[t.pair.raw_modality])
            for t, sims in zip(trims.values(), run_cosines(rows, *ann, descs))]
    sides, errors = side_vectors(rows, *_layout(firsts, kept))
    cur_raw_sides = np.array([t.cur_raw_side for t in trims.values()])
    for t, k, sim in zip(trims.values(), kept, cosine_rows(cur_raw_sides, sides).tolist()):
        t.sim_bwd = sim
        t.bwd_accepted = mi_gate(sim, t.sim_original, config.rho)
        if t.bwd_accepted and config.reinject:
            t.cur_ann = [t.pair.annotation_components[j] for j in k]
    return {i: errors.get(k, t) for k, (i, t) in enumerate(trims.items())}


def _emit(trim: _Trim, config):
    """The emitted pair and its record."""
    pair = trim.pair
    sim_fwd, fwd_accepted = trim.sim_fwd, trim.fwd_accepted
    sim_bwd, bwd_accepted = trim.sim_bwd, trim.bwd_accepted
    accepted = bool(fwd_accepted) or bool(bwd_accepted)
    emitted = pair
    if config.reinject and accepted:
        ann = tuple(trim.cur_ann)
        text = pair.annotation_text if ann == pair.annotation_components else ""
        emitted = replace(pair, raw_components=tuple(trim.cur_raw),
                          annotation_components=ann, annotation_text=text)
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


def _pair_rows(gating, pairs):
    """The stored rows of every pair's components, raw then annotation, one
    pair after another, at storage precision; the rows of a pair whose
    components cannot be embedded are left out, and its
    ``GatingExpertFailure`` is given by position."""
    at, errors = gating.positions([pair_ids(p) for p in pairs], lambda k: pair_items(pairs[k]),
                                  GatingExpertFailure)
    return gating.store.matrix[at[at >= 0]], errors


def _describe_all(trims: dict, describe_fn) -> dict:
    """The description, or the EmblendError raised for it, of every pair, in
    order.

    Text raw data is its own description. Every other pair goes to one
    ``describe_fn.describe_batch``; a batch that fails is split into halves,
    each retried as a batch, down to single pairs, which keep their own error.
    """
    out, media = dict.fromkeys(trims), {}
    for i, t in trims.items():
        if t.pair.raw_modality == "text":
            out[i] = " ".join(c.content for c in t.describe_base)
        elif describe_fn is None:
            out[i] = DescriberFailure(f"modality {t.pair.raw_modality!r} needs a describer "
                                      "for backward extraction")
        else:
            media[i] = (t.pair, t.describe_base)

    def describe(requests) -> list:
        try:
            return describe_fn.describe_batch(requests)
        except EmblendError as exc:
            if len(requests) == 1:
                return [exc]
            half = len(requests) // 2
            return describe(requests[:half]) + describe(requests[half:])

    if media:
        out.update(zip(media, describe(list(media.values()))))
    return out


def run_sns(pairs, config: SnsConfig, gating, describe_fn=None) -> list:
    """``apply_sns`` over many pairs: the (emitted_pair, NucleusRecord) of each.

    ``gating`` is an engine ``ExpertHandle``; every vector is a row read from
    its store. Each phase works on the row matrices of all pairs still in
    play: one lookup of every component by id, and one batched embed of the
    components when any is missing; the sides of every pair with
    one ``side_vectors`` pass and forward extraction, with the component sims
    as row dots (``run_cosines``); one ``describe_batch`` of every non-text
    pair, bisected when it fails; one batched embed of the descriptions,
    stored in pair order; backward extraction. Only ``extract``, the gate and
    the records run per pair. A pair that fails in a phase passes through
    with its error and leaves the later phases.
    """
    pairs = list(pairs)
    if config.direction == "off":
        return [_passthrough(p, config) for p in pairs]
    results = [None] * len(pairs)

    def survivors(outcomes: dict) -> dict:
        """The outcomes that are not errors; an error passes its pair through."""
        kept = {}
        for i, outcome in outcomes.items():
            if isinstance(outcome, EmblendError):
                results[i] = _passthrough(pairs[i], config, str(outcome))
            else:
                kept[i] = outcome
        return kept

    rows, errors = _pair_rows(gating, pairs)
    live = survivors({i: errors.get(i, pair) for i, pair in enumerate(pairs)})
    trims = survivors(_forward(live, rows, config))
    if config.direction in ("backward", "bidirectional"):
        described = survivors(_describe_all(trims, describe_fn))
        texts = list(described.values())
        ids = [component_item_id(pairs[i].sample_id, "d", d) for i, d in described.items()]
        at, errors = gating.positions([(i,) for i in ids],
                                      lambda k: (EmbedItem(ids[k], "text", texts[k]),),
                                      DescriberFailure)
        # float64, so that the sims with the component rows compute in float64
        descs = gating.store.matrix[at[at >= 0]].astype(np.float64)
        embedded = survivors({i: errors.get(k, trims[i]) for k, i in enumerate(described)})
        trims = survivors(_backward(embedded, rows, descs, config))
    for i, trim in trims.items():
        results[i] = _emit(trim, config)
    return results


def calibrate_taus(samples, gating, low_pct: float = 10.0, high_pct: float = 90.0):
    """Per-modality thresholds at the midpoint of the observed similarity band.

    Forward bands come from raw-component-vs-annotation similarities, backward
    bands from annotation-sentence-vs-raw-side similarities. ``gating`` is an
    engine ``ExpertHandle``, read as in ``run_sns``; the first pair, in
    sample order, whose components cannot be embedded or whose side does not
    normalize raises its error.
    """
    samples = list(samples)
    rows, errors = _pair_rows(gating, samples)
    live = [k for k in range(len(samples)) if k not in errors]
    fwd_sims = {m: [] for m in MODALITIES}
    bwd_sims = {m: [] for m in MODALITIES}
    if live:
        (raw_at, n_raw, raw_sides), (ann_at, n_ann, ann_sides), side_errors = \
            _pair_sides([samples[k] for k in live], rows)
        errors.update((live[j], exc) for j, exc in side_errors.items())
        for k, fwd, bwd in zip(live, run_cosines(rows, raw_at, n_raw, ann_sides),
                               run_cosines(rows, ann_at, n_ann, raw_sides)):
            fwd_sims[samples[k].raw_modality].extend(fwd)
            bwd_sims[samples[k].raw_modality].extend(bwd)
    if errors:
        raise errors[min(errors)]

    def midpoint(values):
        if not values:
            return 0.0
        lo, hi = np.percentile(values, [low_pct, high_pct])
        return float((lo + hi) / 2.0)

    tau_alpha = {m: midpoint(v) for m, v in fwd_sims.items()}
    tau_beta = {m: midpoint(v) for m, v in bwd_sims.items()}
    return tau_alpha, tau_beta
