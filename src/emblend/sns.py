"""Symmetric nucleus subsampling of paired samples.

A pair is trimmed in up to two passes: forward extraction keeps raw
components most similar to the annotation; backward extraction keeps
annotation sentences grounded in a description of the (possibly trimmed)
raw side. A trimmed variant replaces the original exactly when its gate
similarity reaches ``rho`` times the original pair's similarity, so every
emitted pair is either byte-identical to its input or at least as aligned
as the gate demands.

This module holds only the algorithm: it reads the columns of a
``dataio.Corpus`` (item ids, contents, per-pair component counts) and
builds a pair only to describe or emit it; the side-mean kernel is
``geometry.side_vectors``, and a describer answers only ``describe_batch``
(``experts.PayloadDescriber``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the noqa names are re-exported: perfbench/stub.py and test_acceptance.py import them
from .dataio import Component, Corpus, PairedSample, checked_pair, component_item_id  # noqa: F401
from .errors import ConfigError, DescriberFailure, EmblendError, GatingExpertFailure, ZeroSize
from .experts import EmbedItem, PayloadDescriber  # noqa: F401
from .geometry import (MODALITIES, consecutive_runs, cosine_rows, run_cosines,  # noqa: F401
                       run_starts, side_vector, side_vectors)

DIRECTIONS = ("off", "forward", "backward", "bidirectional")


@dataclass
class SnsConfig:
    direction: str = "bidirectional"
    tau_alpha: dict[str, float] | float = 0.0  # a number fills every modality
    tau_beta: dict[str, float] | float = 0.0
    rho: float = 1.0
    reinject: bool = True

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}")
        if isinstance(self.tau_alpha, (int, float)):
            self.tau_alpha = {m: float(self.tau_alpha) for m in MODALITIES}
        if isinstance(self.tau_beta, (int, float)):
            self.tau_beta = {m: float(self.tau_beta) for m in MODALITIES}
        for tau in (*self.tau_alpha.values(), *self.tau_beta.values()):
            if not -1.0 <= tau <= 1.0:
                raise ConfigError("tau thresholds must lie in [-1, 1]")
        if self.rho < 0:
            raise ConfigError("rho must be >= 0")
        if self.reinject is not True:
            raise ConfigError("reinject must be true: an accepted variant replaces its pair")


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


def _pair_sides(corpus, live, rows):
    """For the corpus's pairs at positions ``live``, whose rows lie one after
    another, raw then annotation: the run layout and sides of their raw and
    of their annotation components, and the EmblendError of each pair (by
    position in ``live``) whose raw, else whose annotation, side does not
    normalize."""
    n_raw, n_ann = corpus.n_raw[live], corpus.n_ann[live]
    firsts = run_starts(n_raw + n_ann)
    raw = consecutive_runs(firsts, n_raw)
    ann = consecutive_runs(firsts + n_raw, n_ann)
    raw_sides, raw_errors = side_vectors(rows, *raw)
    ann_sides, ann_errors = side_vectors(rows, *ann)
    return (*raw, raw_sides), (*ann, ann_sides), {**ann_errors, **raw_errors}


@dataclass
class _Trim:
    """One pair between the phases of ``run_sns``; its annotation rows start
    at row ``ann_at``. The kept components are indices into the pair's raw
    (``cur_raw``, ``describe_base``) and annotation (``cur_ann``) sides."""

    ann_at: int
    sim_original: float
    cur_raw: range | list
    cur_raw_side: np.ndarray
    describe_base: range | list
    cur_ann: range | list
    sim_fwd: float | None = None
    fwd_accepted: bool | None = None
    sim_bwd: float | None = None
    bwd_accepted: bool | None = None


def _passthrough(pair, config, error=None):
    size = (pair.raw_bytes, pair.annotation_bytes)
    return pair, NucleusRecord(pair.sample_id, config.direction, False, None, None,
                               size, size, error=error)


def _forward(corpus, live: list, rows, config) -> dict:
    """Sides of each pair at the positions ``live``, then forward extraction
    when configured: {i: _Trim, or the EmblendError that fails pair i}.
    ``rows`` holds the pairs' rows one after another, raw then annotation."""
    if not live:
        return {}
    (raw_at, n_raw, raw_sides), (ann_at, n_ann, ann_sides), errors = _pair_sides(
        corpus, live, rows)
    # Bidirectional describes the forward-extraction output; backward-only
    # describes the original raw side.
    trims = [_Trim(at, sim, range(nr), side, range(nr), range(na))
             for at, sim, side, nr, na in zip(ann_at[run_starts(n_ann)].tolist(),
                                              cosine_rows(raw_sides, ann_sides).tolist(),
                                              raw_sides, n_raw.tolist(), n_ann.tolist())]
    if config.direction in ("forward", "bidirectional"):
        kept = [extract(sims, config.tau_alpha[corpus.modalities[i]])
                for i, sims in zip(live, run_cosines(rows, raw_at, n_raw, ann_sides))]
        nucleus_sides, nucleus_errors = side_vectors(
            rows, *_layout(raw_at[run_starts(n_raw)].tolist(), kept))
        errors = {**nucleus_errors, **errors}
        sims = cosine_rows(nucleus_sides, ann_sides).tolist()
        for t, k, side, sim in zip(trims, kept, nucleus_sides, sims):
            t.describe_base = k
            t.sim_fwd = sim
            t.fwd_accepted = mi_gate(sim, t.sim_original, config.rho)
            if t.fwd_accepted:
                t.cur_raw, t.cur_raw_side = k, side
    return {i: errors.get(k, t) for k, (i, t) in enumerate(zip(live, trims))}


def _backward(corpus, trims: dict, rows, descs, config) -> dict:
    """Backward extraction of each trim against its description's stored row
    (``descs``, one row per trim in order): {i: the trim, or the EmblendError
    that fails pair i}."""
    if not trims:
        return {}
    firsts = [t.ann_at for t in trims.values()]
    ann = consecutive_runs(firsts, corpus.n_ann[list(trims)])
    kept = [extract(sims, config.tau_beta[corpus.modalities[i]])
            for i, sims in zip(trims, run_cosines(rows, *ann, descs))]
    sides, errors = side_vectors(rows, *_layout(firsts, kept))
    cur_raw_sides = np.array([t.cur_raw_side for t in trims.values()])
    for t, k, sim in zip(trims.values(), kept, cosine_rows(cur_raw_sides, sides).tolist()):
        t.sim_bwd = sim
        t.bwd_accepted = mi_gate(sim, t.sim_original, config.rho)
        if t.bwd_accepted:
            t.cur_ann = k
    return {i: errors.get(k, t) for k, (i, t) in enumerate(trims.items())}


def _emit(pair: PairedSample, trim: _Trim, config):
    """The emitted pair and its record. A variant keeps the checked
    components of ``pair`` and is built without checking them again; a
    trimmed annotation reads as its sentences joined by newlines."""
    sim_fwd, fwd_accepted = trim.sim_fwd, trim.fwd_accepted
    sim_bwd, bwd_accepted = trim.sim_bwd, trim.bwd_accepted
    accepted = bool(fwd_accepted) or bool(bwd_accepted)
    emitted = pair
    if accepted:
        ann = tuple(pair.annotation_components[j] for j in trim.cur_ann)
        text = (pair.annotation_text if len(ann) == len(pair.annotation_components)
                else "\n".join(c.content for c in ann))
        emitted = checked_pair(**vars(pair) | {
            "raw_components": tuple(pair.raw_components[j] for j in trim.cur_raw),
            "annotation_components": ann, "annotation_text": text})
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
    return run_sns(Corpus.from_pairs([pair]), config, gating, describe_fn)[0]


def _pair_rows(gating, corpus):
    """The stored rows of every pair's components, raw then annotation, one
    pair after another, at storage precision; the rows of a pair whose
    components cannot be embedded are left out, and its
    ``GatingExpertFailure`` is given by position."""
    at, errors = gating.positions(corpus.item_ids, corpus.n_raw + corpus.n_ann, corpus.items,
                                  GatingExpertFailure)
    return gating.store.matrix[at[at >= 0]], errors


def _describe_all(corpus, trims: dict, describe_fn) -> dict:
    """The description, or the EmblendError raised for it, of every pair, in
    order.

    Text raw data is its own description. Every other pair goes to one
    ``describe_fn.describe_batch``; a batch that fails is split into halves,
    each retried as a batch, down to single pairs, which keep their own error.
    """
    out, media = dict.fromkeys(trims), {}
    for i, t in trims.items():
        modality = corpus.modalities[i]
        if modality == "text":
            lo = int(corpus.starts[i])
            out[i] = " ".join(corpus.contents[lo + j] for j in t.describe_base)
        elif describe_fn is None:
            out[i] = DescriberFailure(f"modality {modality!r} needs a describer "
                                      "for backward extraction")
        else:
            pair = corpus[i]
            media[i] = (pair, [pair.raw_components[j] for j in t.describe_base])

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


def run_sns(corpus, config: SnsConfig, gating, describe_fn=None) -> list:
    """``apply_sns`` over every pair of a ``Corpus``: the (emitted_pair,
    NucleusRecord) of each.

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
    if config.direction == "off":
        return [_passthrough(pair, config) for pair in corpus]
    for key, used in (("tau_alpha", "forward"), ("tau_beta", "backward")):
        missing = sorted(set(corpus.modalities) - set(getattr(config, key)))
        if missing and config.direction in (used, "bidirectional"):
            raise ConfigError(f"sns {key} has no threshold for modality {missing[0]!r}")
    results = [None] * len(corpus)

    def survivors(outcomes: dict) -> dict:
        """The outcomes that are not errors; an error passes its pair through."""
        kept = {}
        for i, outcome in outcomes.items():
            if isinstance(outcome, EmblendError):
                results[i] = _passthrough(corpus[i], config, str(outcome))
            else:
                kept[i] = outcome
        return kept

    rows, errors = _pair_rows(gating, corpus)
    survivors(errors)
    trims = survivors(_forward(corpus, [i for i in range(len(corpus)) if i not in errors],
                               rows, config))
    if config.direction in ("backward", "bidirectional"):
        described = survivors(_describe_all(corpus, trims, describe_fn))
        texts = list(described.values())
        ids = [component_item_id(corpus.sample_ids[i], "d", d) for i, d in described.items()]
        at, errors = gating.positions(ids, [1] * len(ids),
                                      lambda k: (EmbedItem(ids[k], "text", texts[k]),),
                                      DescriberFailure)
        # float64, so that the sims with the component rows compute in float64
        descs = gating.store.matrix[at[at >= 0]].astype(np.float64)
        embedded = survivors({i: errors.get(k, trims[i]) for k, i in enumerate(described)})
        trims = survivors(_backward(corpus, embedded, rows, descs, config))
    for i, trim in trims.items():
        results[i] = _emit(corpus[i], trim, config)
    return results


def calibrate_taus(corpus, gating, low_pct: float = 10.0, high_pct: float = 90.0):
    """Per-modality thresholds at the midpoint of the observed similarity band.

    Forward bands come from raw-component-vs-annotation similarities, backward
    bands from annotation-sentence-vs-raw-side similarities, over the pairs
    of a ``Corpus``. ``gating`` is an engine ``ExpertHandle``, read as in
    ``run_sns``; the first pair, in sample order, whose components cannot be
    embedded or whose side does not normalize raises its error.
    """
    rows, errors = _pair_rows(gating, corpus)
    live = [k for k in range(len(corpus)) if k not in errors]
    fwd_sims = {m: [] for m in MODALITIES}
    bwd_sims = {m: [] for m in MODALITIES}
    if live:
        (raw_at, n_raw, raw_sides), (ann_at, n_ann, ann_sides), side_errors = \
            _pair_sides(corpus, live, rows)
        errors.update((live[j], exc) for j, exc in side_errors.items())
        for k, fwd, bwd in zip(live, run_cosines(rows, raw_at, n_raw, ann_sides),
                               run_cosines(rows, ann_at, n_ann, raw_sides)):
            fwd_sims[corpus.modalities[k]].extend(fwd)
            bwd_sims[corpus.modalities[k]].extend(bwd)
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
