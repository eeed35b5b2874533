"""References the tests compare emblend against: single-item paths that
left ``src/`` (the synthetic expert's payloads and rows among them), the
corpus read one ``PairedSample`` at a time with its item ids per pair, the
routes stored rows were read along before ``ExpertHandle.positions`` became
the one read path, the store's index as one tuple-keyed dict, SNS and its
threshold calibration one pair at a time, the projection step's modality
groups one group at a time, the training step as first written, the
heuristic filter and k-means as first written, the brute-force oracles of
the distance, k-means, dedup and ranking kernels, and those kernels' earlier
forms: the distance tiles before the doubled product, and recall as two
products.

Each is written one item, one group or one sample at a time, as it was in
``src/``; only the tests import this module.
"""
import hashlib
import json
import re
from dataclasses import replace
from operator import attrgetter

import numpy as np

from emblend.curation import FilterReport
from emblend.dataio import (Component, PairedSample, component_item_id, sample_to_record,
                            segment_text)
from emblend.engine import DEFAULT_BATCH, SLICE_BATCHES
from emblend.errors import DescriberFailure, DimMismatch, EmblendError, EmptyModality, \
    EmptySet, GatingExpertFailure, InvariantViolation, ParseError, UnsupportedModality
from emblend.experts import (EmbedItem, _generate_rows, _hash_rows, _NoiseStream, _payload_bytes,
                             _payload_values, encode_payload)
from emblend.geometry import MODALITIES, cosine_sim, normalize, side_vector, side_vectors
from emblend.kernels import TILE_ROWS, gram, kmeans_assign
from emblend.projection import _Optimizer, forward
from emblend.retrieval import RANK_BLOCK, RetrievalIndex
from emblend.sns import NucleusRecord, extract, mi_gate

# -- the corpus one pair at a time -----------------------------------------------


def _components_from(value, segment: bool):
    if isinstance(value, list):
        return [Component(str(v)) for v in value], True
    text = str(value)
    if segment:
        return [Component(c) for c in segment_text(text)], False
    return ([Component(text)] if text else []), False


def sample_from_record(rec: dict) -> PairedSample:
    """The checked ``PairedSample`` of one corpus record."""
    sample_id = rec.get("sample_id")
    if not sample_id:
        raise InvariantViolation("record is missing sample_id")
    modality = rec.get("modality")
    raw_value = rec.get("components", rec.get("raw"))
    if raw_value is None:
        raise InvariantViolation("record has no raw side", sample_id)
    ann_value = rec.get("annotation")
    if ann_value is None:
        raise InvariantViolation("record has no annotation side", sample_id)
    raw_components, presegmented = _components_from(raw_value, segment=(modality == "text"))
    presegmented = presegmented or "components" in rec
    ann_components, _ = _components_from(ann_value, segment=True)
    return PairedSample(
        sample_id=str(sample_id),
        pool_id=str(rec.get("pool_id", "default")),
        raw_modality=str(modality),
        raw_components=raw_components,
        annotation_components=ann_components,
        presegmented=presegmented,
        annotation_text="" if isinstance(ann_value, list) else str(ann_value),
        media_ref=rec.get("media_ref"),
    )


def ingest_pairs(path) -> list:
    """A JSONL corpus parsed into a list of checked PairedSamples."""
    samples = []
    seen = set()
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError("line is not valid UTF-8", line=lineno) from None
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(exc), line=lineno)
            if not isinstance(rec, dict):
                raise ParseError("record is not a JSON object", line=lineno)
            sample = sample_from_record(rec)
            if sample.sample_id in seen:
                raise InvariantViolation("duplicate sample_id", sample.sample_id)
            seen.add(sample.sample_id)
            samples.append(sample)
    return samples


def side_ids(pair, side: str) -> tuple:
    """Item ids of one side's components."""
    components, tag = ((pair.raw_components, "r") if side == "raw"
                       else (pair.annotation_components, "a"))
    return tuple(component_item_id(pair.sample_id, tag, c.content) for c in components)


def side_items(pair, side: str) -> tuple:
    """Items of one side's components: raw keeps the pair's modality, the
    annotation side is text."""
    components, modality = ((pair.raw_components, pair.raw_modality) if side == "raw"
                            else (pair.annotation_components, "text"))
    return tuple(EmbedItem(item_id, modality, c.content)
                 for item_id, c in zip(side_ids(pair, side), components))


def pair_ids(pair) -> tuple:
    """Raw, then annotation component item ids of one pair."""
    return side_ids(pair, "raw") + side_ids(pair, "annotation")


def pair_items(pair) -> tuple:
    """Raw, then annotation component items of one pair."""
    return side_items(pair, "raw") + side_items(pair, "annotation")


# -- single-item paths ---------------------------------------------------------


def synthetic_generate(config, semantic_payload, modality: str, item_id: str = "") -> np.ndarray:
    """normalize(pad(payload) + gap * offset[modality] + noise keyed by (seed, item_id))."""
    payload = np.asarray(semantic_payload, dtype=np.float64)
    if payload.shape != (config.semantic_dim,):
        raise DimMismatch(
            f"payload has {payload.shape} entries, expected ({config.semantic_dim},)")
    vecs = np.zeros((1, config.dim))
    vecs[0, : config.semantic_dim] = payload
    return _generate_rows(config, vecs, [modality], [item_id], _NoiseStream())[0]


def spread(vectors, center) -> float:
    """Mean Euclidean distance of the vectors from ``center``."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 0)
    if arr.shape[0] == 0:
        raise EmptySet("spread of empty set")
    center = np.asarray(center, dtype=np.float64)
    if center.shape[0] != arr.shape[1]:
        raise DimMismatch(f"spread: center dim {center.shape[0]} vs vectors dim {arr.shape[1]}")
    return float(np.linalg.norm(arr - center, axis=1).mean())


def decode_payload(content: str) -> np.ndarray | None:
    """Parse ``@vec:`` content into a float64 vector, or None for plain text."""
    raw = _payload_bytes(content)
    return None if raw is None else _payload_values(raw)


def hash_payload(text: str, semantic_dim: int) -> np.ndarray:
    """Deterministic token feature-hash into a unit vector of semantic_dim."""
    return _hash_rows([text], semantic_dim)[0]


def payload_describe(semantic_dim: int, pair, components) -> str:
    """``PayloadDescriber``'s text for one (pair, components) request, one
    component and one mean at a time."""
    payloads = []
    for comp in components:
        vec = decode_payload(comp.content)
        if vec is None:
            vec = hash_payload(comp.content, semantic_dim)
        elif vec.shape[0] != semantic_dim:
            raise DescriberFailure(f"component payload dim {vec.shape[0]} != {semantic_dim}")
        payloads.append(vec)
    try:
        mean = normalize(np.mean(payloads, axis=0))
    except EmblendError as exc:
        raise DescriberFailure(f"degenerate payload mean: {exc}") from exc
    return encode_payload(mean)


class TableDescriber:
    """Fixture describer: looks descriptions up by sample id; a batch with a
    pair the table lacks fails."""

    def __init__(self, table: dict):
        self.table = dict(table)

    def describe_batch(self, requests) -> list:
        missing = [pair.sample_id for pair, _ in requests if pair.sample_id not in self.table]
        if missing:
            raise DescriberFailure(f"no description for sample {missing[0]!r}")
        return [self.table[pair.sample_id] for pair, _ in requests]


def reference_normalize(v):
    v = np.asarray(v, dtype=np.float64)
    return v / float(np.linalg.norm(v))


def reference_hash_payload(text, semantic_dim):
    vec = np.zeros(semantic_dim)
    for tok in re.findall(r"\w+", text.lower()) or [text]:
        digest = hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
        vec[int.from_bytes(digest[:4], "little") % semantic_dim] += 1.0 if digest[4] & 1 else -1.0
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        vec[:] = 0.0
        vec[0] = 1.0
        return vec
    return vec / norm


def reference_generate(cfg, payload, modality, item_id):
    """synthetic_generate as a per-item path: a fresh Philox(key=...) per item."""
    vec = np.zeros(cfg.dim)
    vec[: cfg.semantic_dim] = payload
    if cfg.gap_magnitude > 0:
        vec = vec + cfg.gap_magnitude * cfg.modality_offsets[modality]
    if cfg.noise_sigma > 0:
        digest = hashlib.blake2b(f"{cfg.seed}|{item_id}".encode("utf-8"), digest_size=16).digest()
        rng = np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little")))
        vec = vec + rng.normal(0.0, cfg.noise_sigma, cfg.dim)
    return reference_normalize(vec)


def reference_embed(cfg, item):
    """normalize(synthetic_generate(payload)) with np.linalg.norm throughout."""
    explicit = decode_payload(item.content)
    if explicit is not None:
        payload = reference_normalize(explicit)
    else:
        payload = reference_hash_payload(item.content, cfg.semantic_dim)
    return reference_normalize(reference_generate(cfg, payload, item.modality, item.item_id))


def item_by_item_payloads(expert, items):
    """The payloads of the old per-item loop, in batch order: each item's
    modality check, then its @vec payload decoded, length-checked and
    normalized, or its text hashed. Raises the first failing item's error."""
    sd = expert.config.semantic_dim
    payloads = []
    for it in items:
        if it.modality not in expert.modalities:
            raise UnsupportedModality(
                f"expert {expert.expert_id!r} does not support {it.modality!r}")
        explicit = decode_payload(it.content)
        if explicit is None:
            payloads.append(reference_hash_payload(it.content, sd))
        elif explicit.shape != (sd,):
            raise DimMismatch(f"@vec payload has {explicit.shape[0]} entries, expected {sd}")
        else:
            payloads.append(normalize(explicit))
    return payloads



# -- the read routes before ExpertHandle.positions -----------------------------


def missing(store, items, expert_id: str) -> list:
    """The items whose key the store lacks, the first of each id, in order."""
    absent = {}
    for it in items:
        if (it.item_id, expert_id) not in store:
            absent.setdefault(it.item_id, it)
    return list(absent.values())


def resolve(handle, items) -> None:
    """Embed and store every item whose key the handle's store lacks.

    Slices written before a failing one stay stored.
    """
    absent = missing(handle.store, items, handle.expert_id)
    step = SLICE_BATCHES * getattr(handle.expert, "batch_size", DEFAULT_BATCH)
    for start in range(0, len(absent), step):
        chunk = absent[start:start + step]
        handle.store.put_many(handle.expert_id, chunk, handle.expert.embed_batch(chunk))


def rows(handle, items) -> np.ndarray:
    """Stored float64 values of the items, one row each, embedding misses first."""
    resolve(handle, items)
    return handle.store.rows(map(attrgetter("item_id"), items), handle.expert_id)


def stored_rows(gating, groups, failure):
    """The stored float64 rows of every group of items that can be embedded,
    one group after another, and the ``failure`` raised for each other
    group, by position.

    One batched ``resolve`` embeds every group's missing items; when it
    fails, what it left missing is embedded group by group, so a group fails
    alone.
    """
    errors = {}
    try:
        resolve(gating, [it for group in groups for it in group])
    except EmblendError:
        for k, group in enumerate(groups):
            try:
                resolve(gating, group)
            except EmblendError as exc:
                errors[k] = failure(str(exc))
    out = rows(gating, [it for k, group in enumerate(groups) if k not in errors for it in group])
    return out, errors


def item_pair_rows(gating, pairs):
    """SNS's component rows with every pair's items built and sent through
    ``stored_rows``."""
    return stored_rows(gating, [pair_items(p) for p in pairs], GatingExpertFailure)


def item_positions(handle, ids, counts, items, failure=None):
    """``ExpertHandle.positions`` along the old routes: every group's items
    built and sent through ``resolve``, or ``stored_rows`` with ``failure``;
    the rows are then looked up by id, -1 for a failed group."""
    built = [items(k) for k in range(len(counts))]
    errors = {}
    if failure is None:
        resolve(handle, [it for group in built for it in group])
    else:
        _, errors = stored_rows(handle, built, failure)
    at = handle.store.find(list(ids), handle.expert_id)
    starts = np.cumsum([0, *counts])
    for k in errors:
        at[starts[k]:starts[k + 1]] = -1
    return at, errors


def item_gather_side_matrix(engine, corpus, side, expert_id):
    """``Engine.side_matrix`` as it was before rows were read by position:
    every pair's side items resolved through the handle, gathered as float64
    rows, then ``side_vectors``."""
    groups = [side_items(s, side) for s in corpus]
    gathered = rows(engine.handles[expert_id], [it for group in groups for it in group])
    sides, errors = side_vectors(gathered, np.arange(len(gathered)),
                                 np.array([len(group) for group in groups], dtype=np.intp))
    if errors:
        raise errors[min(errors)]
    return sides


def item_populate_caches(engine, corpus) -> dict:
    """``Engine.populate_caches`` with every pair's component items built
    and resolved through each expert's handle."""
    items = [it for s in corpus for it in pair_items(s)]
    for eid in engine.expert_order:
        resolve(engine.handles[eid], items)
    return {eid: len(items) for eid in engine.expert_order}


def reference_side(engine, samples, side, expert_id):
    """Per-sample side_vector over values read back one item at a time."""
    handle = engine.handles[expert_id]
    rows = []
    for s in samples:
        vecs = []
        for item in side_items(s, side):
            stored = handle.store.get(item.item_id, expert_id)
            vecs.append((stored or handle.expert.embed(item)).values)
        rows.append(side_vector(vecs))
    return np.vstack(rows)


def tuple_keyed_merge(batches):
    """Oracle: the store's index as one dict from (item_id, expert_id) to row,
    taking records in order: a new key takes the next row, and a key's last
    record gives its value and modality."""
    index, values, modalities = {}, {}, {}
    for expert_id, items, block in batches:
        for it, v in zip(items, block):
            key = (it.item_id, expert_id)
            index.setdefault(key, len(index))
            values[key], modalities[key] = v, it.modality
    return index, values, modalities



# -- SNS one pair at a time ------------------------------------------------------


def embedded_each(expert):
    """A row source for ``reference_sns``: each item embedded on its own by a
    bare expert."""
    return lambda items: np.array([expert.embed(it).values for it in items])


def emitted_pair(pair, raw, ann):
    """The pair with the kept components, rebuilt and checked by
    ``dataclasses.replace``. A trimmed annotation carries the text its corpus
    record reads back as; an untrimmed one keeps the pair's."""
    emitted = replace(pair, raw_components=tuple(raw), annotation_components=tuple(ann))
    if len(ann) < len(pair.annotation_components):
        emitted = replace(emitted, annotation_text=sample_from_record(
            sample_to_record(emitted)).annotation_text)
    return emitted


def reference_sns(pair, config, read, describe_fn=None):
    """SNS of one pair: every side a ``side_vector`` and every similarity a
    ``cosine_sim``, one component at a time. Returns (emitted_pair,
    NucleusRecord).

    ``read(items)`` returns the items' rows, one each, or raises the
    EmblendError that fails them: for the pair's components it fails the pair
    as ``GatingExpertFailure``, for its description as ``DescriberFailure``.
    Tests pass a bare expert's rows (``embedded_each``) or a handle's stored
    rows (``partial(rows, handle)``).
    """
    size = (pair.raw_bytes, pair.annotation_bytes)

    def passthrough(error=None):
        return pair, NucleusRecord(pair.sample_id, config.direction, False, None, None,
                                   size, size, error=error)

    def rows_of(items, failure):
        try:
            return np.asarray(read(items))
        except EmblendError as exc:
            raise failure(str(exc)) from exc

    if config.direction == "off":
        return passthrough()
    try:
        raw_rows, ann_rows = np.split(rows_of(pair_items(pair), GatingExpertFailure),
                                      [len(pair.raw_components)])
        raw_side, ann_side = side_vector(raw_rows), side_vector(ann_rows)
        sim_original = cosine_sim(raw_side, ann_side)
        cur_raw, cur_raw_side = list(pair.raw_components), raw_side
        describe_base = list(pair.raw_components)
        sim_fwd = fwd_accepted = None
        if config.direction in ("forward", "bidirectional"):
            kept = extract([cosine_sim(v, ann_side) for v in raw_rows],
                           config.tau_alpha[pair.raw_modality])
            nucleus_raw = [pair.raw_components[i] for i in kept]
            nucleus_raw_side = side_vector(raw_rows[kept])
            describe_base = nucleus_raw
            sim_fwd = cosine_sim(nucleus_raw_side, ann_side)
            fwd_accepted = mi_gate(sim_fwd, sim_original, config.rho)
            if fwd_accepted:
                cur_raw, cur_raw_side = nucleus_raw, nucleus_raw_side
        cur_ann = list(pair.annotation_components)
        sim_bwd = bwd_accepted = None
        if config.direction in ("backward", "bidirectional"):
            if pair.raw_modality == "text":
                description = " ".join(c.content for c in describe_base)
            elif describe_fn is None:
                raise DescriberFailure(f"modality {pair.raw_modality!r} needs a describer "
                                       "for backward extraction")
            else:
                description = describe_fn.describe_batch([(pair, describe_base)])[0]
            item = EmbedItem(component_item_id(pair.sample_id, "d", description), "text",
                             description)
            [desc_row] = rows_of([item], DescriberFailure)
            kept = extract([cosine_sim(desc_row, v) for v in ann_rows],
                           config.tau_beta[pair.raw_modality])
            sim_bwd = cosine_sim(cur_raw_side, side_vector(ann_rows[kept]))
            bwd_accepted = mi_gate(sim_bwd, sim_original, config.rho)
            if bwd_accepted:
                cur_ann = [pair.annotation_components[j] for j in kept]
    except EmblendError as exc:
        return passthrough(str(exc))

    accepted = bool(fwd_accepted) or bool(bwd_accepted)
    emitted = emitted_pair(pair, cur_raw, cur_ann) if accepted else pair
    if bwd_accepted:
        sim_variant = sim_bwd
    elif fwd_accepted:
        sim_variant = sim_fwd
    else:
        sim_variant = sim_bwd if sim_bwd is not None else sim_fwd
    return emitted, NucleusRecord(
        pair.sample_id, config.direction, accepted, sim_original, sim_variant, size,
        (emitted.raw_bytes, emitted.annotation_bytes), sim_forward=sim_fwd,
        sim_backward=sim_bwd, forward_accepted=fwd_accepted, backward_accepted=bwd_accepted)


def reference_taus(pairs, expert, low_pct=10.0, high_pct=90.0):
    """``calibrate_taus`` one pair and one component at a time, every row
    embedded on its own by a bare expert: (tau_alpha, tau_beta)."""
    fwd_sims = {m: [] for m in MODALITIES}
    bwd_sims = {m: [] for m in MODALITIES}
    read = embedded_each(expert)
    for pair in pairs:
        raw_vecs = read(side_items(pair, "raw"))
        ann_vecs = read(side_items(pair, "annotation"))
        ann_side, raw_side = side_vector(ann_vecs), side_vector(raw_vecs)
        fwd_sims[pair.raw_modality].extend(cosine_sim(v, ann_side) for v in raw_vecs)
        bwd_sims[pair.raw_modality].extend(cosine_sim(raw_side, v) for v in ann_vecs)

    def midpoint(values):
        if not values:
            return 0.0
        lo, hi = np.percentile(values, [low_pct, high_pct])
        return float((lo + hi) / 2.0)

    return ({m: midpoint(v) for m, v in fwd_sims.items()},
            {m: midpoint(v) for m, v in bwd_sims.items()})


# -- the projection step's modality groups -------------------------------------


def group_indices(codes, n_anchor):
    """Group rows of the stacked (fused + anchor) cloud by modality code, in
    first-occurrence order; the anchor rows join ``text``, which goes last
    when no fused row carries it. Returns (rows, fused rows) per group."""
    n_fused = codes.shape[0]
    anchor_rows = np.arange(n_fused, n_fused + n_anchor)
    present, first = np.unique(codes, return_index=True)
    groups = []
    for code in present[np.argsort(first)]:
        rows = np.flatnonzero(codes == code)
        groups.append((np.concatenate([rows, anchor_rows]) if code == 0 else rows, rows))
    if present[0] != 0:
        groups.append((anchor_rows, anchor_rows[:0]))
    return groups


def loss_scale(groups: dict) -> float:
    """Sum of |group spread - overall spread| over modality groups."""
    mats = {m: np.atleast_2d(np.asarray(g, dtype=np.float64)) for m, g in groups.items()}
    for m, g in mats.items():
        if g.shape[0] == 0:
            raise EmptyModality(f"modality {m!r} group is empty")
    points = np.concatenate(list(mats.values()), axis=0)
    mu = points.mean(axis=0)
    sigma = np.linalg.norm(points - mu, axis=1).mean()
    total = 0.0
    for g in mats.values():
        mu_m = g.mean(axis=0)
        sigma_m = np.linalg.norm(g - mu_m, axis=1).mean()
        total += abs(sigma_m - sigma)
    return float(total)


# -- the training step as first written ------------------------------------------
#
# A boolean-mask sigmoid, the full log-probability matrix, concatenated logit
# blocks, separate L_cluster and L_scale passes and string grouping on every
# step; ``ref_train`` updates through emblend's Adam.


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_softmax_xent(logits):
    n = logits.shape[0]
    row_max = logits.max(axis=1, keepdims=True)
    expz = np.exp(logits - row_max)
    denom = expz.sum(axis=1, keepdims=True)
    log_probs = (logits - row_max) - np.log(denom)
    loss = -np.diag(log_probs).mean()
    dlogits = expz / denom
    dlogits[np.arange(n), np.arange(n)] -= 1.0
    dlogits /= n
    return loss, dlogits


def ref_task_loss_grad(fused, anchors, weights):
    n = fused.shape[0]
    tau = weights.temperature
    logits_a = fused @ anchors.T / tau
    if weights.include_fused_negatives:
        logits_f = fused @ fused.T / tau
        np.fill_diagonal(logits_f, -np.inf)
        loss, dlogits = ref_softmax_xent(np.concatenate([logits_a, logits_f], axis=1))
        da, df_part = dlogits[:, :n], dlogits[:, n:]
        np.fill_diagonal(df_part, 0.0)
        grad = da @ anchors / tau + df_part @ fused / tau + df_part.T @ fused / tau
        return loss, grad
    loss, dlogits = ref_softmax_xent(logits_a)
    return loss, dlogits @ anchors / tau


def ref_group_indices(n_fused, n_anchor, modalities):
    groups = {}
    for i, m in enumerate(modalities):
        groups.setdefault(m, []).append(i)
    groups.setdefault("text", [])
    groups["text"].extend(range(n_fused, n_fused + n_anchor))
    return {m: np.asarray(ix, dtype=np.int64) for m, ix in groups.items() if len(ix)}


def ref_cluster_loss_grad(points, groups, n_fused):
    n = points.shape[0]
    mu = points.mean(axis=0)
    loss = 0.0
    sum_dev = np.zeros_like(mu)
    grad = np.zeros((n_fused, points.shape[1]))
    for idx in groups.values():
        mu_m = points[idx].mean(axis=0)
        dev = mu_m - mu
        loss += float(dev @ dev)
        sum_dev += dev
        fused_idx = idx[idx < n_fused]
        if fused_idx.size:
            grad[fused_idx] += 2.0 * dev / idx.size
    grad -= 2.0 * sum_dev / n
    return loss, grad


def ref_scale_loss_grad(points, groups, n_fused):
    n, d = points.shape
    mu = points.mean(axis=0)
    diff = points - mu
    dist = np.linalg.norm(diff, axis=1)
    unit = np.divide(diff, dist[:, None], out=np.zeros_like(diff), where=dist[:, None] > 0)
    sigma = dist.mean()
    d_sigma = (unit - unit.mean(axis=0)) / n
    loss = 0.0
    sign_total = 0.0
    grad = np.zeros((n_fused, d))
    for idx in groups.values():
        mu_m = points[idx].mean(axis=0)
        diff_m = points[idx] - mu_m
        dist_m = np.linalg.norm(diff_m, axis=1)
        unit_m = np.divide(diff_m, dist_m[:, None], out=np.zeros_like(diff_m),
                           where=dist_m[:, None] > 0)
        sigma_m = dist_m.mean()
        s = np.sign(sigma_m - sigma)
        loss += abs(sigma_m - sigma)
        sign_total += s
        if s != 0:
            d_sigma_m = (unit_m - unit_m.mean(axis=0)) / idx.size
            inside = idx < n_fused
            if inside.any():
                grad[idx[inside]] += s * d_sigma_m[inside]
    grad -= sign_total * d_sigma[:n_fused]
    return float(loss), grad


def ref_backward(model, inputs, anchors, modalities, weights):
    fused, (activations, pre_acts, norms) = forward(model, inputs)
    n = fused.shape[0]
    d_fused = np.zeros_like(fused)
    l_task = l_cluster = l_scale = 0.0
    if weights.lambda_task > 0:
        l_task, g = ref_task_loss_grad(fused, anchors, weights)
        d_fused += weights.lambda_task * g
    if weights.lambda_cluster > 0 or weights.lambda_scale > 0:
        points = np.concatenate([fused, anchors], axis=0)
        groups = ref_group_indices(n, anchors.shape[0], modalities)
        if weights.lambda_cluster > 0:
            l_cluster, g = ref_cluster_loss_grad(points, groups, n)
            d_fused += weights.lambda_cluster * g
        if weights.lambda_scale > 0:
            l_scale, g = ref_scale_loss_grad(points, groups, n)
            d_fused += weights.lambda_scale * g
    total = (weights.lambda_task * l_task + weights.lambda_cluster * l_cluster
             + weights.lambda_scale * l_scale)
    breakdown = {"L_task": float(l_task), "L_cluster": float(l_cluster),
                 "L_scale": float(l_scale), "L_total": float(total)}
    inner = np.sum(fused * d_fused, axis=1, keepdims=True)
    delta = (d_fused - fused * inner) / norms
    grad_w = [None] * model.layer_count
    grad_b = [None] * model.layer_count
    for layer in range(model.layer_count - 1, -1, -1):
        grad_w[layer] = delta.T @ activations[layer]
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * ref_sigmoid(pre_acts[layer - 1])
    return grad_w, grad_b, breakdown


def ref_train(inputs, anchors, modalities, model, cfg, weights):
    model = model.copy()
    n = inputs.shape[0]
    batch = min(cfg.batch_size, n)
    params = model.weights + model.biases
    opt = _Optimizer(cfg.learning_rate, [p.shape for p in params])
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    order = np.arange(n)
    cursor = n
    log = []
    for step in range(cfg.step_count):
        if cursor + batch > n:
            order = rng.permutation(n)
            cursor = 0
        take = order[cursor:cursor + batch]
        cursor += batch
        grad_w, grad_b, breakdown = ref_backward(
            model, inputs[take], anchors[take], [modalities[i] for i in take], weights)
        opt.update(params, grad_w + grad_b)
        log.append({"step": step, **breakdown})
    return model, log


# -- kernel, curation and retrieval oracles -------------------------------------

def group_stats_oracle(x, labels, n_groups):
    intra_sum = np.zeros(n_groups)
    intra_cnt = np.zeros(n_groups, dtype=np.int64)
    inter_sum = np.zeros((n_groups, n_groups))
    inter_cnt = np.zeros((n_groups, n_groups), dtype=np.int64)
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dist = np.linalg.norm(x[i] - x[j])
            gi, gj = labels[i], labels[j]
            if gi == gj:
                intra_sum[gi] += dist
                intra_cnt[gi] += 1
            else:
                a, b = min(gi, gj), max(gi, gj)
                inter_sum[a, b] += dist
                inter_cnt[a, b] += 1
    return intra_sum, intra_cnt, inter_sum, inter_cnt


def dedup_oracle(x, eps):
    """Plain-Python greedy scan with explicit dot products against kept rows."""
    kept, keep = [], []
    for row in x.tolist():
        dup = any(1.0 - sum(a * b for a, b in zip(row, k)) <= eps + 1e-12 for k in kept)
        keep.append(not dup)
        if not dup:
            kept.append(row)
    return np.array(keep)


def kmeans_assign_oracle(x, centroids):
    """``kernels.kmeans_assign`` as one expression, before it worked in place."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    sq_x = np.einsum("ij,ij->i", x, x)
    sq_c = np.einsum("ij,ij->i", centroids, centroids)
    d2 = sq_x[:, None] - 2.0 * (x @ centroids.T) + sq_c[None, :]
    return np.argmin(d2, axis=1).astype(np.int64)


def heuristic_filter_oracle(text, config, sample_id=""):
    """``heuristic_filter`` as first written: one pass per character over the
    non-whitespace characters."""
    failed, measured = [], {}
    if not text.strip():
        return FilterReport(sample_id, False, ["empty_text"], {})
    non_ws = [c for c in text if not c.isspace()]
    non_alnum = sum(1 for c in non_ws if not c.isalnum())
    ratio = non_alnum / len(non_ws)
    measured["non_alnum_ratio"] = ratio
    if ratio > config.max_non_alnum_ratio:
        failed.append("non_alnum_ratio")
    lines = text.split("\n")
    repeated = 1.0 - len(set(lines)) / len(lines)
    measured["repeated_line_fraction"] = repeated
    if repeated > config.max_repeated_line_fraction:
        failed.append("repeated_line_fraction")
    lowered = text.lower()
    hits = [b for b in config.boilerplate if b.lower() in lowered]
    measured["boilerplate_hits"] = hits
    if hits:
        failed.append("boilerplate")
    return FilterReport(sample_id, not failed, failed, measured)


def kmeans_oracle(x, k, seed, max_iter=50, tol=1e-6):
    """``kmeans`` as first written: one boolean mask per cluster per iteration."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    gen = np.random.Generator(np.random.PCG64(seed))
    order = gen.permutation(n)
    chosen, seen = [], set()
    for i in order:
        key = x[i].tobytes()
        if key not in seen:
            seen.add(key)
            chosen.append(i)
        if len(chosen) == k:
            break
    for i in order:
        if len(chosen) == k:
            break
        if i not in chosen:
            chosen.append(i)
    centroids = x[np.asarray(chosen[:k])].copy()
    for _ in range(max_iter):
        labels = kmeans_assign(x, centroids)
        new_centroids = centroids.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centroids[j] = x[members].mean(axis=0)
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift <= tol:
            break
    return kmeans_assign(x, centroids), centroids



def sort_oracle(ids, matrix, query, k):
    """Independent full-sort ranking with the same tie rule."""
    sims = matrix @ query
    order = sorted(range(len(ids)), key=lambda i: (-sims[i], ids[i]))
    return [(ids[i], float(sims[i])) for i in order[:k]]


def blockwise_partner_ranks(queries, partner_ids, index):
    """Oracle: the rank pass as first vectorized, with the id comparison of
    tied candidates in every row of every block."""
    pos = {sid: i for i, sid in enumerate(index.ids)}
    cols = np.array([pos[pid] for pid in partner_ids], dtype=np.intp)
    id_rank = np.empty(len(index), dtype=np.intp)
    id_rank[np.argsort(np.asarray(index.ids))] = np.arange(len(index))
    sims = queries @ index.matrix.T
    ranks = np.empty(cols.size, dtype=np.int64)
    for start in range(0, cols.size, RANK_BLOCK):
        block = slice(start, start + RANK_BLOCK)
        row_sims, col = sims[block], cols[block]
        sp = row_sims[np.arange(col.size), col][:, None]
        tied_before = (row_sims == sp) & (id_rank < id_rank[col][:, None])
        ranks[block] = (1 + np.count_nonzero(row_sims > sp, axis=1)
                        + np.count_nonzero(tied_before, axis=1))
    return ranks


def _masked_distance_sum(gram, sq_rows, sq_cols, upper):
    """``kernels._distance_sum`` before the doubled product and the tile
    buffer: each tile doubles its Gram rows in place, takes a fresh d2, and
    gathers the upper triangle through a boolean mask."""
    n_rows, n_cols = gram.shape
    flat = gram.reshape(-1)
    cols = np.arange(n_cols)
    pos = 0
    for r0 in range(0, n_rows, TILE_ROWS):
        r1 = min(r0 + TILE_ROWS, n_rows)
        c0 = r0 + 1 if upper else 0
        g = gram[r0:r1, c0:]
        g *= 2.0
        d2 = sq_rows[r0:r1, None] + sq_cols[None, c0:]
        d2 -= g
        np.maximum(d2, 0.0, out=d2)
        if upper:
            d2 = d2[cols[c0:] > cols[r0:r1, None]]
        cnt = d2.size
        np.sqrt(d2.reshape(-1), out=flat[pos:pos + cnt])
        pos += cnt
    return flat[:pos].sum(), pos


def masked_group_distance_stats(x, labels, n_groups, workspace=None):
    """``kernels.group_distance_stats`` with ``_masked_distance_sum``: one
    product ``x[a] @ x[b].T`` per block, doubled afterwards."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    sq = np.einsum("ij,ij->i", x, x)
    intra_sum = np.zeros(n_groups)
    intra_cnt = np.zeros(n_groups, dtype=np.int64)
    inter_sum = np.zeros((n_groups, n_groups))
    inter_cnt = np.zeros((n_groups, n_groups), dtype=np.int64)
    idx = [np.flatnonzero(labels == g) for g in range(n_groups)]
    for g1 in range(n_groups):
        a = idx[g1]
        if a.size >= 2:
            intra_sum[g1], intra_cnt[g1] = _masked_distance_sum(
                gram(x[a], x[a], workspace), sq[a], sq[a], upper=True)
        for g2 in range(g1 + 1, n_groups):
            b = idx[g2]
            if a.size and b.size:
                inter_sum[g1, g2], inter_cnt[g1, g2] = _masked_distance_sum(
                    gram(x[a], x[b], workspace), sq[a], sq[b], upper=False)
    return intra_sum, intra_cnt, inter_sum, inter_cnt


def counted_partner_ranks(queries, partner_ids, index, workspace=None):
    """``retrieval.partner_ranks`` before its counts moved into
    ``_rank_rows``: ``count_nonzero`` along each block's rows."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    pos = {sid: i for i, sid in enumerate(index.ids)}
    cols = np.array([pos[pid] for pid in partner_ids], dtype=np.intp)
    id_rank = np.empty(len(index), dtype=np.intp)
    id_rank[np.argsort(np.asarray(index.ids))] = np.arange(len(index))
    sims = gram(queries, index.matrix, workspace)
    ranks = np.empty(cols.size, dtype=np.int64)
    for start in range(0, cols.size, RANK_BLOCK):
        block = slice(start, start + RANK_BLOCK)
        row_sims, col = sims[block], cols[block]
        sp = row_sims[np.arange(col.size), col][:, None]
        ranks[block] = 1 + np.count_nonzero(row_sims > sp, axis=1)
        tied = np.flatnonzero(np.count_nonzero(row_sims == sp, axis=1) > 1)
        if tied.size:
            tied_before = ((row_sims[tied] == sp[tied])
                           & (id_rank < id_rank[col[tied]][:, None]))
            ranks[start + tied] += np.count_nonzero(tied_before, axis=1)
    return ranks


def two_product_ranks(raw, anchors, ids):
    """``retrieval.bidirectional_ranks`` as two products: raw queries
    against the anchor index (R2A), then anchor queries against the raw
    index (A2R), each through ``counted_partner_ranks``."""
    return (counted_partner_ranks(raw, ids, RetrievalIndex(ids, anchors)),
            counted_partner_ranks(anchors, ids, RetrievalIndex(ids, raw)))

