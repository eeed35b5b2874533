"""Exact similarity search, bidirectional Recall@K, and modality-geometry diagnostics."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (DimMismatch, EmptyModality, InsufficientSamples,
                     MissingPartner)
from .geometry import centroid


@dataclass
class RetrievalIndex:
    """Brute-force cosine index over unit vectors with unique sample ids."""

    ids: list
    matrix: np.ndarray
    side: str = "raw_fused"  # or "annotation_anchor"

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or len(self.ids) != self.matrix.shape[0]:
            raise DimMismatch("index needs one row per id")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("index ids must be unique")
        self._id_arr = np.asarray(self.ids)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


def top_k(index: RetrievalIndex, query, k: int):
    """Top-k (id, similarity) by descending cosine; ties break by ascending id."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape[0] != index.dim:
        raise DimMismatch(f"query dim {query.shape[0]} != index dim {index.dim}")
    if k <= 0:
        return []
    sims = index.matrix @ query
    order = np.lexsort((index._id_arr, -sims))
    order = order[: min(k, len(index))]
    return [(index.ids[i], float(sims[i])) for i in order]


def partner_ranks(queries, partner_ids, index: RetrievalIndex):
    """1-based rank of each query's ground-truth partner under top_k ordering."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != index.dim:
        raise DimMismatch(f"query dim {queries.shape[1]} != index dim {index.dim}")
    pos = {sid: i for i, sid in enumerate(index.ids)}
    sims = queries @ index.matrix.T
    ranks = np.empty(len(partner_ids), dtype=np.int64)
    for qi, pid in enumerate(partner_ids):
        if pid not in pos:
            raise MissingPartner(f"partner {pid!r} not in index")
        row = sims[qi]
        sp = row[pos[pid]]
        better = int(np.count_nonzero(row > sp))
        tied_before = int(np.count_nonzero((row == sp) & (index._id_arr < pid)))
        ranks[qi] = 1 + better + tied_before
    return ranks


def recall_at_k(queries, partner_ids, index: RetrievalIndex, k_values):
    """R@K = fraction of queries whose partner ranks within the top K."""
    ranks = partner_ranks(queries, partner_ids, index)
    return {int(k): float(np.mean(ranks <= k)) for k in k_values}


def bidirectional_recall(raw, anchors, ids, k_values) -> dict:
    """Recall@K both ways over paired rows: raw queries against the anchor
    index ("R2A") and anchor queries against the raw index ("A2R")."""
    ann_index = RetrievalIndex(ids, anchors, side="annotation_anchor")
    raw_index = RetrievalIndex(ids, raw, side="raw_fused")
    return {"R2A": recall_at_k(raw, ids, ann_index, k_values),
            "A2R": recall_at_k(anchors, ids, raw_index, k_values)}


@dataclass
class GapReport:
    """Per-modality centroid gaps plus the intra/inter distance structure."""

    gaps: dict
    average: float
    intra: dict = field(default_factory=dict)
    inter: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "gaps": {m: g for m, g in self.gaps.items()},
            "average": self.average,
            "intra": dict(self.intra),
            "inter": {f"{a}|{b}": v for (a, b), v in self.inter.items()},
        }


def modality_gap(raw_embeddings, anchor_embeddings, modalities) -> GapReport:
    """L2 distance between the raw centroid and the paired-anchor centroid,
    per modality, plus intra/inter pairwise-distance means over the combined
    cloud (anchors count as text)."""
    raw = np.atleast_2d(np.asarray(raw_embeddings, dtype=np.float64))
    anchors = np.atleast_2d(np.asarray(anchor_embeddings, dtype=np.float64))
    modalities = list(modalities)
    if raw.shape[0] != anchors.shape[0] or raw.shape[0] != len(modalities):
        raise DimMismatch("raw, anchors and modalities must align")
    present = sorted(set(modalities))
    gaps = {}
    for m in present:
        mask = np.asarray([mod == m for mod in modalities])
        if not mask.any():
            raise EmptyModality(m)
        gaps[m] = float(np.linalg.norm(centroid(raw[mask]) - centroid(anchors[mask])))
    average = float(np.mean(list(gaps.values())))

    cloud = np.concatenate([raw, anchors], axis=0)
    tags = modalities + ["text"] * anchors.shape[0]
    stats = pairwise_modality_stats(cloud, tags)
    return GapReport(gaps=gaps, average=average, intra=stats["intra"], inter=stats["inter"])


def gap_reduction(report: GapReport, reference: GapReport) -> dict:
    """Percent change of this report's gaps relative to a reference space."""
    out = {}
    for m, g in report.gaps.items():
        ref = reference.gaps.get(m)
        out[m] = float("nan") if not ref else 100.0 * (g - ref) / ref
    out["average"] = (float("nan") if not reference.average
                      else 100.0 * (report.average - reference.average) / reference.average)
    return out


def pairwise_modality_stats(embeddings, modalities) -> dict:
    """Mean pairwise L2 distance within each modality and across each pair."""
    x = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    tags = list(modalities)
    present = sorted(set(tags))
    label_of = {m: i for i, m in enumerate(present)}
    labels = np.asarray([label_of[t] for t in tags], dtype=np.int64)
    intra_sum, intra_cnt, inter_sum, inter_cnt = kernels.group_distance_stats(
        x, labels, len(present))
    intra = {m: float(intra_sum[label_of[m]] / intra_cnt[label_of[m]])
             for m in present if intra_cnt[label_of[m]] > 0}
    inter = {}
    for i, m1 in enumerate(present):
        for j in range(i + 1, len(present)):
            m2 = present[j]
            if inter_cnt[i, j] > 0:
                inter[(m1, m2)] = float(inter_sum[i, j] / inter_cnt[i, j])
    return {"intra": intra, "inter": inter}


def check_clustering_samples(modalities) -> None:
    """Raise InsufficientSamples unless at least two modalities are present
    and each has at least two samples."""
    counts = Counter(modalities)
    if len(counts) < 2:
        raise InsufficientSamples("need at least two modalities")
    for m, c in counts.items():
        if c < 2:
            raise InsufficientSamples(f"modality {m!r} has fewer than 2 samples")


def is_clustered(intra, inter) -> bool:
    """True when every modality pair has strictly smaller intra-modality mean
    distances than its inter-modality mean distance."""
    return all(intra[m1] < d and intra[m2] < d for (m1, m2), d in inter.items())


def clustering_diagnostic(embeddings, modalities) -> dict:
    """Flags modality clustering (see ``is_clustered``) from the pairwise
    distance statistics of the cloud."""
    tags = list(modalities)
    check_clustering_samples(tags)
    stats = pairwise_modality_stats(embeddings, tags)
    return {"intra": stats["intra"], "inter": stats["inter"],
            "clustered": is_clustered(stats["intra"], stats["inter"])}
