"""Datablend construction: fused-space top-n plus the three reference strategies.

Every strategy is seed-deterministic and returns the same Blend shape, so
downstream composition statistics and exports do not care how a blend was
selected. Tie-breaking and scan orders are ascending sample id throughout.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import EmptyPool, KTooLarge, NTooLarge, PoolTooSmall, UnknownId

STRATEGIES = ("eee_projection", "uniform", "stratified", "traditional")


@dataclass
class Blend:
    strategy: str
    sample_ids: list
    scores: list  # aligned with sample_ids; None where no score applies
    n: int
    per_pool: dict = field(default_factory=dict)
    per_modality: dict = field(default_factory=dict)
    query: str | None = None
    seed: int | None = None
    warning: str | None = None

    def __len__(self) -> int:
        return len(self.sample_ids)


def _compose(blend: Blend, samples_by_id: dict) -> Blend:
    pools, mods = {}, {}
    for sid in blend.sample_ids:
        sample = samples_by_id.get(sid)
        if sample is None:
            raise UnknownId(f"blend references unknown sample {sid!r}")
        pools[sample.pool_id] = pools.get(sample.pool_id, 0) + 1
        mods[sample.raw_modality] = mods.get(sample.raw_modality, 0) + 1
    blend.per_pool = dict(sorted(pools.items()))
    blend.per_modality = dict(sorted(mods.items()))
    return blend


def _ranked_top_n(ids, scores, n):
    """Descending score, ascending id on ties."""
    id_arr = np.asarray(ids)
    order = np.lexsort((id_arr, -np.asarray(scores)))
    order = order[: min(n, len(ids))]
    return [ids[i] for i in order], [float(scores[i]) for i in order]


def curate_topn(query_embedding, samples, fused_matrix, n: int,
                query_text: str | None = None) -> Blend:
    """Rank the pool by cosine similarity of fused embeddings to the query."""
    samples = list(samples)
    if not samples:
        raise EmptyPool("cannot curate from an empty pool")
    fused = np.atleast_2d(np.asarray(fused_matrix, dtype=np.float64))
    sims = fused @ np.asarray(query_embedding, dtype=np.float64)
    ids = [s.sample_id for s in samples]
    top_ids, top_scores = _ranked_top_n(ids, sims, n)
    warning = None
    if n > len(samples):
        warning = f"requested {n} but pool has {len(samples)} samples"
    blend = Blend("eee_projection", top_ids, top_scores, n, query=query_text,
                  warning=warning)
    return _compose(blend, {s.sample_id: s for s in samples})


def sample_uniform(samples, n: int, seed: int) -> Blend:
    """n samples without replacement, deterministic for a fixed seed."""
    samples = list(samples)
    if n > len(samples):
        raise NTooLarge(f"n={n} exceeds pool size {len(samples)}")
    rng = np.random.Generator(np.random.PCG64(seed))
    picked = rng.choice(len(samples), size=n, replace=False)
    ids = [samples[i].sample_id for i in picked]
    blend = Blend("uniform", ids, [None] * len(ids), n, seed=seed)
    return _compose(blend, {s.sample_id: s for s in samples})


def stratified_quotas(pool_sizes: dict, n: int) -> dict:
    """Equal per-pool quotas; the remainder goes to the largest pools first."""
    pools = sorted(pool_sizes)
    base, rem = divmod(n, len(pools))
    quotas = {p: base for p in pools}
    for p in sorted(pools, key=lambda p: (-pool_sizes[p], p))[:rem]:
        quotas[p] += 1
    return quotas


def sample_stratified(samples, n: int, seed: int) -> Blend:
    """Uniform draws within each pool under equal (remainder-adjusted) quotas."""
    samples = list(samples)
    by_pool = {}
    for i, s in enumerate(samples):
        by_pool.setdefault(s.pool_id, []).append(i)
    quotas = stratified_quotas({p: len(ix) for p, ix in by_pool.items()}, n)
    for pool, quota in quotas.items():
        if quota > len(by_pool[pool]):
            raise PoolTooSmall(
                f"pool {pool!r} has {len(by_pool[pool])} samples, quota is {quota}")
    rng = np.random.Generator(np.random.PCG64(seed))
    ids = []
    for pool in sorted(by_pool):
        members = by_pool[pool]
        picked = rng.choice(len(members), size=quotas[pool], replace=False)
        ids.extend(samples[members[i]].sample_id for i in picked)
    blend = Blend("stratified", ids, [None] * len(ids), n, seed=seed)
    return _compose(blend, {s.sample_id: s for s in samples})


# ---------------------------------------------------------------------------
# traditional pipeline: heuristic filters -> semantic dedup -> encoder ranking
# ---------------------------------------------------------------------------

@dataclass
class FilterConfig:
    max_non_alnum_ratio: float = 0.45
    max_repeated_line_fraction: float = 0.7
    boilerplate: list = field(default_factory=list)


@dataclass
class FilterReport:
    sample_id: str
    passed: bool
    failed_rules: list
    measured: dict

    def to_dict(self) -> dict:
        return {"sample_id": self.sample_id, "passed": self.passed,
                "failed_rules": self.failed_rules, "measured": self.measured}


def heuristic_filter(text: str, config: FilterConfig, sample_id: str = "") -> FilterReport:
    """Text-quality rules: non-alphanumeric ratio, repeated lines, boilerplate."""
    failed = []
    measured = {}
    if not text.strip():
        return FilterReport(sample_id, False, ["empty_text"], {})
    non_ws = len(text) - sum(map(str.isspace, text))
    ratio = (non_ws - sum(map(str.isalnum, text))) / non_ws  # no character is both
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


def kmeans(x, k: int, seed: int, max_iter: int = 50, tol: float = 1e-6):
    """Lloyd's iterations with seeded distinct-point init; returns (labels, centroids)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if k > n:
        raise KTooLarge(f"k={k} exceeds {n} points")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    chosen, seen = [], set()
    for i in order:
        key = x[i].tobytes()
        if key not in seen:
            seen.add(key)
            chosen.append(i)
        if len(chosen) == k:
            break
    for i in order:  # fewer distinct points than k: reuse duplicates
        if len(chosen) == k:
            break
        if i not in chosen:
            chosen.append(i)
    centroids = x[np.asarray(chosen[:k])].copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        labels = kernels.kmeans_assign(x, centroids)
        new_centroids = centroids.copy()
        # members of each cluster in ascending row order, as a mask picks them
        order = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[order], np.arange(k + 1)).tolist()
        for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if a < b:
                new_centroids[j] = x[order[a:b]].mean(axis=0)
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift <= tol:
            break
    labels = kernels.kmeans_assign(x, centroids)
    return labels, centroids


def semantic_dedup(ids, embeddings, k_clusters: int, epsilon: float, seed: int) -> list:
    """Cluster-scoped near-duplicate pruning; returns kept ids, ascending.

    Within each k-means cluster, items are scanned in ascending id order and
    dropped when their cosine distance to an already-kept item is <= epsilon.
    Bit-identical duplicates always co-cluster, so exactly one survives.
    """
    ids = list(ids)
    x = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if x.shape[0] != len(ids):
        raise ValueError("ids and embeddings must align")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    x = x / np.maximum(norms, 1e-12)
    labels, _ = kmeans(x, k_clusters, seed)
    kept = []
    for cluster in range(k_clusters):
        members = np.flatnonzero(labels == cluster)
        if members.size == 0:
            continue
        members = members[np.argsort(np.asarray(ids, dtype=object)[members], kind="stable")]
        keep_mask = kernels.dedup_scan(x[members], epsilon)
        kept.extend(ids[i] for i in members[keep_mask])
    return sorted(kept)


def traditional_pipeline(samples, annotation_matrix, query_embedding, n: int,
                         filter_config: FilterConfig | None = None,
                         k_clusters: int = 100, epsilon: float = 0.05,
                         seed: int = 0, query_text: str | None = None):
    """Filter -> dedup -> single-encoder ranking over annotations only.

    Returns (Blend, filter reports). When fewer than n samples survive, all
    survivors are returned and the blend carries a warning.
    """
    samples = list(samples)
    if not samples:
        raise EmptyPool("cannot curate from an empty pool")
    filter_config = filter_config or FilterConfig()
    ann = np.atleast_2d(np.asarray(annotation_matrix, dtype=np.float64))
    reports = [heuristic_filter(s.annotation_text, filter_config, s.sample_id)
               for s in samples]
    survivors = [i for i, rep in enumerate(reports) if rep.passed]
    samples_by_id = {s.sample_id: s for s in samples}
    if not survivors:
        blend = Blend("traditional", [], [], n, query=query_text, seed=seed,
                      warning="no samples survived heuristic filtering")
        return _compose(blend, samples_by_id), reports

    surv_ids = [samples[i].sample_id for i in survivors]
    surv_rows = {samples[i].sample_id: i for i in survivors}
    k_eff = min(k_clusters, len(survivors))
    kept_ids = semantic_dedup(surv_ids, ann[survivors], k_eff, epsilon, seed)

    rows = [surv_rows[sid] for sid in kept_ids]
    sims = ann[rows] @ np.asarray(query_embedding, dtype=np.float64)
    top_ids, top_scores = _ranked_top_n(kept_ids, sims, n)
    warning = None
    if len(top_ids) < n:
        warning = f"only {len(top_ids)} samples survived filtering and dedup (requested {n})"
    blend = Blend("traditional", top_ids, top_scores, n, query=query_text,
                  seed=seed, warning=warning)
    return _compose(blend, samples_by_id), reports


# ---------------------------------------------------------------------------
# blend statistics and plot coordinates
# ---------------------------------------------------------------------------

def pca_2d(x) -> np.ndarray:
    """First two principal-component coordinates, deterministic sign convention."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2] if vt.shape[0] >= 2 else np.vstack([vt, np.zeros((2 - vt.shape[0], x.shape[1]))])
    for i in range(comps.shape[0]):  # largest loading positive, as in svd_flip
        j = np.argmax(np.abs(comps[i]))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return centered @ comps.T


def blend_stats(blend: Blend, samples_by_id: dict, fused_by_id: dict | None = None) -> dict:
    """Composition fractions per pool and modality, plus 2-D plot coordinates."""
    total = len(blend.sample_ids)
    for sid in blend.sample_ids:
        if sid not in samples_by_id:
            raise UnknownId(f"blend references unknown sample {sid!r}")
    stats = {
        "strategy": blend.strategy,
        "n_requested": blend.n,
        "n_selected": total,
        "query": blend.query,
        "seed": blend.seed,
        "warning": blend.warning,
        "per_pool": {p: {"count": c, "fraction": c / total if total else 0.0}
                     for p, c in blend.per_pool.items()},
        "per_modality": {m: {"count": c, "fraction": c / total if total else 0.0}
                         for m, c in blend.per_modality.items()},
    }
    coords = None
    if fused_by_id is not None and total:
        matrix = np.vstack([fused_by_id[sid] for sid in blend.sample_ids])
        coords = pca_2d(matrix)
    return stats, coords
