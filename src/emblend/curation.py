"""Datablend construction: fused-space top-n plus the three reference strategies.

Every strategy is seed-deterministic and returns the same Blend shape, so
downstream composition statistics and exports do not care how a blend was
selected. Tie-breaking and scan orders are ascending sample id throughout.
Strategies read the columns of a ``dataio.Corpus`` (sample ids, pools,
modalities, annotation texts) and build no pair.
"""
from __future__ import annotations

import re
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


def _rows(blend: Blend, corpus) -> list:
    """The corpus position of each sample of the blend."""
    for sid in blend.sample_ids:
        if sid not in corpus.index:
            raise UnknownId(f"blend references unknown sample {sid!r}")
    return [corpus.index[sid] for sid in blend.sample_ids]


def _compose(blend: Blend, corpus) -> Blend:
    pools, mods = {}, {}
    for k in _rows(blend, corpus):
        pools[corpus.pools[k]] = pools.get(corpus.pools[k], 0) + 1
        mods[corpus.modalities[k]] = mods.get(corpus.modalities[k], 0) + 1
    blend.per_pool = dict(sorted(pools.items()))
    blend.per_modality = dict(sorted(mods.items()))
    return blend


def _ranked_top_n(ids, scores, n):
    """Descending score, ascending id on ties."""
    id_arr = np.asarray(ids)
    order = np.lexsort((id_arr, -np.asarray(scores)))
    order = order[: min(n, len(ids))]
    return [ids[i] for i in order], [float(scores[i]) for i in order]


def curate_topn(query_embedding, corpus, fused_matrix, n: int,
                query_text: str | None = None) -> Blend:
    """Rank the pool by cosine similarity of fused embeddings to the query."""
    if not len(corpus):
        raise EmptyPool("cannot curate from an empty pool")
    fused = np.atleast_2d(np.asarray(fused_matrix, dtype=np.float64))
    sims = fused @ np.asarray(query_embedding, dtype=np.float64)
    top_ids, top_scores = _ranked_top_n(corpus.sample_ids, sims, n)
    warning = None
    if n > len(corpus):
        warning = f"requested {n} but pool has {len(corpus)} samples"
    blend = Blend("eee_projection", top_ids, top_scores, n, query=query_text,
                  warning=warning)
    return _compose(blend, corpus)


def sample_uniform(corpus, n: int, seed: int) -> Blend:
    """n samples without replacement, deterministic for a fixed seed."""
    if n > len(corpus):
        raise NTooLarge(f"n={n} exceeds pool size {len(corpus)}")
    rng = np.random.Generator(np.random.PCG64(seed))
    picked = rng.choice(len(corpus), size=n, replace=False)
    ids = [corpus.sample_ids[i] for i in picked]
    blend = Blend("uniform", ids, [None] * len(ids), n, seed=seed)
    return _compose(blend, corpus)


def stratified_quotas(pool_sizes: dict, n: int) -> dict:
    """Equal per-pool quotas; the remainder goes to the largest pools first."""
    pools = sorted(pool_sizes)
    base, rem = divmod(n, len(pools))
    quotas = {p: base for p in pools}
    for p in sorted(pools, key=lambda p: (-pool_sizes[p], p))[:rem]:
        quotas[p] += 1
    return quotas


def sample_stratified(corpus, n: int, seed: int) -> Blend:
    """Uniform draws within each pool under equal (remainder-adjusted) quotas."""
    by_pool = {}
    for i, pool in enumerate(corpus.pools):
        by_pool.setdefault(pool, []).append(i)
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
        ids.extend(corpus.sample_ids[members[i]] for i in picked)
    blend = Blend("stratified", ids, [None] * len(ids), n, seed=seed)
    return _compose(blend, corpus)


# ---------------------------------------------------------------------------
# traditional pipeline: heuristic filters -> semantic dedup -> encoder ranking
# ---------------------------------------------------------------------------

@dataclass
class FilterConfig:
    max_non_alnum_ratio: float = 0.45
    max_repeated_line_fraction: float = 0.7
    boilerplate: list[str] = field(default_factory=list)


@dataclass
class FilterReport:
    sample_id: str
    passed: bool
    failed_rules: list
    measured: dict

    def to_dict(self) -> dict:
        return {"sample_id": self.sample_id, "passed": self.passed,
                "failed_rules": self.failed_rules, "measured": self.measured}


_ALNUM_RUNS = re.compile(r"[^\W_]+")  # \w less "_" is str.isalnum


def char_counts(text: str) -> tuple:
    """How many characters of ``text`` are not ``str.isspace``, and how many
    are ``str.isalnum``, counted by runs, not one Python call per character."""
    non_ws = len("".join(text.split()))  # str.split() splits at str.isspace
    return non_ws, sum(map(len, _ALNUM_RUNS.findall(text)))


def heuristic_filter(text: str, config: FilterConfig, sample_id: str = "") -> FilterReport:
    """Text-quality rules: non-alphanumeric ratio, repeated lines, boilerplate."""
    failed = []
    measured = {}
    if not text.strip():
        return FilterReport(sample_id, False, ["empty_text"], {})
    non_ws, alnum = char_counts(text)
    ratio = (non_ws - alnum) / non_ws  # no character is both
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


def traditional_pipeline(corpus, annotation_matrix, query_embedding, n: int,
                         filter_config: FilterConfig | None = None,
                         k_clusters: int = 100, epsilon: float = 0.05,
                         seed: int = 0, query_text: str | None = None):
    """Filter -> dedup -> single-encoder ranking over annotations only.

    Returns (Blend, filter reports). When fewer than n samples survive, all
    survivors are returned and the blend carries a warning.
    """
    if not len(corpus):
        raise EmptyPool("cannot curate from an empty pool")
    filter_config = filter_config or FilterConfig()
    ann = np.atleast_2d(np.asarray(annotation_matrix, dtype=np.float64))
    reports = [heuristic_filter(text, filter_config, sid)
               for text, sid in zip(corpus.annotation_texts, corpus.sample_ids)]
    survivors = [i for i, rep in enumerate(reports) if rep.passed]
    if not survivors:
        blend = Blend("traditional", [], [], n, query=query_text, seed=seed,
                      warning="no samples survived heuristic filtering")
        return _compose(blend, corpus), reports

    surv_ids = [corpus.sample_ids[i] for i in survivors]
    surv_rows = dict(zip(surv_ids, survivors))
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
    return _compose(blend, corpus), reports


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


def blend_stats(blend: Blend, corpus, fused=None) -> dict:
    """Composition fractions per pool and modality, plus 2-D plot coordinates
    of the blend's rows of ``fused``, a matrix with one row per sample of
    the corpus."""
    total = len(blend.sample_ids)
    rows = _rows(blend, corpus)
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
    if fused is not None and total:
        coords = pca_2d(fused[rows])
    return stats, coords
