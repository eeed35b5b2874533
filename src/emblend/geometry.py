"""Vector primitives shared by every other module.

All similarity in the engine is cosine on unit vectors; all gap/spread
measurements are Euclidean on the same vectors. Loss and gradient paths
work in float64; caches may store float32.

A side embeds as the normalized mean of its component rows (``side_vector``);
SNS, the engine and the payload describer batch it with ``side_vectors``. Its
rows come as a run layout, which only this module walks: row positions
``at``, run k being the next ``counts[k]`` (>= 1) of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, EmblendError, EmptySet, NonFiniteVector, ZeroVector

MODALITIES = ("text", "image", "audio", "video")

ZERO_NORM_EPS = 1e-12


def norm(v: np.ndarray) -> float:
    """||v||_2 of a 1-D float64 vector, bit-equal to ``np.linalg.norm`` (which
    computes ``sqrt(v.dot(v))`` for this case) without its dispatch."""
    return math.sqrt(v.dot(v))


def _checked_norm(v: np.ndarray) -> float:
    """``norm(v)``, or NonFiniteVector for a NaN or infinite norm and ZeroVector
    for one below ``ZERO_NORM_EPS``."""
    n = norm(v)
    if not math.isfinite(n):
        raise NonFiniteVector(f"vector has non-finite norm {n!r}")
    if not n >= ZERO_NORM_EPS:
        raise ZeroVector(f"cannot normalize vector with norm {n!r}")
    return n


def normalize(v) -> np.ndarray:
    """Return v / ||v||_2 of a 1-D vector as float64; raises as ``_checked_norm``."""
    v = np.asarray(v, dtype=np.float64)
    return v / _checked_norm(v)


def row_norms(m: np.ndarray) -> np.ndarray:
    """``norm`` of each row of a float64 matrix, bit-equal to it row by row:
    ``np.vecdot`` runs the same per-row ``ddot`` that ``v.dot(v)`` does (a
    reduction along ``axis=1`` sums in another order)."""
    return np.sqrt(np.vecdot(m, m))


def normalizable(norms: np.ndarray) -> np.ndarray:
    """Mask of the norms ``normalize`` accepts: finite and >= ``ZERO_NORM_EPS``."""
    return np.isfinite(norms) & (norms >= ZERO_NORM_EPS)


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """``normalize`` of each row of a float64 matrix, in place; returns ``m``.

    Bit-equal to ``normalize`` row by row (see ``row_norms``). When a row
    fails, ``m`` is left as it was and the first failing row raises what
    ``normalize`` raises for it.
    """
    norms = row_norms(m)
    ok = normalizable(norms)
    if np.count_nonzero(ok) < len(ok):
        _checked_norm(m[np.argmin(ok)])
    m /= norms[:, None]
    return m


def side_vector(component_vectors) -> np.ndarray:
    """Side embedding: normalized mean of its component embeddings."""
    return normalize(np.mean(component_vectors, axis=0))


def run_starts(counts) -> np.ndarray:
    """The index in ``at`` of each run's first row position."""
    return np.cumsum(counts) - counts


def consecutive_runs(firsts, counts):
    """The layout ``(at, counts)`` of runs of consecutive row positions: run
    k is ``firsts[k]``, ``firsts[k] + 1``, ..., ``counts[k]`` of them."""
    counts = np.asarray(counts, dtype=np.intp)
    at = np.repeat(np.asarray(firsts) - run_starts(counts), counts) + np.arange(counts.sum())
    return at, counts


def run_means(rows, at, counts) -> np.ndarray:
    """The float64 mean of each run's rows, stacked; float32 rows are upcast
    exactly.

    Each mean sums its rows in run order, as ``np.mean`` sums them: added
    position by position across means, since ``np.add.reduceat`` does not
    sum in order.
    """
    starts = run_starts(counts)
    sums = np.asarray(rows[at[starts]], dtype=np.float64)
    for j in range(1, counts.max(initial=1)):
        longer = counts > j
        sums[longer] += rows[at[starts[longer] + j]]
    return sums / counts[:, None]


def run_cosines(rows, at, counts, vectors) -> list:
    """``cosine_sim`` of each row of run k with ``vectors[k]``, one list per
    run; gathered position by position, like ``run_means``, so that no copy
    of every run's rows is alive at once."""
    starts = run_starts(counts)
    sims = np.zeros((len(counts), counts.max(initial=1)))
    for j in range(sims.shape[1]):
        longer = counts > j
        sims[longer, j] = cosine_rows(rows[at[starts[longer] + j]], vectors[longer])
    return [row[:n] for row, n in zip(sims.tolist(), counts.tolist())]


def side_vectors(rows, at, counts):
    """``side_vector`` of each run's rows, stacked and bit-equal to it, and by
    run the EmblendError it raises for each mean that does not normalize
    (that row is left as the mean)."""
    means = run_means(rows, at, counts)
    ok = normalizable(row_norms(means))
    means[ok] = normalize_rows(means[ok])
    errors = {}
    for k in np.flatnonzero(~ok).tolist():
        try:
            normalize(means[k])
        except EmblendError as exc:
            errors[k] = exc
    return means, errors


def cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cosine_sim`` of each row of ``a`` with the same row of ``b``, or with
    ``b`` itself when it is 1-D: each a ``ddot``, clamped to [-1, 1] with NaN
    passing through."""
    return np.clip(np.vecdot(a, b), -1.0, 1.0)


def cosine_sim(u, v) -> float:
    """Dot product of two unit vectors, clamped to [-1, 1] against rounding.

    NaN passes through unclamped.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimMismatch(f"cosine_sim: {u.shape} vs {v.shape}")
    d = float(u.dot(v))
    if d > 1.0:
        return 1.0
    if d < -1.0:
        return -1.0
    return d


def centroid(vectors) -> np.ndarray:
    """Component-wise mean. Not re-normalized: centroids of unit vectors lie inside the ball."""
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 0)
    if arr.shape[0] == 0:
        raise EmptySet("centroid of empty set")
    return arr.mean(axis=0)


@dataclass(frozen=True)
class Embedding:
    """A unit-norm vector tagged with its origin.

    ``sample_id`` is the id of the embedded item; sub-items of a paired
    sample (components, descriptions) use derived ids like ``<id>#r0``.
    """

    values: np.ndarray
    expert_id: str
    modality: str
    sample_id: str
    dim: int = field(default=0)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dim", int(values.shape[0]))
        n = norm(values)
        if not abs(n - 1.0) <= 1e-6:
            error = ZeroVector if math.isfinite(n) else NonFiniteVector
            raise error(f"embedding for {self.sample_id!r} is not unit-norm (|v|={n})")

