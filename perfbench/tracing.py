"""Spans and counters around emblend's public entry points, from outside src/.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records a span: name, start, end, parent span and run id. A function
bound into other modules by ``from ... import`` is replaced in every emblend
module that holds it, since that is where the call looks it up. Some spans
also carry a small annotation (cache hit or miss, rows scanned, bytes
written) taken after the span's clock stops.

Spans stay in memory; ``write_spans`` dumps them once the run is over, and
``layer_metrics`` reduces the spans of one run id to the per-layer metrics
listed in ``layers.PER_LAYER``.
"""
from __future__ import annotations

import functools
import math
import os
import sys
import threading
import time

_NAME, _START, _END, _PARENT, _RUN, _INFO = range(6)

WRITERS = ("dataio.write_jsonl", "dataio.write_json", "dataio.write_corpus",
           "dataio.write_nucleus_log", "dataio.write_blend")
SUBCOMMANDS = ("embed", "sns", "train", "eval", "curate")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original)
        self._cache_sizes = {}
        self._last_put = None

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, annotate=None):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if annotate is not None:
                rec[_INFO] = annotate(args, result)
            return result

        return traced

    # -- annotations -------------------------------------------------------

    def _cache_open(self, args, _result):
        cache = args[0]
        self._cache_sizes[cache.path] = _file_size(cache.path)
        return len(cache)

    def _cache_put(self, args, _result):
        cache, emb = args[0], args[1]
        self._last_put = (id(cache), emb.sample_id, emb.expert_id)
        size = _file_size(cache.path)
        written = size - self._cache_sizes.get(cache.path, size)
        self._cache_sizes[cache.path] = size
        return written

    def _cache_get(self, args, result):
        # ExpertHandle reads a record back right after writing it; that read
        # is neither a hit nor a miss. The workloads run one job, so the last
        # put seen is the one this read follows.
        if self._last_put == (id(args[0]), args[1], args[2]):
            self._last_put = None
            return "readback"
        return "miss" if result is None else "hit"

    @staticmethod
    def _sns(args, result):
        rec = result[1]
        return (rec.accepted, rec.error is not None,
                rec.size_before[0] + rec.size_before[1], rec.size_after[0] + rec.size_after[1])

    @staticmethod
    def _group_stats(args, _result):
        n, d = args[0].shape
        return (n * (n - 1) // 2, n * d)

    @staticmethod
    def _rows(args, _result):
        return len(args[0])

    @staticmethod
    def _dedup(args, result):
        return (len(result), len(args[0]))

    @staticmethod
    def _path_size(args, _result):
        return _file_size(args[0])

    @staticmethod
    def _blend_coords_size(args, _result):
        return _file_size(os.path.join(args[0], f"{args[1]}_coords.csv"))

    # -- patching ----------------------------------------------------------

    def _targets(self):
        from emblend import (cache, cli, curation, dataio, engine, experts, kernels,
                             projection, retrieval, sns)
        methods = [
            (engine.ExpertHandle, "embed", "engine.handle_embed", None),
            (experts.SyntheticExpert, "embed", "experts.embed", None),
            (cache.EmbeddingCache, "__init__", "cache.open", self._cache_open),
            (cache.EmbeddingCache, "get", "cache.get", self._cache_get),
            (cache.EmbeddingCache, "put", "cache.put", self._cache_put),
        ]
        for meth in ("populate_caches", "side_matrix", "anchor_matrix", "fused_inputs",
                     "fused_outputs", "expert_space", "embed_query", "describe_fn"):
            methods.append((engine.Engine, meth, f"engine.{meth}", None))
        functions = [
            (sns, "apply_sns", "sns.apply", self._sns),
            (projection, "train", "projection.train", None),
            (projection, "backward", "projection.backward", None),
            (projection, "forward", "projection.forward", None),
            (retrieval, "recall_at_k", "retrieval.recall_at_k", None),
            (retrieval, "modality_gap", "retrieval.modality_gap", None),
            (retrieval, "clustering_diagnostic", "retrieval.clustering_diagnostic", None),
            (retrieval, "pairwise_modality_stats", "retrieval.pairwise_modality_stats", None),
            (kernels, "group_distance_stats", "kernels.group_distance_stats",
             self._group_stats),
            (kernels, "kmeans_assign", "kernels.kmeans_assign", self._rows),
            (kernels, "dedup_scan", "kernels.dedup_scan", self._rows),
            (curation, "curate_topn", "curation.curate_topn", None),
            (curation, "sample_uniform", "curation.sample_uniform", None),
            (curation, "sample_stratified", "curation.sample_stratified", None),
            (curation, "traditional_pipeline", "curation.traditional_pipeline", None),
            (curation, "semantic_dedup", "curation.semantic_dedup", self._dedup),
            (curation, "kmeans", "curation.kmeans", None),
            (curation, "blend_stats", "curation.blend_stats", None),
            (dataio, "ingest", "dataio.ingest", None),
            (dataio, "write_jsonl", "dataio.write_jsonl", self._path_size),
            (dataio, "write_json", "dataio.write_json", self._path_size),
            (dataio, "write_corpus", "dataio.write_corpus", None),
            (dataio, "write_nucleus_log", "dataio.write_nucleus_log", None),
            (dataio, "write_blend", "dataio.write_blend", self._blend_coords_size),
        ]
        for sub in SUBCOMMANDS:
            functions.append((cli, f"cmd_{sub}", f"cli.{sub}", None))
        return methods, functions

    def install(self) -> None:
        methods, functions = self._targets()
        for cls, attr, name, annotate in methods:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, annotate))
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "emblend" or n.startswith("emblend."))]
        for home, attr, name, annotate in functions:
            original = getattr(home, attr)
            traced = self.wrap(name, original, annotate)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tspan\tparent\tname\tstart_s\tend_s\n")
            for i, rec in enumerate(self.spans):
                fh.write(f"{rec[_RUN]}\t{i}\t{rec[_PARENT]}\t{rec[_NAME]}\t"
                         f"{rec[_START]:.9f}\t{rec[_END]:.9f}\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(spans, run_id, stub_stats=None) -> dict:
    """Per-layer metrics of one run id; layers that did no work read 0."""
    mine = [i for i, r in enumerate(spans) if r[_RUN] == run_id]
    child = {}
    by_name = {}
    for i in mine:
        r = spans[i]
        by_name.setdefault(r[_NAME], []).append(i)
        if r[_PARENT] >= 0:
            child[r[_PARENT]] = child.get(r[_PARENT], 0.0) + (r[_END] - r[_START])

    def dur(i):
        return spans[i][_END] - spans[i][_START]

    def total(name, keep=None):
        return sum(dur(i) for i in by_name.get(name, ()) if keep is None or keep(i))

    def count(name):
        return len(by_name.get(name, ()))

    def self_time(name):
        return sum(dur(i) - child.get(i, 0.0) for i in by_name.get(name, ()))

    def infos(name):
        return [spans[i][_INFO] for i in by_name.get(name, ())]

    def parent_name(i):
        p = spans[i][_PARENT]
        return spans[p][_NAME] if p >= 0 else None

    m = {}
    m["engine.embed_calls"] = count("engine.handle_embed")
    m["engine.populate_s"] = total("engine.populate_caches")
    m["engine.side_matrix_s"] = total("engine.side_matrix")

    items = count("experts.embed")
    busy = total("experts.embed")
    m["experts.items"] = items
    m["experts.busy_s"] = busy
    m["experts.us_per_item"] = _ratio(busy * 1e6, items)

    gets = infos("cache.get")
    hits, misses = gets.count("hit"), gets.count("miss")
    m["cache.load_s"] = total("cache.open")
    m["cache.records_loaded"] = sum(infos("cache.open"))
    m["cache.hits"] = hits
    m["cache.misses"] = misses
    m["cache.hit_ratio"] = _ratio(hits, hits + misses)
    m["cache.puts"] = count("cache.put")
    m["cache.put_s"] = total("cache.put")
    m["cache.bytes_written"] = sum(infos("cache.put"))

    stub = stub_stats or {}
    service = stub.get("service_ms", [])
    m["remote.requests"] = stub.get("requests", 0)
    m["remote.describe_requests"] = stub.get("describe_requests", 0)
    m["remote.items_per_request"] = _ratio(stub.get("items", 0), stub.get("requests", 0))
    m["remote.request_ms.p50"] = percentile(service, 50)
    m["remote.request_ms.p99"] = percentile(service, 99)
    m["remote.server_busy_s"] = sum(service) / 1000.0
    m["remote.failures"] = stub.get("failures", 0)

    sns = infos("sns.apply")
    pair_ms = [dur(i) * 1000.0 for i in by_name.get("sns.apply", ())]
    m["sns.pairs"] = len(sns)
    m["sns.busy_s"] = self_time("sns.apply")
    m["sns.pair_ms.p50"] = percentile(pair_ms, 50)
    m["sns.pair_ms.p99"] = percentile(pair_ms, 99)
    m["sns.accept_ratio"] = _ratio(sum(1 for s in sns if s[0]), len(sns))
    m["sns.errors"] = sum(1 for s in sns if s[1])
    m["sns.bytes_kept_ratio"] = _ratio(sum(s[3] for s in sns), sum(s[2] for s in sns))

    in_train = [i for i in by_name.get("projection.backward", ())
                if parent_name(i) == "projection.train"]
    train_s = total("projection.train")
    backward_ms = [dur(i) * 1000.0 for i in in_train]
    m["projection.train_s"] = train_s
    m["projection.steps"] = len(in_train)
    m["projection.backward_ms.p50"] = percentile(backward_ms, 50)
    m["projection.backward_ms.p99"] = percentile(backward_ms, 99)
    m["projection.step_overhead_ms"] = _ratio((train_s - sum(backward_ms) / 1000.0) * 1000.0,
                                              len(in_train))
    m["projection.forward_s"] = total(
        "projection.forward", keep=lambda i: parent_name(i) != "projection.backward")

    m["retrieval.recall_s"] = total("retrieval.recall_at_k")
    m["retrieval.modality_gap_s"] = total("retrieval.modality_gap")
    m["retrieval.clustering_s"] = total("retrieval.clustering_diagnostic")
    m["retrieval.pairwise_stats_calls"] = count("retrieval.pairwise_modality_stats")

    group = infos("kernels.group_distance_stats")
    m["kernels.group_distance_stats_s"] = total("kernels.group_distance_stats")
    m["kernels.group_distance_stats_pairs"] = sum(g[0] for g in group)
    # computed bytes: the float64 input once plus one float64 distance per pair
    m["kernels.group_distance_stats_bytes"] = sum(8 * (g[0] + g[1]) for g in group)
    m["kernels.kmeans_assign_s"] = total("kernels.kmeans_assign")
    m["kernels.kmeans_assign_calls"] = count("kernels.kmeans_assign")
    m["kernels.dedup_scan_s"] = total("kernels.dedup_scan")
    m["kernels.dedup_scan_rows"] = sum(infos("kernels.dedup_scan"))

    dedup = infos("curation.semantic_dedup")
    m["curation.topn_s"] = total("curation.curate_topn")
    m["curation.traditional_s"] = total("curation.traditional_pipeline")
    m["curation.semantic_dedup_s"] = total("curation.semantic_dedup")
    m["curation.dedup_kept_ratio"] = _ratio(sum(d[0] for d in dedup), sum(d[1] for d in dedup))
    m["curation.blend_stats_s"] = total("curation.blend_stats")

    m["dataio.ingest_s"] = total("dataio.ingest")
    m["dataio.write_s"] = sum(
        total(w, keep=lambda i: parent_name(i) not in WRITERS) for w in WRITERS)
    m["dataio.bytes_written"] = sum(
        sum(infos(w)) for w in ("dataio.write_jsonl", "dataio.write_json", "dataio.write_blend"))

    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.self_s"] = self_time(f"cli.{sub}")
    return m
