"""Metric catalogue: end-to-end metrics per workload, per-layer metrics, and
which end-to-end metric each layer is expected to move on which workload.

Layers are emblend's modules. A layer metric should stay flat on every
workload its row does not name.
"""

# name -> (unit, meaning); "-" in WORKLOAD_E2E means not applicable.
END_TO_END = {
    "setup_s": ("s", "input generation plus warm state built before the timed part "
                     "(median of the run's set-ups)"),
    "wall_s": ("s", "timed part, inputs ready to last artifact written (median of iterations)"),
    "embed_s": ("s", "emblend embed"),
    "sns_s": ("s", "emblend sns"),
    "train_s": ("s", "emblend train"),
    "eval_s": ("s", "emblend eval"),
    "curate_s": ("s", "all four emblend curate runs"),
    "peak_rss_mb": ("MB", "peak RSS of the process running the timed part"),
    "error_rate": ("ratio", "failed ops / attempted ops over the run's iterations"),
    "recall_at_1": ("ratio", "projection-space mean of R2A and A2R R@1, from eval.json"),
    "gap_ratio": ("ratio", "projection average modality gap / gap of the best-R@1 expert"),
}

WORKLOAD_E2E = {
    "ingest": ("setup_s", "wall_s", "embed_s", "sns_s", "peak_rss_mb", "error_rate"),
    "fit": ("setup_s", "wall_s", "train_s", "eval_s", "peak_rss_mb", "error_rate",
            "recall_at_1", "gap_ratio"),
    "select": ("setup_s", "wall_s", "eval_s", "curate_s", "peak_rss_mb", "error_rate",
               "recall_at_1"),
    "remote_ingest": ("setup_s", "wall_s", "embed_s", "sns_s", "peak_rss_mb", "error_rate"),
}

# layer -> (metrics with units, the end-to-end metrics it moves and where)
PER_LAYER = {
    "engine": ({"engine.embed_calls": "count", "engine.populate_s": "s",
                "engine.side_matrix_s": "s"},
               "embed_s on ingest and remote_ingest; train_s on fit; curate_s on select"),
    "experts": ({"experts.items": "count", "experts.busy_s": "s",
                 "experts.us_per_item": "us"},
                "embed_s on ingest; 0 items in fit's timed part, only the curation "
                "query in select's"),
    "cache": ({"cache.load_s": "s", "cache.records_loaded": "count", "cache.hits": "count",
               "cache.misses": "count", "cache.hit_ratio": "ratio", "cache.puts": "count",
               "cache.put_s": "s", "cache.bytes_written": "bytes"},
              "puts: embed_s on ingest; load and hits: sns_s on ingest, train_s on fit, "
              "curate_s on select"),
    "remote": ({"remote.requests": "count", "remote.describe_requests": "count",
                "remote.items_per_request": "ratio", "remote.request_ms.p50": "ms",
                "remote.request_ms.p99": "ms", "remote.server_busy_s": "s",
                "remote.failures": "count"},
               "embed_s, sns_s and error_rate on remote_ingest (counted at the stub)"),
    "sns": ({"sns.pairs": "count", "sns.busy_s": "s", "sns.pair_ms.p50": "ms",
             "sns.pair_ms.p99": "ms", "sns.accept_ratio": "ratio", "sns.errors": "count",
             "sns.bytes_kept_ratio": "ratio"},
            "sns_s and error_rate on ingest and remote_ingest"),
    "projection": ({"projection.train_s": "s", "projection.steps": "count",
                    "projection.backward_ms.p50": "ms", "projection.backward_ms.p99": "ms",
                    "projection.step_overhead_ms": "ms", "projection.forward_s": "s"},
                   "train_s on fit; forward_s: eval_s and curate_s on select"),
    "retrieval": ({"retrieval.recall_s": "s", "retrieval.modality_gap_s": "s",
                   "retrieval.clustering_s": "s", "retrieval.pairwise_stats_calls": "count"},
                  "eval_s on select (fit a little)"),
    "kernels": ({"kernels.group_distance_stats_s": "s",
                 "kernels.group_distance_stats_pairs": "count",
                 "kernels.group_distance_stats_bytes": "bytes",
                 "kernels.kmeans_assign_s": "s", "kernels.kmeans_assign_calls": "count",
                 "kernels.dedup_scan_s": "s", "kernels.dedup_scan_rows": "count"},
                "eval_s and peak_rss_mb on select; kmeans and dedup: curate_s on select"),
    "curation": ({"curation.topn_s": "s", "curation.traditional_s": "s",
                  "curation.semantic_dedup_s": "s", "curation.dedup_kept_ratio": "ratio",
                  "curation.blend_stats_s": "s"},
                 "curate_s on select"),
    "dataio": ({"dataio.ingest_s": "s", "dataio.write_s": "s", "dataio.bytes_written": "bytes"},
               "sns_s on ingest; the parse step on every workload"),
    "cli": ({f"cli.{sub}.self_s": "s" for sub in ("embed", "sns", "train", "eval", "curate")},
            "the matching stage metric (subcommand span minus its child spans)"),
    "benchmark": ({"trace.overhead_s": "s"},
                  "traced wall_s minus untraced wall_s of the same run"),
}


def per_layer_units() -> dict:
    return {name: unit for metrics, _ in PER_LAYER.values() for name, unit in metrics.items()}
