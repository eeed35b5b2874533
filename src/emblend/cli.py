"""Command-line surface tying the modules into experiment flows.

Subcommands: synth, embed, sns, train, eval, curate, ablate. Every run
writes a manifest.json with the resolved configuration, seeds and versions,
sufficient to reproduce its artifacts byte for byte. Exit codes: 0 success,
1 validation error, 2 runtime failure, 3 remote-service failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__, kernels
from .config import EngineConfig, config_from_dict, load_config, save_config
from .curation import (blend_stats, curate_topn, sample_stratified,
                       sample_uniform, traditional_pipeline)
from .dataio import (ingest, write_blend, write_corpus, write_json,
                     write_jsonl, write_nucleus_log)
from .engine import Engine
from .errors import (ConfigError, DescriberFailure, EmblendError,
                     InvariantViolation, ParseError, RemoteFailure)
from .projection import (LossWeights, forward, init_projection, load_model,
                         save_model, train)
from .retrieval import (bidirectional_recall, check_clustering_samples,
                        gap_reduction, is_clustered, modality_gap)
from .sns import SnsConfig, apply_sns, calibrate_taus
from .synth import SynthSpec, expert_configs, generate_corpus

RHO_GRID = (0.0, 0.8, 0.95, 1.0, 1.02, 1.05, 1.1)
TAU_GRID = (-1.0, 0.0, 0.2, 0.4)
LAMBDA_GRID = (  # (task, scale, cluster)
    (0.9, 0.1, 0.0),
    (0.99, 1e-3, 0.01),
    (0.99, 1e-4, 0.01),
    (0.999, 1e-4, 1e-3),
    (1.0, 0.0, 0.0),
    (0.95, 0.01, 0.05),
    (0.9, 0.05, 0.05),
    (0.9, 0.0, 0.1),
    (0.999, 1e-5, 1e-4),
)
DEPTH_GRID = (1, 2, 3)

DESK_SCALE_NOTE = ("Metrics computed on synthetic desk-scale corpora; absolute "
                   "values are specific to this corpus and generator settings.")


def format_table(headers, rows) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def write_manifest(out_dir, command, args_dict, config: EngineConfig | None, extra=None):
    doc = {
        "command": command,
        "args": {k: v for k, v in sorted(args_dict.items()) if v is not None},
        "config": config.to_dict() if config is not None else None,
        "versions": {
            "emblend": __version__,
            "numpy": np.__version__,
            "kernel_backend": kernels.active_backend(),
        },
    }
    if extra:
        doc.update(extra)
    write_json(os.path.join(out_dir, "manifest.json"), doc)


def _ensure_out(args) -> str:
    out = args.out or "runs/out"
    os.makedirs(out, exist_ok=True)
    return out


def _load_engine(args):
    if not args.config:
        raise ConfigError("--config is required for this command")
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "jobs", None) is not None:
        config.jobs = args.jobs
    return config, Engine(config)


def _args_dict(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    out = _ensure_out(args)
    spec = SynthSpec(
        seed=args.seed if args.seed is not None else 0,
        pools=args.pools,
        samples_per_pool=args.samples_per_pool,
        modalities=tuple(args.modalities.split(",")) if args.modalities else SynthSpec.modalities,
        clusters=args.clusters,
        dim=args.dim,
        semantic_dim=args.semantic_dim,
        gap_magnitude=args.gap,
        noise_sigma=args.noise,
        raw_distractors=args.distractors,
        annotation_extras=args.annotation_extras,
    )
    samples = generate_corpus(spec)
    corpus_path = os.path.join(out, "corpus.jsonl")
    write_corpus(corpus_path, samples)

    experts = expert_configs(spec)
    doc = {
        "experts": [
            {"expert_id": c.expert_id, "kind": "synthetic", "dim": c.dim,
             "semantic_dim": c.semantic_dim, "gap_magnitude": c.gap_magnitude,
             "noise_sigma": c.noise_sigma, "seed": c.seed}
            for c in experts
        ],
        "gating_expert": experts[0].expert_id,
        "anchor_expert": experts[-1].expert_id,
        "seed": spec.seed,
        "output_dir": out,
    }
    config = config_from_dict(doc)
    engine = Engine(config)
    calib = samples[: min(len(samples), 200)]
    tau_alpha, tau_beta = calibrate_taus(calib, engine.gating)
    config.sns.tau_alpha = tau_alpha
    config.sns.tau_beta = tau_beta
    config_path = os.path.join(out, "config.yaml")
    save_config(config, config_path)
    write_manifest(out, "synth", _args_dict(args), config,
                   extra={"synth_spec": dataclasses.asdict(spec)})
    print(f"wrote {len(samples)} samples to {corpus_path}")
    print(f"wrote engine config to {config_path}")
    return 0


def cmd_embed(args) -> int:
    config, engine = _load_engine(args)
    out = _ensure_out(args)
    if not config.cache_dir:
        config.cache_dir = os.path.join(out, "cache")
        engine = Engine(config)
    samples = ingest(args.corpus)
    counts = engine.populate_caches(samples)
    write_manifest(out, "embed", _args_dict(args), config)
    write_json(os.path.join(out, "embed_summary.json"),
               {"corpus": os.path.basename(args.corpus), "samples": len(samples),
                "items_per_expert": counts, "cache_dir": config.cache_dir})
    for eid, n in sorted(counts.items()):
        print(f"expert {eid}: {n} items cached")
    return 0


def _sns_config_with_overrides(config: EngineConfig, args) -> SnsConfig:
    sns = config.sns
    direction = args.direction or sns.direction
    tau_alpha = dict(sns.tau_alpha)
    tau_beta = dict(sns.tau_beta)
    if args.tau_alpha is not None:
        tau_alpha = {m: args.tau_alpha for m in tau_alpha}
    if args.tau_beta is not None:
        tau_beta = {m: args.tau_beta for m in tau_beta}
    rho = args.rho if args.rho is not None else sns.rho
    return SnsConfig(direction=direction, tau_alpha=tau_alpha, tau_beta=tau_beta,
                     rho=rho, reinject=sns.reinject)


def _run_sns(engine: Engine, samples, sns_config: SnsConfig, jobs: int = 1):
    describe = engine.describe_fn()

    def one(sample):
        return apply_sns(sample, sns_config, engine.gating, describe)

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, samples))  # input order preserved
    else:
        results = [one(s) for s in samples]
    emitted = [pair for pair, _ in results]
    records = [rec for _, rec in results]
    return emitted, records


def cmd_sns(args) -> int:
    config, engine = _load_engine(args)
    out = _ensure_out(args)
    samples = ingest(args.corpus)
    sns_config = _sns_config_with_overrides(config, args)
    config.sns = sns_config
    emitted, records = _run_sns(engine, samples, sns_config, jobs=config.jobs)
    write_corpus(os.path.join(out, "trimmed.jsonl"), emitted)
    write_nucleus_log(os.path.join(out, "nucleus_log.jsonl"), records)
    accepted = sum(1 for r in records if r.accepted)
    bytes_before = sum(r.size_before[0] + r.size_before[1] for r in records)
    bytes_after = sum(r.size_after[0] + r.size_after[1] for r in records)
    summary = {
        "samples": len(records),
        "accepted": accepted,
        "acceptance_rate": accepted / len(records) if records else 0.0,
        "bytes_before": bytes_before,
        "bytes_after": bytes_after,
        "direction": sns_config.direction,
        "rho": sns_config.rho,
    }
    write_json(os.path.join(out, "sns_summary.json"), summary)
    write_manifest(out, "sns", _args_dict(args), config)
    print(f"accepted {accepted}/{len(records)} nucleus variants "
          f"({summary['acceptance_rate']:.3f}); bytes {bytes_before} -> {bytes_after}")
    return 0


def _loss_weights_with_overrides(config: EngineConfig, args) -> LossWeights:
    loss = config.loss
    return LossWeights(
        lambda_task=args.lambda_task if args.lambda_task is not None else loss.lambda_task,
        lambda_cluster=(args.lambda_cluster if args.lambda_cluster is not None
                        else loss.lambda_cluster),
        lambda_scale=args.lambda_scale if args.lambda_scale is not None else loss.lambda_scale,
        temperature=args.temperature if args.temperature is not None else loss.temperature,
        include_fused_negatives=loss.include_fused_negatives,
        symmetric=loss.symmetric,
    )


def cmd_train(args) -> int:
    config, engine = _load_engine(args)
    out = _ensure_out(args)
    samples = ingest(args.corpus)
    weights = _loss_weights_with_overrides(config, args)
    config.loss = weights
    tcfg = config.train
    if args.steps is not None:
        tcfg = dataclasses.replace(tcfg, step_count=args.steps)
    if args.batch_size is not None:
        tcfg = dataclasses.replace(tcfg, batch_size=args.batch_size)
    if args.seed is not None:
        tcfg = dataclasses.replace(tcfg, seed=args.seed)
    config.train = tcfg
    layers = args.layers if args.layers is not None else config.projection.layer_count

    inputs = engine.fused_inputs(samples)
    anchors = engine.anchor_matrix(samples)
    modalities = [s.raw_modality for s in samples]
    model = init_projection(inputs.shape[1], engine.dim, layers,
                            hidden_dim=config.projection.hidden_dim, seed=tcfg.seed)
    model, log = train(inputs, anchors, modalities, model, tcfg, weights)
    save_model(model, os.path.join(out, "model.json"))
    write_jsonl(os.path.join(out, "train_log.jsonl"), log)
    write_manifest(out, "train", _args_dict(args), config,
                   extra={"layer_count": layers, "final_loss": log[-1]["L_total"]})
    print(f"trained {layers}-layer projection for {tcfg.step_count} steps; "
          f"final L_total {log[-1]['L_total']:.6f}")
    return 0


def _space_metrics(raw, anchors, modalities, k_values):
    """Recall tables, gap report and clustering flag of one space. The gap
    report's intra/inter statistics are the clustering diagnostic's, over
    the same raw + anchor cloud, so they are computed once."""
    n = raw.shape[0]
    recall = bidirectional_recall(raw, anchors, [f"s{i}" for i in range(n)], k_values)
    gaps = modality_gap(raw, anchors, modalities)
    check_clustering_samples(list(modalities) + ["text"] * n)
    return recall, gaps, is_clustered(gaps.intra, gaps.inter)


def cmd_eval(args) -> int:
    config, engine = _load_engine(args)
    out = _ensure_out(args)
    samples = ingest(args.corpus)
    model = load_model(args.model)
    k_values = [int(k) for k in args.k.split(",")] if args.k else [1, 3, 5, 10]
    modalities = [s.raw_modality for s in samples]
    anchors = engine.anchor_matrix(samples)

    recall, gaps, clustered = {}, {}, {}
    for eid in engine.expert_order:
        raw_m, ann_m = engine.expert_space(samples, eid)
        recall[eid], gaps[eid], clustered[eid] = _space_metrics(
            raw_m, ann_m, modalities, k_values)
    fused = engine.fused_outputs(samples, model)
    recall["projection"], gaps["projection"], clustered["projection"] = _space_metrics(
        fused, anchors, modalities, k_values)

    reduction = {eid: gap_reduction(gaps["projection"], gaps[eid])
                 for eid in engine.expert_order}
    gap_docs = {space: g.to_dict() for space, g in gaps.items()}
    doc = {
        "note": DESK_SCALE_NOTE,
        "k_values": k_values,
        "recall": {space: {d: {str(k): v for k, v in t.items()} for d, t in r.items()}
                   for space, r in recall.items()},
        "gaps": gap_docs,
        "gap_reduction_vs_projection": reduction,
        "clustering": {
            space: {"clustered": flag, "intra": gap_docs[space]["intra"],
                    "inter": gap_docs[space]["inter"]}
            for space, flag in clustered.items()
        },
    }
    write_json(os.path.join(out, "eval.json"), doc)

    mods = sorted(set(modalities))
    gap_rows = []
    for space in list(engine.expert_order) + ["projection"]:
        row = [space] + [f"{gaps[space].gaps.get(m, float('nan')):.4f}" for m in mods]
        if space == "projection":
            row += ["-"] * len(mods)
        else:
            row += [f"{reduction[space].get(m, float('nan')):+.1f}" for m in mods]
        gap_rows.append(row)
    gap_table = format_table(["space"] + [f"gap:{m}" for m in mods]
                             + [f"dvs_proj%:{m}" for m in mods], gap_rows)
    recall_rows = []
    for space, tables in recall.items():
        for direction in ("R2A", "A2R"):
            recall_rows.append([space, direction]
                               + [f"{tables[direction][k]:.4f}" for k in k_values])
    recall_table = format_table(["space", "direction"] + [f"R@{k}" for k in k_values],
                                recall_rows)
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(DESK_SCALE_NOTE + "\n\nModality gaps (L2 between per-modality "
                 "raw/annotation centroids)\n")
        fh.write(gap_table)
        fh.write("\nRecall\n")
        fh.write(recall_table)
    if args.export_embeddings:
        rows = []
        for space, matrix in (("projection", fused), ("anchor", anchors)):
            for i, s in enumerate(samples):
                rows.append({"space": space, "sample_id": s.sample_id,
                             "modality": "text" if space == "anchor" else s.raw_modality,
                             "vector": [round(float(v), 7) for v in matrix[i]]})
        write_jsonl(os.path.join(out, "embeddings.jsonl"), rows)
    write_manifest(out, "eval", _args_dict(args), config)
    print(recall_table)
    return 0


def cmd_curate(args) -> int:
    config, engine = _load_engine(args)
    out = _ensure_out(args)
    samples = ingest(args.corpus)
    strategy = args.strategy or config.curation.strategy
    n = args.n if args.n is not None else config.curation.n
    query = args.query or config.curation.query
    seed = args.seed if args.seed is not None else config.seed
    samples_by_id = {s.sample_id: s for s in samples}

    fused_by_id = None
    if strategy == "eee_projection":
        if not args.model:
            raise ConfigError("strategy eee_projection requires --model")
        model = load_model(args.model)
        fused = engine.fused_outputs(samples, model)
        blend = curate_topn(engine.embed_query(query), samples, fused, n, query_text=query)
        fused_by_id = {s.sample_id: fused[i] for i, s in enumerate(samples)}
    elif strategy == "uniform":
        blend = sample_uniform(samples, n, seed)
    elif strategy == "stratified":
        blend = sample_stratified(samples, n, seed)
    elif strategy == "traditional":
        ann = engine.side_matrix(samples, "annotation", config.anchor_expert)
        blend, reports = traditional_pipeline(
            samples, ann, engine.embed_query(query), n,
            filter_config=config.curation.filters,
            k_clusters=config.curation.dedup_k,
            epsilon=config.curation.dedup_epsilon,
            seed=seed, query_text=query)
        write_jsonl(os.path.join(out, "filter_reports.jsonl"),
                    (r.to_dict() for r in reports))
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")

    if fused_by_id is None and args.model:
        model = load_model(args.model)
        fused = engine.fused_outputs(samples, model)
        fused_by_id = {s.sample_id: fused[i] for i, s in enumerate(samples)}
    stats, coords = blend_stats(blend, samples_by_id, fused_by_id)
    write_blend(out, "blend", blend, samples_by_id, stats, coords)
    if args.export_instructions:
        from .dataio import write_instruction_dataset
        write_instruction_dataset(os.path.join(out, "instructions.jsonl"),
                                  samples, blend, config.curation.instruction)
    write_manifest(out, "curate", _args_dict(args), config,
                   extra={"strategy": strategy, "n": n, "seed": seed})
    if blend.warning:
        print(f"warning: {blend.warning}", file=sys.stderr)
    print(f"selected {len(blend)} samples via {strategy}; "
          f"pools {blend.per_pool}; modalities {blend.per_modality}")
    return 0


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

def _recall10_by_expert(engine, samples):
    out = {}
    ids = [s.sample_id for s in samples]
    for eid in engine.expert_order:
        raw_m, ann_m = engine.expert_space(samples, eid)
        recall = bidirectional_recall(raw_m, ann_m, ids, [10])
        out[eid] = {direction: table[10] for direction, table in recall.items()}
    return out


def _ablate_rho(engine, config, samples, out):
    cells = []
    acceptance = {}
    for rho in RHO_GRID:
        sns_config = SnsConfig(direction=config.sns.direction,
                               tau_alpha=dict(config.sns.tau_alpha),
                               tau_beta=dict(config.sns.tau_beta),
                               rho=rho, reinject=config.sns.reinject)
        emitted, records = _run_sns(engine, samples, sns_config)
        rate = sum(1 for r in records if r.accepted) / len(records)
        acceptance[str(rho)] = rate
        recalls = _recall10_by_expert(engine, emitted)
        for eid, values in recalls.items():
            for direction, value in values.items():
                cells.append({"rho": rho, "expert": eid, "direction": direction,
                              "r_at_10": value})
    doc = {"note": DESK_SCALE_NOTE, "grid": "rho", "rho_values": list(RHO_GRID),
           "direction": config.sns.direction, "acceptance_rate": acceptance,
           "cells": cells}
    write_json(os.path.join(out, "ablate_rho.json"), doc)
    lines = [DESK_SCALE_NOTE, "", "R@10 by expert and MI gate ratio", ""]
    for direction, label in (("R2A", "(a) Raw -> Annotation"),
                             ("A2R", "(b) Annotation -> Raw")):
        rows = []
        for eid in engine.expert_order:
            row = [eid]
            for rho in RHO_GRID:
                val = next(c["r_at_10"] for c in cells
                           if c["expert"] == eid and c["direction"] == direction
                           and c["rho"] == rho)
                row.append(f"{val:.2f}")
            rows.append(row)
        lines.append(label)
        lines.append(format_table(["expert"] + [f"rho={r}" for r in RHO_GRID], rows))
    lines.append("Acceptance rate by rho")
    lines.append(format_table(["rho", "acceptance"],
                              [[r, f"{acceptance[str(r)]:.3f}"] for r in RHO_GRID]))
    with open(os.path.join(out, "ablate_rho.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _ablate_tau(engine, config, samples, out):
    cells = []
    for ta in TAU_GRID:
        for tb in TAU_GRID:
            sns_config = SnsConfig(direction="bidirectional",
                                   tau_alpha=ta, tau_beta=tb,
                                   rho=config.sns.rho, reinject=config.sns.reinject)
            emitted, _ = _run_sns(engine, samples, sns_config)
            recalls = _recall10_by_expert(engine, emitted)
            mean_r2a = float(np.mean([v["R2A"] for v in recalls.values()]))
            mean_a2r = float(np.mean([v["A2R"] for v in recalls.values()]))
            cells.append({"tau_alpha": ta, "tau_beta": tb,
                          "R2A_r10": mean_r2a, "A2R_r10": mean_a2r})
    doc = {"note": DESK_SCALE_NOTE, "grid": "tau", "tau_values": list(TAU_GRID),
           "cells": cells}
    write_json(os.path.join(out, "ablate_tau.json"), doc)
    rows = [[c["tau_alpha"], c["tau_beta"], f"{c['R2A_r10']:.2f}", f"{c['A2R_r10']:.2f}"]
            for c in cells]
    with open(os.path.join(out, "ablate_tau.txt"), "w", encoding="utf-8") as fh:
        fh.write(DESK_SCALE_NOTE + "\n\nMean R@10 over experts by thresholds\n")
        fh.write(format_table(["tau_alpha", "tau_beta", "R2A R@10", "A2R R@10"], rows))


def _ablate_lambda_depth(engine, config, samples, out, steps):
    inputs = engine.fused_inputs(samples)
    anchors = engine.anchor_matrix(samples)
    modalities = [s.raw_modality for s in samples]
    ids = [s.sample_id for s in samples]
    tcfg = dataclasses.replace(config.train, step_count=steps)
    rows = []
    for task, scale, cluster in LAMBDA_GRID:
        for depth in DEPTH_GRID:
            weights = LossWeights(lambda_task=task, lambda_cluster=cluster,
                                  lambda_scale=scale,
                                  temperature=config.loss.temperature)
            model = init_projection(inputs.shape[1], engine.dim, depth,
                                    hidden_dim=config.projection.hidden_dim,
                                    seed=tcfg.seed)
            model, _ = train(inputs, anchors, modalities, model, tcfg, weights)
            fused, _ = forward(model, inputs)
            recall = bidirectional_recall(fused, anchors, ids, [1, 3, 5])
            mean_r = {k: (recall["R2A"][k] + recall["A2R"][k]) / 2.0 for k in (1, 3, 5)}
            rows.append({"lambda_task": task, "lambda_scale": scale,
                         "lambda_cluster": cluster, "layers": depth,
                         "R1": mean_r[1], "R3": mean_r[3], "R5": mean_r[5]})
    rows.sort(key=lambda r: -r["R1"])
    doc = {"note": DESK_SCALE_NOTE, "grid": "lambda-depth", "steps": steps,
           "metric": "mean recall (avg of A2R and R2A)", "cells": rows}
    write_json(os.path.join(out, "ablate_lambda_depth.json"), doc)
    table_rows = [[r["lambda_task"], r["lambda_scale"], r["lambda_cluster"], r["layers"],
                   f"{r['R1']:.4f}", f"{r['R3']:.4f}", f"{r['R5']:.4f}"] for r in rows]
    with open(os.path.join(out, "ablate_lambda_depth.txt"), "w", encoding="utf-8") as fh:
        fh.write(DESK_SCALE_NOTE + "\n\nMean recall (avg of A2R and R2A) by loss "
                 "weights and depth\n")
        fh.write(format_table(["task", "scale", "cluster", "layers", "R@1", "R@3", "R@5"],
                              table_rows))


def cmd_ablate(args) -> int:
    config, engine = _load_engine(args)
    out = _ensure_out(args)
    samples = ingest(args.corpus)
    if args.grid == "rho":
        _ablate_rho(engine, config, samples, out)
    elif args.grid == "tau":
        _ablate_tau(engine, config, samples, out)
    elif args.grid == "lambda-depth":
        _ablate_lambda_depth(engine, config, samples, out, args.steps or 300)
    else:
        raise ConfigError(f"unknown grid {args.grid!r}")
    write_manifest(out, "ablate", _args_dict(args), config, extra={"grid": args.grid})
    print(f"wrote ablate_{args.grid.replace('-', '_')} artifacts to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emblend",
                                     description="multimodal datablend curation engine")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="engine config YAML")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic benchmark corpus")
    common(p)
    p.add_argument("--pools", type=int, default=4)
    p.add_argument("--samples-per-pool", type=int, default=500)
    p.add_argument("--modalities", help="comma-separated, cycled over pools")
    p.add_argument("--clusters", type=int, default=8)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--semantic-dim", type=int, default=16)
    p.add_argument("--gap", type=float, default=1.25)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--distractors", type=int, default=2)
    p.add_argument("--annotation-extras", type=int, default=1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("embed", help="populate embedding caches for all experts")
    common(p)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("sns", help="apply nucleus subsampling over a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--tau-alpha", type=float, default=None)
    p.add_argument("--tau-beta", type=float, default=None)
    p.add_argument("--direction", choices=("off", "forward", "backward", "bidirectional"),
                   default=None)
    p.set_defaults(func=cmd_sns)

    p = sub.add_parser("train", help="fit the fusion projection")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lambda-task", type=float, default=None)
    p.add_argument("--lambda-cluster", type=float, default=None)
    p.add_argument("--lambda-scale", type=float, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="recall tables, gap report, clustering diagnostic")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--k", help="comma-separated K values")
    p.add_argument("--export-embeddings", action="store_true",
                   help="also write fused and anchor vectors for external plotting")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("curate", help="build a datablend")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--strategy",
                   choices=("eee_projection", "uniform", "stratified", "traditional"),
                   default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--query", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--export-instructions", action="store_true",
                   help="also write a prompt/completion JSONL of the blend")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("ablate", help="sweep a hyperparameter grid")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--grid", choices=("rho", "tau", "lambda-depth"), required=True)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_ablate)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, InvariantViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RemoteFailure, DescriberFailure) as exc:
        print(f"remote failure: {exc}", file=sys.stderr)
        return 3
    except EmblendError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
