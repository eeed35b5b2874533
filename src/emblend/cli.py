"""Command-line surface tying the modules into experiment flows.

Subcommands: synth, embed, sns, train, eval, curate, ablate. All but synth
share one set-up path: load --config, lay the subcommand's flags over it
(FLAG_FIELDS), build the Engine, create --out and ingest --corpus. A flag's
text is read as the type of the config field it overrides and then checked
exactly like that field, so text that is no such value, or a value the
config file would reject, exits 1. Every run writes a manifest.json with
the resolved configuration, seeds and versions, sufficient to reproduce
its artifacts byte for byte. Exit codes: 0 success, 1 validation error, 2
runtime failure, 3 remote-service failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections import Counter

import numpy as np

from . import __version__
from .config import (EngineConfig, config_from_dict, field_type, load_config, save_config,
                     with_overrides)
from .curation import (blend_stats, curate_topn, sample_stratified,
                       sample_uniform, traditional_pipeline)
from .dataio import (Corpus, ingest, write_blend, write_corpus, write_instruction_dataset,
                     write_json, write_jsonl, write_nucleus_log)
from .engine import Engine
from .errors import (ConfigError, DescriberFailure, EmblendError, InsufficientSamples,
                     InvariantViolation, ParseError, RemoteFailure)
from .projection import (LossWeights, forward, init_projection, load_model,
                         save_model, train)
from .retrieval import (bidirectional_recall, check_clustering_samples,
                        gap_reduction, is_clustered, modality_gap)
from .sns import calibrate_taus, run_sns
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


def write_manifest(out_dir, args, config: EngineConfig, extra=None):
    doc = {
        "command": args.command,
        "args": {k: v for k, v in sorted(vars(args).items())
                 if v is not None and k != "func"},
        "config": config.to_dict(),
        "versions": {
            "emblend": __version__,
            "numpy": np.__version__,
        },
    }
    if extra:
        doc.update(extra)
    write_json(os.path.join(out_dir, "manifest.json"), doc)


def write_report(path, text: str) -> None:
    """A text report: the desk-scale note, a blank line, then ``text``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(DESK_SCALE_NOTE + "\n\n" + text)


def _setup(args, cache_under_out=False):
    """Load --config under the subcommand's FLAG_FIELDS, create --out, build
    the Engine and ingest --corpus. Returns the config the manifest records,
    the settings the run uses (that config plus the RUN_ONLY flags), the
    engine, the output directory and the corpus. ``cache_under_out`` gives
    a config without a cache directory one under --out.
    """
    if not args.config:
        raise ConfigError("--config is required for this command")
    flags = {field: getattr(args, dest) for dest, field in FLAG_FIELDS[args.command]
             if getattr(args, dest) not in (None, "")}
    config = with_overrides(load_config(args.config),
                            {f: v for f, v in flags.items() if f not in RUN_ONLY})
    out = args.out or "runs/out"
    if cache_under_out and not config.cache_dir:
        config.cache_dir = os.path.join(out, "cache")
    settings = with_overrides(config, {f: v for f, v in flags.items() if f in RUN_ONLY})
    os.makedirs(out, exist_ok=True)
    return config, settings, Engine(config), out, ingest(args.corpus)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
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
    out = args.out or "runs/out"
    os.makedirs(out, exist_ok=True)
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
    }
    config = config_from_dict(doc)
    engine = Engine(config)
    tau_alpha, tau_beta = calibrate_taus(Corpus.from_pairs(samples[:200]), engine.gating)
    config.sns.tau_alpha = tau_alpha
    config.sns.tau_beta = tau_beta
    config_path = os.path.join(out, "config.yaml")
    save_config(config, config_path)
    write_manifest(out, args, config,
                   extra={"synth_spec": dataclasses.asdict(spec)})
    print(f"wrote {len(samples)} samples to {corpus_path}")
    print(f"wrote engine config to {config_path}")
    return 0


def cmd_embed(args) -> int:
    config, _, engine, out, corpus = _setup(args, cache_under_out=True)
    counts = engine.populate_caches(corpus)
    write_manifest(out, args, config)
    write_json(os.path.join(out, "embed_summary.json"),
               {"corpus": os.path.basename(args.corpus), "samples": len(corpus),
                "items_per_expert": counts, "cache_dir": config.cache_dir})
    for eid, n in sorted(counts.items()):
        print(f"expert {eid}: {n} items cached")
    return 0


def cmd_sns(args) -> int:
    config, _, engine, out, corpus = _setup(args)
    results = run_sns(corpus, config.sns, engine.gating, engine.describe_fn())
    emitted = [pair for pair, _ in results]
    records = [rec for _, rec in results]
    write_corpus(os.path.join(out, "trimmed.jsonl"), emitted)
    write_nucleus_log(os.path.join(out, "nucleus_log.jsonl"), records)
    accepted = sum(1 for r in records if r.accepted)
    errors = sum(1 for r in records if r.error is not None)
    bytes_before = sum(r.size_before[0] + r.size_before[1] for r in records)
    bytes_after = sum(r.size_after[0] + r.size_after[1] for r in records)
    summary = {
        "samples": len(records),
        "accepted": accepted,
        "acceptance_rate": accepted / len(records) if records else 0.0,
        "errors": errors,
        "bytes_before": bytes_before,
        "bytes_after": bytes_after,
        "direction": config.sns.direction,
        "rho": config.sns.rho,
    }
    write_json(os.path.join(out, "sns_summary.json"), summary)
    write_manifest(out, args, config)
    print(f"accepted {accepted}/{len(records)} nucleus variants "
          f"({summary['acceptance_rate']:.3f}); errors {errors}; "
          f"bytes {bytes_before} -> {bytes_after}")
    return 0


def _fit(config, inputs, anchors, modalities, layers, train_config, weights):
    """A fresh ``layers``-layer projection of the config's hidden width,
    trained on ``inputs`` against ``anchors``, and its log."""
    model = init_projection(inputs.shape[1], anchors.shape[1], layers,
                            hidden_dim=config.projection.hidden_dim, seed=train_config.seed)
    return train(inputs, anchors, modalities, model, train_config, weights)


def cmd_train(args) -> int:
    config, settings, engine, out, corpus = _setup(args)
    layers = settings.projection.layer_count
    model, log = _fit(config, engine.fused_inputs(corpus), engine.anchor_matrix(corpus),
                      corpus.modalities, layers, config.train, config.loss)
    save_model(model, os.path.join(out, "model.json"))
    write_jsonl(os.path.join(out, "train_log.jsonl"), log)
    write_manifest(out, args, config,
                   extra={"layer_count": layers, "final_loss": log[-1]["L_total"]})
    print(f"trained {layers}-layer projection for {config.train.step_count} steps; "
          f"final L_total {log[-1]['L_total']:.6f}")
    return 0


def _load_model(path, engine):
    """The projection model at ``path``, which must map the engine's fused
    input (every expert's raw side, concatenated) to its embedding dim."""
    model = load_model(path)
    want = (engine.n_experts * engine.dim, engine.dim)
    if (model.input_dim, model.output_dim) != want:
        raise ConfigError(f"{path}: model maps {model.input_dim} to {model.output_dim} dims, "
                          f"but the config's experts need {want[0]} to {want[1]}")
    return model


def _space_metrics(raw, anchors, modalities, k_values, workspace):
    """Recall tables, gap report and clustering flag of one space. The gap
    report's intra/inter statistics are the clustering diagnostic's, over
    the same raw + anchor cloud, so they are computed once. Every O(n^2)
    product of both passes is written into ``workspace``."""
    n = raw.shape[0]
    recall = bidirectional_recall(raw, anchors, [f"s{i}" for i in range(n)], k_values,
                                  workspace)
    gaps = modality_gap(raw, anchors, modalities, workspace)
    return recall, gaps, is_clustered(gaps.intra, gaps.inter)


def cmd_eval(args) -> int:
    config, _, engine, out, corpus = _setup(args)
    model = _load_model(args.model, engine)
    try:
        k_values = [int(k) for k in args.k.split(",")] if args.k else [1, 3, 5, 10]
    except ValueError:
        raise ConfigError(f"--k must be comma-separated integers, got {args.k!r}") from None
    if min(k_values) < 1:
        raise ConfigError(f"--k values must be >= 1, got {args.k}")
    modalities = corpus.modalities
    cloud_tags = modalities + ["text"] * len(corpus)  # the anchors count as text
    check_clustering_samples(cloud_tags)
    # Every input is built before the workspace is touched. The anchor matrix
    # comes first, which fixes a cold cache's record order; then each
    # expert's raw and annotation side matrices, each built once; then the
    # fused outputs, whose forward caches are dropped at once.
    anchors = engine.anchor_matrix(corpus)
    raws, anns = [], []
    for eid in engine.expert_order:
        raws.append(engine.side_matrix(corpus, "raw", eid))
        anns.append(anchors if eid == config.anchor_expert
                    else engine.side_matrix(corpus, "annotation", eid))
    fused = forward(model, np.concatenate(raws, axis=1))[0]
    # the stores and the corpus, but for its ids and modalities, are freed before the
    # workspace is written
    expert_order, n, sample_ids = engine.expert_order, len(corpus), corpus.sample_ids
    del engine, corpus
    # one buffer for the largest product: the n x n recall similarities or
    # the Gram matrix of the cloud's largest modality group
    side = max(n, *Counter(cloud_tags).values())
    workspace = np.empty(side * side)
    recall, gaps, clustered = {}, {}, {}
    for space, raw, ann in zip([*expert_order, "projection"], [*raws, fused],
                               [*anns, anchors]):
        recall[space], gaps[space], clustered[space] = _space_metrics(
            raw, ann, modalities, k_values, workspace)
    del workspace

    reduction = {eid: gap_reduction(gaps["projection"], gaps[eid])
                 for eid in expert_order}
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
    for space in [*expert_order, "projection"]:
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
    write_report(os.path.join(out, "report.txt"),
                 "Modality gaps (L2 between per-modality raw/annotation centroids)\n"
                 + gap_table + "\nRecall\n" + recall_table)
    if args.export_embeddings:
        rows = []
        for space, matrix in (("projection", fused), ("anchor", anchors)):
            for i, (sample_id, modality) in enumerate(zip(sample_ids, modalities)):
                rows.append({"space": space, "sample_id": sample_id,
                             "modality": "text" if space == "anchor" else modality,
                             "vector": [round(float(v), 7) for v in matrix[i]]})
        write_jsonl(os.path.join(out, "embeddings.jsonl"), rows)
    write_manifest(out, args, config)
    print(recall_table)
    return 0


def cmd_curate(args) -> int:
    config, settings, engine, out, corpus = _setup(args)
    strategy, n, query = (settings.curation.strategy, settings.curation.n,
                          settings.curation.query)
    if strategy == "eee_projection" and not args.model:
        raise ConfigError("strategy eee_projection requires --model")

    if strategy == "uniform":
        blend = sample_uniform(corpus, n, config.seed)
    elif strategy == "stratified":
        blend = sample_stratified(corpus, n, config.seed)
    elif strategy == "traditional":
        ann = engine.side_matrix(corpus, "annotation", config.anchor_expert)
        blend, reports = traditional_pipeline(
            corpus, ann, engine.embed_query(query), n,
            filter_config=config.curation.filters,
            k_clusters=config.curation.dedup_k,
            epsilon=config.curation.dedup_epsilon,
            seed=config.seed, query_text=query)
        write_jsonl(os.path.join(out, "filter_reports.jsonl"),
                    (r.to_dict() for r in reports))
    # with --model, the fused rows embed after a baseline's own rows and
    # before the eee_projection query, which fixes a cold cache's record order
    fused = None
    if args.model:
        fused = engine.fused_outputs(corpus, _load_model(args.model, engine))
    if strategy == "eee_projection":
        blend = curate_topn(engine.embed_query(query), corpus, fused, n, query_text=query)
    stats, coords = blend_stats(blend, corpus, fused)
    write_blend(out, "blend", blend, corpus, stats, coords)
    if args.export_instructions:
        write_instruction_dataset(os.path.join(out, "instructions.jsonl"),
                                  corpus, blend, config.curation.instruction)
    write_manifest(out, args, config,
                   extra={"strategy": strategy, "n": n, "seed": config.seed})
    if blend.warning:
        print(f"warning: {blend.warning}", file=sys.stderr)
    print(f"selected {len(blend)} samples via {strategy}; "
          f"pools {blend.per_pool}; modalities {blend.per_modality}")
    return 0


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

def _sns_sweep(engine, corpus, sns_config):
    """One SNS run over ``corpus`` under ``sns_config``: its acceptance rate,
    and each expert's R@10 over the corpus it emits, keyed by (expert,
    direction)."""
    results = run_sns(corpus, sns_config, engine.gating, engine.describe_fn())
    emitted = Corpus.from_pairs(pair for pair, _ in results)
    r10 = {}
    for eid in engine.expert_order:
        raw_m, ann_m = engine.expert_space(emitted, eid)
        recall = bidirectional_recall(raw_m, ann_m, emitted.sample_ids, [10])
        r10.update({(eid, direction): table[10] for direction, table in recall.items()})
    return sum(1 for _, r in results if r.accepted) / len(results), r10


def _ablate_rho(engine, config, corpus, out):
    acceptance, r10 = {}, {}
    for rho in RHO_GRID:
        acceptance[str(rho)], recall = _sns_sweep(engine, corpus,
                                                  dataclasses.replace(config.sns, rho=rho))
        r10.update({(eid, direction, rho): v for (eid, direction), v in recall.items()})
    cells = [{"rho": rho, "expert": eid, "direction": direction, "r_at_10": v}
             for (eid, direction, rho), v in r10.items()]
    doc = {"note": DESK_SCALE_NOTE, "grid": "rho", "rho_values": list(RHO_GRID),
           "direction": config.sns.direction, "acceptance_rate": acceptance,
           "cells": cells}
    write_json(os.path.join(out, "ablate_rho.json"), doc)
    lines = ["R@10 by expert and MI gate ratio", ""]
    for direction, label in (("R2A", "(a) Raw -> Annotation"),
                             ("A2R", "(b) Annotation -> Raw")):
        rows = [[eid] + [f"{r10[eid, direction, rho]:.2f}" for rho in RHO_GRID]
                for eid in engine.expert_order]
        lines += [label, format_table(["expert"] + [f"rho={r}" for r in RHO_GRID], rows)]
    lines += ["Acceptance rate by rho", format_table(
        ["rho", "acceptance"], [[r, f"{acceptance[str(r)]:.3f}"] for r in RHO_GRID])]
    write_report(os.path.join(out, "ablate_rho.txt"), "\n".join(lines))


def _ablate_tau(engine, config, corpus, out):
    cells = []
    for ta in TAU_GRID:
        for tb in TAU_GRID:
            _, r10 = _sns_sweep(engine, corpus, dataclasses.replace(
                config.sns, direction="bidirectional", tau_alpha=ta, tau_beta=tb))
            cells.append({"tau_alpha": ta, "tau_beta": tb, **{
                f"{d}_r10": float(np.mean([r10[eid, d] for eid in engine.expert_order]))
                for d in ("R2A", "A2R")}})
    doc = {"note": DESK_SCALE_NOTE, "grid": "tau", "tau_values": list(TAU_GRID),
           "cells": cells}
    write_json(os.path.join(out, "ablate_tau.json"), doc)
    rows = [[c["tau_alpha"], c["tau_beta"], f"{c['R2A_r10']:.2f}", f"{c['A2R_r10']:.2f}"]
            for c in cells]
    write_report(os.path.join(out, "ablate_tau.txt"),
                 "Mean R@10 over experts by thresholds\n"
                 + format_table(["tau_alpha", "tau_beta", "R2A R@10", "A2R R@10"], rows))


def _ablate_lambda_depth(engine, config, corpus, out, steps):
    tcfg = dataclasses.replace(config.train, step_count=steps)
    inputs = engine.fused_inputs(corpus)
    anchors = engine.anchor_matrix(corpus)
    modalities, ids = corpus.modalities, corpus.sample_ids
    rows = []
    for task, scale, cluster in LAMBDA_GRID:
        for depth in DEPTH_GRID:
            weights = LossWeights(lambda_task=task, lambda_cluster=cluster, lambda_scale=scale,
                                  temperature=config.loss.temperature)
            model, _ = _fit(config, inputs, anchors, modalities, depth, tcfg, weights)
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
    write_report(os.path.join(out, "ablate_lambda_depth.txt"),
                 "Mean recall (avg of A2R and R2A) by loss weights and depth\n"
                 + format_table(["task", "scale", "cluster", "layers", "R@1", "R@3", "R@5"],
                                table_rows))


def cmd_ablate(args) -> int:
    config, _, engine, out, corpus = _setup(args)
    if not len(corpus):  # no grid has a cell to fill
        raise InsufficientSamples(f"ablate needs at least one sample; {args.corpus} has none")
    if args.grid == "rho":
        _ablate_rho(engine, config, corpus, out)
    elif args.grid == "tau":
        _ablate_tau(engine, config, corpus, out)
    elif args.grid == "lambda-depth":
        _ablate_lambda_depth(engine, config, corpus, out, 300 if args.steps is None else args.steps)
    write_manifest(out, args, config, extra={"grid": args.grid})
    print(f"wrote ablate_{args.grid.replace('-', '_')} artifacts to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

# The config field each flag overrides, per subcommand, as (flag, dotted
# field) pairs; build_parser declares each flag from this table. A flag's text
# is read as its field's type; an unset or empty flag keeps the config's
# value, and a set one is checked exactly like that value in the config file.
# RUN_ONLY fields steer the run but stay out of the manifest's config; the
# manifest's extras list them instead.
_SEED = (("seed", "seed"),)
FLAG_FIELDS = {
    "embed": _SEED,
    "sns": _SEED + (("rho", "sns.rho"), ("tau_alpha", "sns.tau_alpha"),
                    ("tau_beta", "sns.tau_beta"), ("direction", "sns.direction")),
    "train": _SEED + (("seed", "train.seed"), ("steps", "train.step_count"),
                      ("batch_size", "train.batch_size"),
                      ("lambda_task", "loss.lambda_task"),
                      ("lambda_cluster", "loss.lambda_cluster"),
                      ("lambda_scale", "loss.lambda_scale"),
                      ("temperature", "loss.temperature"),
                      ("layers", "projection.layer_count")),
    "eval": _SEED,
    "curate": _SEED + (("strategy", "curation.strategy"), ("n", "curation.n"),
                       ("query", "curation.query")),
    "ablate": _SEED,
}
RUN_ONLY = frozenset({"projection.layer_count", "curation.strategy", "curation.n",
                      "curation.query"})


def _flag_type(field: str):
    """The argparse ``type`` of a flag that sets ``field``: it reads the text
    as the field's type, or raises the ConfigError that the config builder
    gives a value of the wrong type."""
    typ = field_type(field)
    where, _, name = field.rpartition(".")

    def convert(text):
        try:
            return typ(text)
        except ValueError:
            message = f"{where} {name} must be {typ.__name__}, got {text!r}"
            raise ConfigError(message.lstrip()) from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emblend",
                                     description="multimodal datablend curation engine")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, func, help_text in (
            ("synth", cmd_synth, "generate a synthetic benchmark corpus"),
            ("embed", cmd_embed, "populate embedding caches for all experts"),
            ("sns", cmd_sns, "apply nucleus subsampling over a corpus"),
            ("train", cmd_train, "fit the fusion projection"),
            ("eval", cmd_eval, "recall tables, gap report, clustering diagnostic"),
            ("curate", cmd_curate, "build a datablend"),
            ("ablate", cmd_ablate, "sweep a hyperparameter grid")):
        p = parsers[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="engine config YAML")
        p.add_argument("--out", help="output directory")
        if name != "synth":
            p.add_argument("--corpus", required=True)
        # as a dict, train's --seed (seed and train.seed) is added once
        for dest, field in dict(FLAG_FIELDS.get(name, ())).items():
            p.add_argument("--" + dest.replace("_", "-"), type=_flag_type(field))

    p = parsers["synth"]
    p.add_argument("--modalities", help="comma-separated, cycled over pools")
    for flag, typ, default in (
            ("--seed", int, None), ("--pools", int, 4), ("--samples-per-pool", int, 500),
            ("--clusters", int, 8), ("--dim", int, 32), ("--semantic-dim", int, 16),
            ("--gap", float, 1.25), ("--noise", float, 0.02), ("--distractors", int, 2),
            ("--annotation-extras", int, 1)):
        p.add_argument(flag, type=typ, default=default)

    p = parsers["eval"]
    p.add_argument("--model", required=True)
    p.add_argument("--k", help="comma-separated K values")
    p.add_argument("--export-embeddings", action="store_true",
                   help="also write fused and anchor vectors for external plotting")

    p = parsers["curate"]
    p.add_argument("--model")
    p.add_argument("--export-instructions", action="store_true",
                   help="also write a prompt/completion JSONL of the blend")

    p = parsers["ablate"]
    p.add_argument("--grid", choices=("rho", "tau", "lambda-depth"), required=True)
    p.add_argument("--steps", type=_flag_type("train.step_count"))
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
