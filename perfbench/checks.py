"""Output checks. Each returns a list of problems; an empty list passes."""
from __future__ import annotations

import json
import math
import os

import yaml

import workloads


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def sns_gate(corpus, sns_out, config_path) -> list:
    """An accepted pair has sim_variant >= rho * sim_original; a rejected
    pair is emitted byte-identical to its input line."""
    with open(config_path, encoding="utf-8") as fh:
        rho = float(yaml.safe_load(fh)["sns"]["rho"])
    inputs = _lines(corpus)
    emitted = _lines(os.path.join(sns_out, "trimmed.jsonl"))
    log = [json.loads(line) for line in _lines(os.path.join(sns_out, "nucleus_log.jsonl"))]
    if not (len(inputs) == len(emitted) == len(log)):
        return [f"sns: {len(inputs)} inputs, {len(emitted)} emitted, {len(log)} log records"]
    problems = []
    for src, out, rec in zip(inputs, emitted, log):
        sid = rec["sample_id"]
        if rec["accepted"]:
            if rec["sim_variant"] is None or rec["sim_variant"] < rho * rec["sim_original"]:
                problems.append(f"sns: {sid} accepted below the gate")
        elif src != out:
            problems.append(f"sns: rejected {sid} is not byte-identical to its input")
    return problems[:10]


def train_log_finite(path) -> list:
    bad = [rec["step"] for rec in map(json.loads, _lines(path))
           if not all(math.isfinite(v) for k, v in rec.items() if k.startswith("L_"))]
    return [f"train: non-finite loss at steps {bad[:5]}"] if bad else []


def blends(blend_dirs) -> list:
    problems = []
    for strategy, out in blend_dirs.items():
        n = len(_lines(os.path.join(out, "blend.jsonl")))
        if n != workloads.CURATE_N:
            problems.append(f"curate {strategy}: {n} samples, expected {workloads.CURATE_N}")
        if strategy == "stratified":
            with open(os.path.join(out, "blend_stats.json"), encoding="utf-8") as fh:
                per_pool = {p: v["count"] for p, v in json.load(fh)["per_pool"].items()}
            quota = workloads.CURATE_N // workloads.POOLS
            if sorted(per_pool.values()) != [quota] * workloads.POOLS:
                problems.append(f"curate stratified: per-pool counts {per_pool}")
    return problems


def eval_quality(eval_json) -> dict:
    """recall_at_1: projection mean of R2A and A2R R@1; gap_ratio: projection
    average gap over the average gap of the expert with the best R@1."""
    with open(eval_json, encoding="utf-8") as fh:
        doc = json.load(fh)
    recall = doc["recall"]

    def r1(space):
        return (recall[space]["R2A"]["1"] + recall[space]["A2R"]["1"]) / 2.0

    best = max((s for s in recall if s != "projection"), key=r1)
    gaps = doc["gaps"]
    return {"recall_at_1": r1("projection"),
            "gap_ratio": gaps["projection"]["average"] / gaps[best]["average"]}


def same_files(a, b, names) -> list:
    problems = []
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"remote {name} differs from the local run")
    return problems


def deterministic(iterations) -> list:
    """Every iteration reruns the same commands on the same inputs, so every
    artifact must come out byte-identical."""
    first = iterations[0]["hashes"]
    for i, it in enumerate(iterations[1:], start=2):
        if it["hashes"] != first:
            changed = sorted(k for k in set(first) | set(it["hashes"])
                             if first.get(k) != it["hashes"].get(k))
            return [f"iteration {i} artifacts differ from iteration 1: {changed[:5]}"]
    return []
