"""The four workloads: how each builds its inputs and what its timed part runs.

Every workload is a closed loop with one caller: the timed part runs its
emblend subcommands one after another, in process, through
``emblend.cli.run``. Set-up generates every input from the workload seed and
hands the program only generated files.

``setup(name, work, seed, processes)`` returns a plan for ``worker.py``:
  stages     [stage metric, argv] run in order by each timed iteration
  fresh      directories removed before each iteration
  restore    [snapshot, target]: target is replaced by a copy of snapshot
             before each iteration, or None
  artifacts  directories whose files are hashed after each iteration
  sns_logs   nucleus logs counted after each iteration (records, errors)
  stub_url   base URL of the remote stub, whose counters the worker reads, or None
plus what the output checks need.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import yaml

import common

WORKLOADS = ("ingest", "fit", "select", "remote_ingest")

POOLS = 4
INGEST_SAMPLES = 500        # per pool; 15 (item, expert) embeddings per pair
REMOTE_SAMPLES = 25         # per pool; one POST per (item, expert) today
FIT_SAMPLES = 500           # the acceptance c3/c4 corpus size
FIT_STEPS = 1500
TRAIN_SEED = 11
SELECT_MODEL_STEPS = 300
CURATE_N = 1000
STRATEGIES = ("eee_projection", "uniform", "stratified", "traditional")
REMOTE_MAX_IN_FLIGHT = 2
FIT_RECALL_BAR = 0.90


def cli(argv) -> None:
    """Run one emblend subcommand quietly; raise SetupError when it fails."""
    from emblend.cli import run
    with contextlib.redirect_stdout(io.StringIO()):
        rc = run(argv)
    if rc != 0:
        raise common.SetupError(f"emblend {argv[0]} exited {rc} during set-up")


def _write_yaml(doc, path) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    return path


def _synth(work, seed, samples, *extra):
    out = os.path.join(work, "synth")
    cli(["synth", "--out", out, "--pools", str(POOLS), "--samples-per-pool", str(samples),
         "--seed", str(seed), *extra])
    with open(os.path.join(out, "config.yaml"), encoding="utf-8") as fh:
        config = yaml.safe_load(fh)
    return os.path.join(out, "corpus.jsonl"), config


def _embed_sns_plan(work, corpus, config_path):
    out = os.path.join(work, "out")
    args = ["--config", config_path, "--corpus", corpus]
    return {
        "stages": [["embed_s", ["embed", *args, "--out", os.path.join(out, "embed")]],
                   ["sns_s", ["sns", *args, "--out", os.path.join(out, "sns")]]],
        "fresh": [os.path.join(work, "cache"), out],
        "restore": None,
        "artifacts": [out, os.path.join(work, "cache")],
        "sns_logs": [os.path.join(out, "sns", "nucleus_log.jsonl")],
        "stub_url": None,
        "corpus": corpus,
        "config": config_path,
        "sns_out": os.path.join(out, "sns"),
    }


def setup_ingest(work, seed):
    corpus, config = _synth(work, seed, INGEST_SAMPLES)
    config["cache_dir"] = os.path.join(work, "cache")
    return _embed_sns_plan(work, corpus, _write_yaml(config, os.path.join(work, "config.yaml")))


def setup_fit(work, seed):
    corpus, _ = _synth(work, seed, FIT_SAMPLES, "--gap", "1.8", "--noise", "0.02",
                       "--distractors", "0", "--annotation-extras", "0")
    with open(os.path.join(common.ROOT, "configs", "gap-collapse.yaml"), encoding="utf-8") as fh:
        config = yaml.safe_load(fh)
    config["cache_dir"] = os.path.join(work, "cache")
    config_path = _write_yaml(config, os.path.join(work, "config.yaml"))
    args = ["--config", config_path, "--corpus", corpus]
    cli(["embed", *args, "--out", os.path.join(work, "warm")])
    out = os.path.join(work, "out")
    model = os.path.join(out, "train", "model.json")
    return {
        "stages": [["train_s", ["train", *args, "--steps", str(FIT_STEPS),
                                "--seed", str(TRAIN_SEED), "--out", os.path.join(out, "train")]],
                   ["eval_s", ["eval", *args, "--model", model,
                               "--out", os.path.join(out, "eval")]]],
        "fresh": [out],
        "restore": None,
        "artifacts": [out, os.path.join(work, "cache")],
        "sns_logs": [],
        "stub_url": None,
        "train_log": os.path.join(out, "train", "train_log.jsonl"),
        "eval_json": os.path.join(out, "eval", "eval.json"),
    }


def setup_select(work, seed):
    corpus, config = _synth(work, seed, INGEST_SAMPLES)
    cache = os.path.join(work, "cache")
    config["cache_dir"] = cache
    config_path = _write_yaml(config, os.path.join(work, "config.yaml"))
    prep = os.path.join(work, "prep")
    cli(["embed", "--config", config_path, "--corpus", corpus,
         "--out", os.path.join(prep, "embed")])
    cli(["sns", "--config", config_path, "--corpus", corpus, "--out", os.path.join(prep, "sns")])
    trimmed = os.path.join(prep, "sns", "trimmed.jsonl")
    cli(["train", "--config", config_path, "--corpus", trimmed,
         "--steps", str(SELECT_MODEL_STEPS), "--seed", str(TRAIN_SEED),
         "--out", os.path.join(prep, "model")])
    snapshot = os.path.join(work, "cache.setup")
    shutil.copytree(cache, snapshot)
    model = os.path.join(prep, "model", "model.json")
    out = os.path.join(work, "out")
    args = ["--config", config_path, "--corpus", trimmed, "--model", model]
    stages = [["eval_s", ["eval", *args, "--out", os.path.join(out, "eval")]]]
    for strategy in STRATEGIES:
        stages.append(["curate_s", ["curate", *args, "--strategy", strategy,
                                    "--n", str(CURATE_N),
                                    "--out", os.path.join(out, f"curate-{strategy}")]])
    return {
        "stages": stages,
        "fresh": [out],
        "restore": [snapshot, cache],
        "artifacts": [out, cache],
        "sns_logs": [],
        "stub_url": None,
        "eval_json": os.path.join(out, "eval", "eval.json"),
        "blend_dirs": {s: os.path.join(out, f"curate-{s}") for s in STRATEGIES},
    }


def start_stub(spec_path):
    """Start the remote stub as its own process; returns (process, base URL)."""
    proc = subprocess.Popen([sys.executable, os.path.join(common.BENCH_DIR, "stub.py"),
                             spec_path], stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    if len(line) != 2 or line[0] != "PORT":
        stop_process(proc)
        raise common.SetupError("remote stub did not start")
    return proc, f"http://127.0.0.1:{int(line[1])}/"


def stop_process(proc) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def setup_remote_ingest(work, seed, processes):
    corpus, config = _synth(work, seed, REMOTE_SAMPLES)
    gating = next(e for e in config["experts"] if e["expert_id"] == config["gating_expert"])
    spec_path = os.path.join(work, "stub_spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"experts": config["experts"],
                   "describe_semantic_dim": gating["semantic_dim"]}, fh)
    proc, url = start_stub(spec_path)
    processes.append(proc)
    local = dict(config, cache_dir=os.path.join(work, "local", "cache"))
    local_path = _write_yaml(local, os.path.join(work, "local.yaml"))
    config["experts"] = [dict(e, kind="remote", endpoint=url, model=e["expert_id"])
                         for e in config["experts"]]
    config["remote"] = {"describe_endpoint": url, "max_in_flight": REMOTE_MAX_IN_FLIGHT}
    config["cache_dir"] = os.path.join(work, "cache")
    plan = _embed_sns_plan(work, corpus, _write_yaml(config, os.path.join(work, "config.yaml")))
    plan["stub_url"] = url
    plan["local_config"] = local_path
    return plan


def setup(name, work, seed, processes):
    """Build one workload's inputs under ``work``; started processes go to ``processes``."""
    os.makedirs(work)
    if name == "ingest":
        return setup_ingest(work, seed)
    if name == "fit":
        return setup_fit(work, seed)
    if name == "select":
        return setup_select(work, seed)
    if name == "remote_ingest":
        return setup_remote_ingest(work, seed, processes)
    raise ValueError(f"unknown workload {name!r}")
