"""SHA-256 of every artifact of one fixed emblend pipeline run.

    python3 tools/artifact_hashes.py CHECKOUT OUT_DIR

Runs the emblend sources under ``CHECKOUT/src`` in subprocesses, with
``OUT_DIR`` (created; must be empty) as the working directory and only
relative paths on the command line, so that the manifests of two checkouts
compare equal. BLAS and OpenMP pools are pinned to one thread. The pipeline:

  synth 4x150 (seed 7) -> embed into a cache twice (cold, then warm) -> sns
  -> train 300 steps and eval --export-embeddings, once with
     configs/default.yaml and once with configs/gap-collapse.yaml
  -> curate with all four strategies (gap-collapse model, n=200)
  -> ablate the rho grid and the lambda-depth grid (60 steps)
  -> the same stages again with their override flags set: sns with every SNS
     flag; train with --layers, --batch-size, the loss flags, --seed and
     --steps, then eval --k of that model; curate traditional with --query,
     --seed, --n and --export-instructions (instructions.jsonl carries each
     sample's annotation_text); the tau ablation grid
  -> sns --direction backward on the synth corpus plus one video pair whose
     raw components are the @vec payloads p and -p: their payload mean is 0,
     so the batch of descriptions fails and is bisected down to that pair,
     while the pair's embedded side (modality offset and noise added) still
     normalizes

Prints one ``sha256  relpath`` line per file under OUT_DIR, sorted by path.
Two checkouts produce byte-identical artifacts exactly when

    diff <(python3 tools/artifact_hashes.py A /tmp/a) \\
         <(python3 tools/artifact_hashes.py B /tmp/b)

prints nothing.
"""
from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys

import yaml

PRESETS = ("default", "gap-collapse")
STRATEGIES = ("eee_projection", "uniform", "stratified", "traditional")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pipeline():
    """The emblend command lines, in order, relative to the output directory."""
    corpus = ["--corpus", "synth/corpus.jsonl"]
    trimmed = ["--corpus", "sns/trimmed.jsonl"]
    steps = [
        ["synth", "--out", "synth", "--pools", "4", "--samples-per-pool", "150",
         "--seed", "7"],
        ["embed", "--config", "cached.yaml", *corpus, "--out", "embed_cold"],
        ["embed", "--config", "cached.yaml", *corpus, "--out", "embed_warm"],
        ["sns", "--config", "cached.yaml", *corpus, "--out", "sns"],
    ]
    for preset in PRESETS:
        config = ["--config", f"configs/{preset}.yaml"]
        steps.append(["train", *config, *trimmed, "--steps", "300",
                      "--out", f"train_{preset}"])
        steps.append(["eval", *config, *trimmed, "--model", f"train_{preset}/model.json",
                      "--export-embeddings", "--out", f"eval_{preset}"])
    for strategy in STRATEGIES:
        steps.append(["curate", "--config", "configs/gap-collapse.yaml", *trimmed,
                      "--model", "train_gap-collapse/model.json", "--strategy", strategy,
                      "--n", "200", "--out", f"curate_{strategy}"])
    steps.append(["ablate", "--config", "cached.yaml", *corpus, "--grid", "rho",
                  "--out", "ablate_rho"])
    steps.append(["ablate", "--config", "cached.yaml", *corpus, "--grid", "lambda-depth",
                  "--steps", "60", "--out", "ablate_lambda_depth"])
    steps += [
        ["sns", "--config", "cached.yaml", *corpus, "--direction", "forward",
         "--rho", "0.95", "--tau-alpha", "0.2", "--tau-beta", "0.1", "--out", "sns_flags"],
        ["train", "--config", "configs/default.yaml", *trimmed, "--layers", "1",
         "--batch-size", "64", "--lambda-task", "0.99", "--lambda-cluster", "0.01",
         "--lambda-scale", "0.001", "--temperature", "0.1", "--seed", "3",
         "--steps", "60", "--out", "train_flags"],
        ["eval", "--config", "configs/default.yaml", *trimmed,
         "--model", "train_flags/model.json", "--k", "1,5", "--out", "eval_flags"],
        ["curate", "--config", "configs/gap-collapse.yaml", *trimmed,
         "--model", "train_gap-collapse/model.json", "--strategy", "traditional",
         "--query", "people outdoors", "--seed", "11", "--n", "50",
         "--export-instructions", "--out", "curate_flags"],
        ["ablate", "--config", "cached.yaml", *corpus, "--grid", "tau",
         "--out", "ablate_tau"],
        ["sns", "--config", "cached.yaml", "--corpus", "retry/corpus.jsonl",
         "--direction", "backward", "--out", "sns_retry"],
    ]
    return steps


def write_cached_config(out_dir) -> None:
    """The synth config with a shared embedding cache under ``cache/``."""
    with open(os.path.join(out_dir, "synth", "config.yaml"), encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    doc["cache_dir"] = "cache"
    with open(os.path.join(out_dir, "cached.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)


def write_retry_corpus(out_dir) -> None:
    """``retry/corpus.jsonl``: the synth corpus, then one video pair whose raw
    components are the payloads p and -p of the gating expert's semantic dim,
    written as ``@vec:`` base64 of little-endian float32."""
    with open(os.path.join(out_dir, "synth", "config.yaml"), encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    gating = next(e for e in doc["experts"] if e["expert_id"] == doc["gating_expert"])
    payload = [(k % 5) - 1.5 for k in range(gating["semantic_dim"])]

    def vec(values):
        raw = struct.pack(f"<{len(values)}f", *values)
        return "@vec:" + base64.b64encode(raw).decode("ascii")

    record = {"sample_id": "retry-00000", "pool_id": "retry", "modality": "video",
              "components": [vec(payload), vec([-x for x in payload])],
              "annotation": ["A clip whose frames cancel."]}
    os.makedirs(os.path.join(out_dir, "retry"))
    shutil.copyfile(os.path.join(out_dir, "synth", "corpus.jsonl"),
                    os.path.join(out_dir, "retry", "corpus.jsonl"))
    with open(os.path.join(out_dir, "retry", "corpus.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def run_pipeline(checkout, out_dir) -> None:
    src = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(src, "emblend", "cli.py")):
        sys.exit(f"no emblend sources under {src}")
    env = dict(os.environ, PYTHONPATH=src, **{var: "1" for var in THREAD_VARS})
    for var in ("EMBLEND_REMOTE_ENDPOINT", "EMBLEND_DESCRIBE_ENDPOINT",
                "EMBLEND_REMOTE_API_KEY"):
        env.pop(var, None)
    shutil.copytree(os.path.join(checkout, "configs"), os.path.join(out_dir, "configs"))
    for argv in pipeline():
        proc = subprocess.run([sys.executable, "-m", "emblend.cli", *argv], cwd=out_dir,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"emblend {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
        if argv[0] == "synth":
            write_cached_config(out_dir)
            write_retry_corpus(out_dir)


def artifact_hashes(out_dir) -> list:
    lines = []
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, out_dir), digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="repository checkout whose src/ is run")
    parser.add_argument("out_dir", help="working directory for the run (created)")
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    out_dir = os.path.abspath(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    if os.listdir(out_dir):
        sys.exit(f"{out_dir} is not empty")
    run_pipeline(checkout, out_dir)
    print("\n".join(artifact_hashes(out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
