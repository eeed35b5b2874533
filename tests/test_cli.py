"""End-to-end subcommand tests on a miniature corpus."""
import json
import os

import numpy as np
import pytest
import yaml

from emblend.cli import run

QUERY = "natural, real-world scenes with objects, landscape, subjects, or people"


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("ws")
    synth_dir = root / "synth"
    code = run(["synth", "--out", str(synth_dir), "--pools", "4",
                "--samples-per-pool", "30", "--clusters", "4", "--seed", "5",
                "--distractors", "1", "--annotation-extras", "1"])
    assert code == 0
    return {
        "root": root,
        "corpus": str(synth_dir / "corpus.jsonl"),
        "config": str(synth_dir / "config.yaml"),
    }


def test_synth_outputs(workspace):
    corpus = read_jsonl(workspace["corpus"])
    assert len(corpus) == 120
    config = yaml.safe_load(open(workspace["config"]))
    assert len(config["experts"]) == 3
    assert set(config["sns"]["tau_alpha"]) == {"text", "image", "audio", "video"}
    manifest = read_json(os.path.dirname(workspace["corpus"]) + "/manifest.json")
    assert manifest["command"] == "synth"
    assert "kernel_backend" in manifest["versions"]


def test_embed_populates_caches(workspace, tmp_path):
    out = tmp_path / "emb"
    code = run(["embed", "--config", workspace["config"], "--corpus",
                workspace["corpus"], "--out", str(out)])
    assert code == 0
    summary = read_json(out / "embed_summary.json")
    assert set(summary["items_per_expert"]) == {"e2e", "fusion", "text"}
    caches = list((out / "cache").glob("*.eec"))
    assert len(caches) == 3


def test_sns_run_and_rerun_identical(workspace, tmp_path):
    out1, out2 = tmp_path / "sns1", tmp_path / "sns2"
    for out in (out1, out2):
        code = run(["sns", "--config", workspace["config"], "--corpus",
                    workspace["corpus"], "--out", str(out), "--rho", "1.0",
                    "--direction", "bidirectional"])
        assert code == 0
    assert (out1 / "trimmed.jsonl").read_bytes() == (out2 / "trimmed.jsonl").read_bytes()
    assert (out1 / "nucleus_log.jsonl").read_bytes() == \
        (out2 / "nucleus_log.jsonl").read_bytes()
    log = read_jsonl(out1 / "nucleus_log.jsonl")
    assert len(log) == 120
    summary = read_json(out1 / "sns_summary.json")
    assert summary["bytes_after"] <= summary["bytes_before"]


def test_train_eval_curate_flow(workspace, tmp_path):
    train_out = tmp_path / "train"
    code = run(["train", "--config", workspace["config"], "--corpus",
                workspace["corpus"], "--out", str(train_out), "--steps", "150",
                "--layers", "2", "--seed", "3"])
    assert code == 0
    model_path = train_out / "model.json"
    assert model_path.exists()
    log = read_jsonl(train_out / "train_log.jsonl")
    assert len(log) == 150
    assert {"step", "L_task", "L_cluster", "L_scale", "L_total"} <= set(log[0])

    eval_out = tmp_path / "eval"
    code = run(["eval", "--config", workspace["config"], "--corpus",
                workspace["corpus"], "--model", str(model_path), "--out",
                str(eval_out), "--k", "1,5"])
    assert code == 0
    doc = read_json(eval_out / "eval.json")
    assert set(doc["recall"]) == {"e2e", "fusion", "text", "projection"}
    assert "R2A" in doc["recall"]["projection"] and "A2R" in doc["recall"]["projection"]
    assert "gap_reduction_vs_projection" in doc

    emb_out = tmp_path / "eval-emb"
    code = run(["eval", "--config", workspace["config"], "--corpus",
                workspace["corpus"], "--model", str(model_path), "--out",
                str(emb_out), "--k", "1", "--export-embeddings"])
    assert code == 0
    rows = read_jsonl(emb_out / "embeddings.jsonl")
    assert len(rows) == 2 * 120
    assert {"space", "sample_id", "modality", "vector"} <= set(rows[0])

    curate_out = tmp_path / "curate"
    code = run(["curate", "--config", workspace["config"], "--corpus",
                workspace["corpus"], "--strategy", "eee_projection", "--n", "20",
                "--query", QUERY, "--model", str(model_path), "--out",
                str(curate_out), "--export-instructions"])
    assert code == 0
    assert (curate_out / "instructions.jsonl").exists()
    blend = read_jsonl(curate_out / "blend.jsonl")
    assert len(blend) == 20
    assert {"sample_id", "rank", "score", "pool_id", "modality"} <= set(blend[0])
    assert (curate_out / "blend_coords.csv").exists()
    stats = read_json(curate_out / "blend_stats.json")
    assert stats["n_selected"] == 20


@pytest.mark.parametrize("strategy", ["uniform", "stratified", "traditional"])
def test_sampling_strategies_rerun_identical(workspace, tmp_path, strategy):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{strategy}-{tag}"
        code = run(["curate", "--config", workspace["config"], "--corpus",
                    workspace["corpus"], "--strategy", strategy, "--n", "12",
                    "--seed", "21", "--out", str(out)])
        assert code == 0
        outs.append(out)
    assert (outs[0] / "blend.jsonl").read_bytes() == (outs[1] / "blend.jsonl").read_bytes()
    assert (outs[0] / "blend_stats.json").read_bytes() == \
        (outs[1] / "blend_stats.json").read_bytes()


def test_stratified_composition(workspace, tmp_path):
    out = tmp_path / "strat"
    run(["curate", "--config", workspace["config"], "--corpus", workspace["corpus"],
         "--strategy", "stratified", "--n", "12", "--seed", "2", "--out", str(out)])
    stats = read_json(out / "blend_stats.json")
    assert all(p["count"] == 3 for p in stats["per_pool"].values())


def test_eval_on_degenerate_identical_spaces(tmp_path):
    # fused == anchors: R@1 must be 1.0 and all gaps 0
    from emblend.retrieval import RetrievalIndex, modality_gap, recall_at_k
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 6))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    ids = [f"s{i}" for i in range(12)]
    mods = ["image", "audio", "text"] * 4
    assert recall_at_k(x, ids, RetrievalIndex(ids, x), [1])[1] == 1.0
    report = modality_gap(x, x, mods)
    assert report.average == pytest.approx(0.0)


@pytest.fixture(scope="module")
def small_model(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("small-model")
    assert run(["train", "--config", workspace["config"], "--corpus", workspace["corpus"],
                "--out", str(out), "--steps", "10", "--seed", "4"]) == 0
    return str(out / "model.json")


def test_eval_one_stats_pass_per_space(workspace, small_model, tmp_path, monkeypatch):
    # the gap report and the clustering diagnostic share one distance pass
    from emblend import kernels
    calls = []
    original = kernels.group_distance_stats

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "group_distance_stats", counting)
    assert run(["eval", "--config", workspace["config"], "--corpus", workspace["corpus"],
                "--model", small_model, "--out", str(tmp_path / "eval")]) == 0
    assert calls == [2 * 120] * 4  # 3 experts + projection, raw + anchor cloud each


def test_eval_single_sample_modality_is_exit_2(workspace, small_model, tmp_path, capsys):
    records = read_jsonl(workspace["corpus"])
    audio = [r for r in records if r["modality"] == "audio"]
    assert len(audio) > 1
    kept = [r for r in records if r["modality"] != "audio"] + audio[:1]
    corpus = tmp_path / "one-audio.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in kept))
    code = run(["eval", "--config", workspace["config"], "--corpus", str(corpus),
                "--model", small_model, "--out", str(tmp_path / "eval")])
    assert code == 2
    assert "'audio' has fewer than 2 samples" in capsys.readouterr().err


def test_train_rerun_byte_identical(workspace, tmp_path):
    # rerunning with the same manifest (same args, same out dir) reproduces
    # every artifact byte for byte
    out = tmp_path / "t"
    argv = ["train", "--config", workspace["config"], "--corpus",
            workspace["corpus"], "--out", str(out), "--steps", "60", "--seed", "8"]
    assert run(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(argv) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    assert "model.json" in first and "manifest.json" in first


def test_ablate_rho_grid_shape(workspace, tmp_path):
    out = tmp_path / "ab-rho"
    code = run(["ablate", "--config", workspace["config"], "--corpus",
                workspace["corpus"], "--grid", "rho", "--out", str(out)])
    assert code == 0
    doc = read_json(out / "ablate_rho.json")
    assert doc["rho_values"] == [0.0, 0.8, 0.95, 1.0, 1.02, 1.05, 1.1]
    assert len(doc["cells"]) == 7 * 3 * 2  # rho x experts x directions
    rates = [doc["acceptance_rate"][str(r)] for r in doc["rho_values"]]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_ablate_lambda_depth_grid_shape(workspace, tmp_path):
    out = tmp_path / "ab-ld"
    code = run(["ablate", "--config", workspace["config"], "--corpus",
                workspace["corpus"], "--grid", "lambda-depth", "--out", str(out),
                "--steps", "25"])
    assert code == 0
    doc = read_json(out / "ablate_lambda_depth.json")
    assert len(doc["cells"]) == 27  # 9 weight combos x 3 depths
    assert {"lambda_task", "lambda_scale", "lambda_cluster", "layers",
            "R1", "R3", "R5"} <= set(doc["cells"][0])
    text = (out / "ablate_lambda_depth.txt").read_text()
    assert "task" in text and "layers" in text and "R@1" in text


def test_exit_codes():
    assert run(["sns", "--corpus", "/nonexistent.jsonl"]) == 1  # missing config
    assert run(["eval", "--config", "/nonexistent.yaml", "--corpus", "x",
                "--model", "m"]) in (1, 2)


def test_validation_error_is_exit_1(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("experts: []\n")
    assert run(["embed", "--config", str(bad), "--corpus", "x.jsonl"]) == 1


def test_remote_failure_is_exit_3(tmp_path, workspace):
    cfg = yaml.safe_load(open(workspace["config"]))
    cfg["experts"][0] = {"expert_id": "e2e", "kind": "remote", "dim": 32,
                         "endpoint": "http://127.0.0.1:9/embed"}
    bad = tmp_path / "remote.yaml"
    bad.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "remote-out"
    assert run(["embed", "--config", str(bad), "--corpus", workspace["corpus"],
                "--out", str(out)]) == 3
