"""End-to-end subcommand tests on a miniature corpus."""
import json
import os
import weakref

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
    assert set(manifest["versions"]) == {"emblend", "numpy"}


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


def test_eval_products_share_one_workspace(workspace, small_model, tmp_path, monkeypatch):
    """Every O(n^2) product of eval, recall and gap passes alike, is written
    into one buffer sized to the largest of them, which eval frees."""
    from emblend import kernels
    shapes, bases = [], []
    original = kernels.gram

    def recording(a, b, workspace=None):
        assert workspace is not None, f"a {len(a)} x {len(b)} product in a buffer of its own"
        out = original(a, b, workspace)
        shapes.append(out.shape)
        if not bases or bases[-1]() is not out.base:
            bases.append(weakref.ref(out.base))
        return out

    monkeypatch.setattr(kernels, "gram", recording)
    assert run(["eval", "--config", workspace["config"], "--corpus", workspace["corpus"],
                "--model", small_model, "--out", str(tmp_path / "eval")]) == 0
    assert len(bases) == 1 and bases[0]() is None  # one buffer, gone once eval returned
    assert shapes.count((120, 120)) == 4  # one product for both recall directions, 4 spaces
    assert len(shapes) > 2 * 4
    texts = sum(1 for line in read_jsonl(workspace["corpus"]) if line["modality"] == "text")
    assert max(m * n for m, n in shapes) == (120 + texts) ** 2  # the anchors join the text group


def test_eval_builds_each_side_matrix_once(workspace, small_model, tmp_path, monkeypatch):
    # the anchor expert's annotation side is the anchor matrix, and the
    # projection's input is the experts' raw matrices
    from emblend.engine import Engine
    calls = []
    original = Engine.side_matrix

    def counting(self, samples, side, expert_id):
        calls.append((side, expert_id))
        return original(self, samples, side, expert_id)

    monkeypatch.setattr(Engine, "side_matrix", counting)
    assert run(["eval", "--config", workspace["config"], "--corpus", workspace["corpus"],
                "--model", small_model, "--out", str(tmp_path / "eval")]) == 0
    assert len(calls) == 6 and len(set(calls)) == 6  # 3 raw, 3 annotation
    assert calls[0][0] == "annotation"


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


def test_non_utf8_corpus_line_is_exit_1(workspace, tmp_path, capsys):
    lines = open(workspace["corpus"], "rb").read().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"components":["', b'"components":["\xff', 1)
    assert b"\xff" in lines[2]
    corpus = tmp_path / "bad-utf8.jsonl"
    corpus.write_bytes(b"".join(lines))
    code = run(["embed", "--config", workspace["config"], "--corpus", str(corpus),
                "--out", str(tmp_path / "emb")])
    assert code == 1
    assert "error: line 3: line is not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["a,b", "1,,3"])
def test_eval_non_integer_k_is_exit_1(workspace, small_model, tmp_path, capsys, k):
    code = run(["eval", "--config", workspace["config"], "--corpus", workspace["corpus"],
                "--model", small_model, "--out", str(tmp_path / "eval"), "--k", k])
    assert code == 1
    assert f"error: --k must be comma-separated integers, got {k!r}" in capsys.readouterr().err


def nan_payload_corpus(workspace, tmp_path):
    """The workspace corpus with one non-text sample's payload all NaN."""
    from emblend.experts import encode_payload
    records = read_jsonl(workspace["corpus"])
    config = yaml.safe_load(open(workspace["config"]))
    semantic_dim = config["experts"][0]["semantic_dim"]
    bad = next(r for r in records if r["modality"] != "text")
    bad["components"] = [encode_payload(np.full(semantic_dim, np.nan))]
    corpus = tmp_path / "nan.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(corpus)


def test_embed_nan_payload_is_exit_2(workspace, tmp_path, capsys):
    code = run(["embed", "--config", workspace["config"], "--corpus",
                nan_payload_corpus(workspace, tmp_path), "--out", str(tmp_path / "e")])
    assert code == 2
    assert "norm nan" in capsys.readouterr().err


def test_train_non_finite_loss_is_exit_2(workspace, tmp_path, capsys):
    # a subnormal temperature turns the first step's contrastive logits non-finite
    code = run(["train", "--config", workspace["config"], "--corpus", workspace["corpus"],
                "--out", str(tmp_path / "t"), "--steps", "5", "--batch-size", "256",
                "--temperature", "1e-320"])
    assert code == 2
    assert "step 0: loss term L_task is nan" in capsys.readouterr().err


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


def test_ablate_lambda_depth_zero_steps_is_exit_1(workspace, tmp_path, capsys):
    out = tmp_path / "ab-ld0"
    code = run(["ablate", "--config", workspace["config"], "--corpus",
                workspace["corpus"], "--grid", "lambda-depth", "--out", str(out),
                "--steps", "0"])
    assert code == 1
    assert "error: step_count must be >= 1" in capsys.readouterr().err
    assert not (out / "ablate_lambda_depth.json").exists()


@pytest.mark.parametrize("grid", ["rho", "tau", "lambda-depth"])
def test_ablate_on_an_empty_corpus_is_exit_2_before_any_grid(workspace, tmp_path, capsys, grid):
    """No cell to fill: a ZeroDivisionError (rho) or NaN cells, which are not
    valid JSON (tau), unless the command stops first."""
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    out = tmp_path / "ab-empty"
    code = run(["ablate", "--config", workspace["config"], "--corpus", str(corpus),
                "--grid", grid, "--out", str(out)])
    assert code == 2
    assert "runtime failure: ablate needs at least one sample" in capsys.readouterr().err
    assert not list(out.glob("ablate_*"))


def test_sns_keeps_a_string_annotations_text(workspace, tmp_path):
    """A pair passed through ``sns`` is written with its annotation's own
    text, so ``trimmed.jsonl`` reads back as the input did."""
    corpus = tmp_path / "strings.jsonl"
    corpus.write_text(json.dumps({"sample_id": "s", "modality": "text", "raw": "Red apples.",
                                  "annotation": "A cat.  A dog!\tWhy?"}) + "\n")
    out = tmp_path / "sns-strings"
    assert run(["sns", "--config", workspace["config"], "--corpus", str(corpus),
                "--direction", "off", "--out", str(out)]) == 0
    [record] = read_jsonl(out / "trimmed.jsonl")
    assert record["annotation"] == "A cat.  A dog!\tWhy?"


def test_exit_codes():
    assert run(["sns", "--corpus", "/nonexistent.jsonl"]) == 1  # missing config
    assert run(["eval", "--config", "/nonexistent.yaml", "--corpus", "x",
                "--model", "m"]) in (1, 2)


def test_validation_error_is_exit_1(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("experts: []\n")
    assert run(["embed", "--config", str(bad), "--corpus", "x.jsonl"]) == 1


# settings checked when the config loads, not where they are first used:
# (section, key, value)
BAD_SETTINGS = {"dedup_k 0": ("curation", "dedup_k", 0),
                "remote batch_size 0": ("remote", "batch_size", 0),
                "remote max_in_flight 0": ("remote", "max_in_flight", 0),
                "remote batch_size 2.5": ("remote", "batch_size", 2.5),
                "remote timeout -1": ("remote", "timeout", -1)}


@pytest.mark.parametrize("case", ["not yaml", "expert not a mapping", "seed not a number",
                                  *BAD_SETTINGS])
def test_malformed_config_file_is_exit_1(workspace, tmp_path, capsys, case):
    doc = yaml.safe_load(open(workspace["config"]))
    bad = tmp_path / "bad.yaml"
    if case in BAD_SETTINGS:
        section, key, value = BAD_SETTINGS[case]
        bad.write_text(yaml.safe_dump(dict(doc, **{section: {**doc[section], key: value}})))
    else:
        bad.write_text({"not yaml": "experts: [\n",
                        "expert not a mapping": yaml.safe_dump(dict(doc, experts=[1])),
                        "seed not a number": yaml.safe_dump(dict(doc, seed="abc"))}[case])
    assert run(["embed", "--config", str(bad), "--corpus", workspace["corpus"],
                "--out", str(tmp_path / "emb")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    if case in BAD_SETTINGS:
        assert f"{section} {key} must be" in err and "Traceback" not in err


# settings of the wrong type, or out of range where the type is right, each
# rejected when the config loads: (section, key, value, the key as the error names it)
WRONG_SETTINGS = [("loss", "include_fused_negatives", "no", "loss include_fused_negatives"),
                  ("sns", "rho", True, "sns rho"),
                  ("train", "learning_rate", True, "train learning_rate"),
                  ("projection", "hidden_dim", 2.5, "projection hidden_dim"),
                  ("projection", "hidden_dim", 0, "projection hidden_dim"),
                  ("projection", "hidden_dim", -1, "projection hidden_dim"),
                  ("train", "step_count", 2.5, "train step_count"),
                  ("train", "batch_size", 2.5, "train batch_size"),
                  ("train", "seed", 1.5, "train seed"),
                  ("curation", "n", 2.5, "curation n"),
                  ("curation", "dedup_epsilon", "x", "curation dedup_epsilon"),
                  ("curation", "query", 5, "curation query"),
                  ("curation", "filters", {"max_non_alnum_ratio": "a"},
                   "curation.filters max_non_alnum_ratio"),
                  ("curation", "filters", {"boilerplate": [1]}, "curation.filters boilerplate"),
                  ("sns", "tau_alpha", {"text": "a"}, "sns tau_alpha"),
                  ("sns", "tau_alpha", "0.1", "sns tau_alpha"),
                  ("remote", "timeout", "30", "remote timeout")]


@pytest.mark.parametrize("section, key, value, named", WRONG_SETTINGS,
                         ids=[f"{s}.{k}={v!r}" for s, k, v, _ in WRONG_SETTINGS])
def test_a_wrong_setting_is_exit_1_naming_its_key(workspace, tmp_path, capsys, section, key,
                                                  value, named):
    """A value is never coerced: each of these exits 1 with one ``error:``
    line that names the file and the key, and no traceback."""
    doc = yaml.safe_load(open(workspace["config"]))
    doc[section][key] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    assert run(["train", "--config", str(bad), "--corpus", workspace["corpus"],
                "--out", str(tmp_path / "train")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {named} must be ") and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("dim", 32.5), ("dim", "32"), ("dim", True),
                                        ("semantic_dim", 8.0), ("seed", "1"),
                                        ("gap_magnitude", "1.8"), ("noise_sigma", False),
                                        ("gap_magnitude", float("nan")),
                                        ("noise_sigma", float("inf"))])
def test_a_wrong_expert_number_is_exit_1_naming_the_expert_and_key(workspace, tmp_path, capsys,
                                                                   key, value):
    """An expert's numbers are checked like every other setting, never
    coerced: ``dim: 32.5`` no longer embeds 32-dimensional rows."""
    doc = yaml.safe_load(open(workspace["config"]))
    expert = doc["experts"][1]
    expert[key] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    out = tmp_path / "emb"
    assert run(["embed", "--config", str(bad), "--corpus", workspace["corpus"],
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    kind = "int" if key in ("dim", "semantic_dim", "seed") else "float"
    assert err == (f"error: {bad}: expert {expert['expert_id']!r} {key} must be {kind}, "
                   f"got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("direction, key", [("forward", "tau_alpha"), ("backward", "tau_beta"),
                                            ("bidirectional", "tau_alpha"),
                                            ("bidirectional", "tau_beta")])
def test_a_tau_mapping_without_a_corpus_modality_is_exit_1(workspace, tmp_path, capsys,
                                                          direction, key):
    """A ``tau_*`` mapping that its direction reads must cover every modality
    of the corpus; one that only lists text exits 1 naming the key and the
    first modality it lacks, where it was a ``KeyError`` traceback. A mapping
    the direction does not read may lack modalities."""
    doc = yaml.safe_load(open(workspace["config"]))
    modalities = {line["modality"] for line in read_jsonl(workspace["corpus"])}
    assert modalities - {"text"}
    doc["sns"].update(direction=direction, **{key: {"text": 0.1}})
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    base = ["sns", "--config", str(config), "--corpus", workspace["corpus"]]
    assert run([*base, "--out", str(tmp_path / "sns")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: sns {key} has no threshold for modality "
                   f"{min(modalities - {'text'})!r}\n")
    assert not (tmp_path / "sns" / "trimmed.jsonl").exists()
    if direction != "bidirectional":
        other = "forward" if direction == "backward" else "backward"
        doc["sns"]["direction"] = other
        config.write_text(yaml.safe_dump(doc))
        assert run([*base, "--out", str(tmp_path / other)]) == 0


@pytest.mark.parametrize("field, value", [("train.optimizer", "sgd"),
                                          ("train.optimizer", "momentum"),
                                          ("train.shuffle", False), ("loss.symmetric", True),
                                          ("sns.reinject", False)])
def test_another_value_of_a_one_value_key_is_exit_1(workspace, tmp_path, capsys, field, value):
    """``optimizer``, ``shuffle``, ``symmetric`` and ``reinject`` stay in the
    config schema, each accepting only one value; a config file that sets any
    other exits 1 naming the key."""
    section, key = field.split(".")
    doc = yaml.safe_load(open(workspace["config"]))
    doc[section][key] = value
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    command = "sns" if section == "sns" else "train"
    out = tmp_path / command
    assert run([command, "--config", str(bad), "--corpus", workspace["corpus"],
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and f"{key} must be " in err
    assert not out.exists()


def test_sns_summary_counts_the_pairs_that_fail(workspace, tmp_path, capsys):
    """``errors`` in sns_summary.json and on the printed line counts the
    records whose error is set: 0 on a clean run, and 1 when the describer
    refuses one video pair, whose payloads p and -p have mean 0."""
    from emblend.experts import encode_payload
    doc = yaml.safe_load(open(workspace["config"]))
    gating = next(e for e in doc["experts"] if e["expert_id"] == doc["gating_expert"])
    p = np.arange(gating["semantic_dim"]) % 5 - 1.5
    record = {"sample_id": "refused", "pool_id": "retry", "modality": "video",
              "components": [encode_payload(p), encode_payload(-p)],
              "annotation": ["A clip whose frames cancel."]}
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(open(workspace["corpus"]).read() + json.dumps(record) + "\n")
    for name, path, want in (("clean", workspace["corpus"], 0), ("refused", corpus, 1)):
        out = tmp_path / name
        assert run(["sns", "--config", workspace["config"], "--corpus", str(path),
                    "--direction", "backward", "--out", str(out)]) == 0
        failed = [rec for rec in read_jsonl(out / "nucleus_log.jsonl") if rec["error"]]
        assert read_json(out / "sns_summary.json")["errors"] == len(failed) == want
        assert f"; errors {want}; " in capsys.readouterr().out
    assert [rec["sample_id"] for rec in failed] == ["refused"]
    assert failed[0]["error"].startswith("degenerate payload mean")


def _drop(key):
    """A model edit that deletes ``key`` from the first block that has it."""
    def edit(doc):
        for node in (doc, doc["layers"][0], doc["layers"][0]["weight"]):
            if key in node:
                del node[key]
                return
    return edit


def _overfill(doc):
    shape = doc["layers"][0]["weight"]["shape"]
    shape[0] += 1


MODEL_EDITS = {"layers": _drop("layers"), "weight": _drop("weight"), "bias": _drop("bias"),
               "data": _drop("data"), "shape": _drop("shape"), "short data": _overfill}


@pytest.mark.parametrize("edit", ["not json", *MODEL_EDITS])
def test_malformed_model_file_is_exit_1(workspace, small_model, tmp_path, capsys, edit):
    model = tmp_path / "model.json"
    if edit == "not json":
        model.write_text("{\"format\":")
    else:
        doc = read_json(small_model)
        MODEL_EDITS[edit](doc)
        model.write_text(json.dumps(doc))
    code = run(["eval", "--config", workspace["config"], "--corpus", workspace["corpus"],
                "--model", str(model), "--out", str(tmp_path / "eval")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {model}: ")


def _delete_last_layer(doc):
    del doc["layers"][-1]


def _model_of_dims(input_dim, output_dim):
    from emblend.projection import init_projection, save_model

    def edit(doc, path):
        save_model(init_projection(input_dim, output_dim, 2, seed=1), path)
    return edit


MISFIT_MODELS = {"deleted layer": _delete_last_layer,
                 "wrong input dim": _model_of_dims(2 * 32, 32),
                 "wrong output dim": _model_of_dims(3 * 32, 16)}


@pytest.mark.parametrize("command", ["eval", "curate"])
@pytest.mark.parametrize("misfit", list(MISFIT_MODELS))
def test_model_that_does_not_fit_the_experts_is_exit_1(workspace, small_model, tmp_path,
                                                      capsys, command, misfit):
    """A model whose layers do not chain, or that does not map the three
    dim-32 experts' fused input (96) to dim 32, fails at load time."""
    model = tmp_path / "model.json"
    doc = read_json(small_model)
    assert [layer["weight"]["shape"] for layer in doc["layers"]] == [[96, 96], [32, 96]]
    edit = MISFIT_MODELS[misfit]
    if misfit == "deleted layer":
        edit(doc)
        model.write_text(json.dumps(doc))
    else:
        edit(doc, model)
    extra = ["--strategy", "eee_projection", "--n", "10"] if command == "curate" else []
    code = run([command, "--config", workspace["config"], "--corpus", workspace["corpus"],
                "--model", str(model), "--out", str(tmp_path / command), *extra])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {model}: ")


def test_eval_builds_every_input_before_the_workspace(workspace, small_model, tmp_path,
                                                      monkeypatch):
    """The side matrices (anchor first, then each expert's raw and annotation
    side in config order) and the fused outputs are built before the first
    product, and the forward pass's caches and the engine's stores are gone
    by then."""
    from emblend import cli, kernels
    from emblend.cache import EmbeddingCache
    from emblend.engine import Engine
    events, caches, stores = [], [], []
    side_matrix, forward, gram = Engine.side_matrix, cli.forward, kernels.gram
    open_store = EmbeddingCache.__init__

    def recording_open(self, path, dim):
        stores.append(weakref.ref(self))
        open_store(self, path, dim)

    def recording_side_matrix(self, samples, side, expert_id):
        events.append((side, expert_id))
        return side_matrix(self, samples, side, expert_id)

    def recording_forward(model, x):
        fused, cache = forward(model, x)
        events.append("forward")
        caches.extend(weakref.ref(a) for part in cache for a in
                      (part if isinstance(part, list) else [part]))
        return fused, cache

    def recording_gram(a, b, workspace=None):
        if "gram" not in events:
            events.append("gram")
            assert caches and all(ref() is None for ref in caches)
            assert len(stores) == 3 and all(ref() is None for ref in stores)
        return gram(a, b, workspace)

    monkeypatch.setattr(EmbeddingCache, "__init__", recording_open)
    monkeypatch.setattr(Engine, "side_matrix", recording_side_matrix)
    monkeypatch.setattr(cli, "forward", recording_forward)
    monkeypatch.setattr(kernels, "gram", recording_gram)
    assert run(["eval", "--config", workspace["config"], "--corpus", workspace["corpus"],
                "--model", small_model, "--out", str(tmp_path / "eval")]) == 0
    assert events == [("annotation", "text"), ("raw", "e2e"), ("annotation", "e2e"),
                      ("raw", "fusion"), ("annotation", "fusion"), ("raw", "text"),
                      "forward", "gram"]


def test_remote_failure_is_exit_3(tmp_path, workspace):
    cfg = yaml.safe_load(open(workspace["config"]))
    cfg["experts"][0] = {"expert_id": "e2e", "kind": "remote", "dim": 32,
                         "endpoint": "http://127.0.0.1:9/embed"}
    bad = tmp_path / "remote.yaml"
    bad.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "remote-out"
    assert run(["embed", "--config", str(bad), "--corpus", workspace["corpus"],
                "--out", str(out)]) == 3


def test_sns_cold_cache_matches_warm(workspace, tmp_path):
    """``sns`` straight on an empty cache writes the same bytes as after ``embed``:
    both read storage-precision rows."""
    outputs = {}
    for name in ("cold", "warm"):
        cfg = yaml.safe_load(open(workspace["config"]))
        cfg["cache_dir"] = str(tmp_path / name / "cache")
        config = tmp_path / f"{name}.yaml"
        config.write_text(yaml.safe_dump(cfg))
        base = ["--config", str(config), "--corpus", workspace["corpus"]]
        if name == "warm":
            assert run(["embed"] + base + ["--out", str(tmp_path / name / "emb")]) == 0
        out = tmp_path / name / "sns"
        assert run(["sns"] + base + ["--out", str(out)]) == 0
        outputs[name] = {f: (out / f).read_bytes()
                         for f in ("nucleus_log.jsonl", "trimmed.jsonl")}
    assert outputs["cold"] == outputs["warm"]


def test_sns_rerun_gating_cache_bytes_repeat(workspace, tmp_path):
    """Descriptions are stored in pair order: three runs from the same warm
    cache append the same bytes."""
    import shutil
    cfg = yaml.safe_load(open(workspace["config"]))
    cfg["cache_dir"] = str(tmp_path / "cache")
    config = tmp_path / "cached.yaml"
    config.write_text(yaml.safe_dump(cfg))
    base = ["--config", str(config), "--corpus", workspace["corpus"]]
    assert run(["embed"] + base + ["--out", str(tmp_path / "emb")]) == 0
    shutil.copytree(tmp_path / "cache", tmp_path / "warm")
    gating = {}
    for name in ("a", "b", "c"):
        shutil.rmtree(tmp_path / "cache")
        shutil.copytree(tmp_path / "warm", tmp_path / "cache")
        assert run(["sns"] + base + ["--out", str(tmp_path / name)]) == 0
        gating[name] = (tmp_path / "cache" / f"{cfg['gating_expert']}.eec").read_bytes()
    assert len(gating["a"]) > (tmp_path / "warm" / f"{cfg['gating_expert']}.eec").stat().st_size
    assert gating["a"] == gating["b"] == gating["c"]


@pytest.mark.parametrize("argv", [
    ["synth"], ["embed", "--corpus", "c"], ["sns", "--corpus", "c"], ["train", "--corpus", "c"],
    ["eval", "--corpus", "c", "--model", "m"], ["curate", "--corpus", "c"],
    ["ablate", "--corpus", "c", "--grid", "rho"],
], ids=lambda argv: argv[0])
def test_no_subcommand_accepts_jobs(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_version_1_cache_file_is_exit_2(workspace, tmp_path, capsys):
    from cachefile import v1_bytes
    doc = yaml.safe_load(open(workspace["config"]))
    doc["cache_dir"] = str(tmp_path / "cache")
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    expert = doc["experts"][0]
    path = tmp_path / "cache" / f"{expert['expert_id']}.eec"
    path.parent.mkdir()
    data = v1_bytes(expert["dim"], [("s1", expert["expert_id"], "text", np.ones(expert["dim"]))])
    path.write_bytes(data)
    code = run(["embed", "--config", str(config), "--corpus", workspace["corpus"],
                "--out", str(tmp_path / "emb")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {path}: version 1 cache file; "
                          "convert it with tools/cache_v1_to_v2.py")
    assert "Traceback" not in err
    assert path.read_bytes() == data


def _cached_config(workspace, tmp_path):
    """The workspace config with its cache under ``tmp_path``; the doc too."""
    doc = yaml.safe_load(open(workspace["config"]))
    doc["cache_dir"] = str(tmp_path / "cache")
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    return str(config), doc


def test_each_subcommand_opens_only_the_stores_it_reads(workspace, small_model, tmp_path,
                                                        monkeypatch):
    from emblend.cache import EmbeddingCache
    config, doc = _cached_config(workspace, tmp_path)
    opened = []
    open_store = EmbeddingCache.__init__

    def recording_open(self, path, dim):
        opened.append(os.path.basename(path))
        open_store(self, path, dim)

    monkeypatch.setattr(EmbeddingCache, "__init__", recording_open)
    every = sorted(f"{e['expert_id']}.eec" for e in doc["experts"])
    base = ["--config", config, "--corpus", workspace["corpus"]]
    runs = [
        (["embed"], every),
        (["sns"], [f"{doc['gating_expert']}.eec"]),
        (["train", "--steps", "2"], every),
        (["eval", "--model", small_model], every),
        (["curate", "--strategy", "uniform", "--n", "10"], []),
        (["curate", "--strategy", "stratified", "--n", "10"], []),
        (["curate", "--strategy", "traditional", "--n", "10"], [f"{doc['anchor_expert']}.eec"]),
        (["curate", "--strategy", "uniform", "--n", "10", "--model", small_model], every),
    ]
    for k, (command, stores) in enumerate(runs):
        opened.clear()
        assert run(command + base + ["--out", str(tmp_path / f"run{k}")]) == 0
        assert sorted(opened) == stores, command


def test_damaged_store_of_an_expert_a_command_does_not_read(workspace, tmp_path, capsys):
    """A version 1 file of a non-gating expert leaves ``sns`` alone, and is left
    as it is; ``embed``, which reads every expert, still exits 2."""
    from cachefile import v1_bytes
    config, doc = _cached_config(workspace, tmp_path)
    expert = next(e for e in doc["experts"] if e["expert_id"] != doc["gating_expert"])
    path = tmp_path / "cache" / f"{expert['expert_id']}.eec"
    path.parent.mkdir()
    data = v1_bytes(expert["dim"], [("s1", expert["expert_id"], "text", np.ones(expert["dim"]))])
    path.write_bytes(data)
    base = ["--config", config, "--corpus", workspace["corpus"]]
    assert run(["sns"] + base + ["--out", str(tmp_path / "sns")]) == 0
    assert path.read_bytes() == data
    assert (tmp_path / "cache" / f"{doc['gating_expert']}.eec").stat().st_size > 0
    capsys.readouterr()
    assert run(["embed"] + base + ["--out", str(tmp_path / "emb")]) == 2
    assert f"{path}: version 1 cache file" in capsys.readouterr().err
    assert path.read_bytes() == data


def test_eval_and_curate_build_no_pair(workspace, small_model, tmp_path, monkeypatch):
    """``eval`` and every ``curate`` strategy read the corpus's columns: no
    ``PairedSample`` is checked, built or indexed."""
    from emblend import dataio
    from emblend.dataio import Corpus, PairedSample
    calls = []
    post_init, getitem, checked_pair = (PairedSample.__post_init__, Corpus.__getitem__,
                                        dataio.checked_pair)
    monkeypatch.setattr(PairedSample, "__post_init__",
                        lambda self: calls.append("check") or post_init(self))
    monkeypatch.setattr(Corpus, "__getitem__",
                        lambda self, k: calls.append("index") or getitem(self, k))
    monkeypatch.setattr(dataio, "checked_pair",
                        lambda **fields: calls.append("build") or checked_pair(**fields))
    base = ["--config", workspace["config"], "--corpus", workspace["corpus"]]
    runs = [["eval", "--model", small_model]] + [
        ["curate", "--strategy", strategy, "--n", "20", "--model", small_model]
        for strategy in ("eee_projection", "uniform", "stratified", "traditional")]
    for k, command in enumerate(runs):
        assert run(command + base + ["--out", str(tmp_path / f"run{k}")]) == 0
        assert calls == [], command
    PairedSample("s", "p", "text", [dataio.Component("r.")], [dataio.Component("a.")])
    assert calls == ["check"]  # the counter counts


def test_cold_embed_writes_the_item_order(workspace, tmp_path):
    """A cold ``embed`` stores each expert's records in the order of a
    per-pair, raw-then-annotation walk of the corpus's items."""
    from cachefile import records
    from reference import ingest_pairs, item_populate_caches

    from emblend.config import config_from_dict, load_config
    from emblend.engine import Engine
    config, doc = _cached_config(workspace, tmp_path)
    assert run(["embed", "--config", config, "--corpus", workspace["corpus"],
                "--out", str(tmp_path / "emb")]) == 0
    want = config_from_dict(dict(load_config(config).to_dict(),
                                 cache_dir=str(tmp_path / "ref")))
    item_populate_caches(Engine(want), ingest_pairs(workspace["corpus"]))
    for expert in doc["experts"]:
        name = f"{expert['expert_id']}.eec"
        got = records(tmp_path / "cache" / name, expert["dim"])
        assert got == records(tmp_path / "ref" / name, expert["dim"]) and len(got) > 120
