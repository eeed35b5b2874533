"""Each subcommand flag overrides its config field as pinned here.

Every test runs one subcommand with flags set and compares its manifest.json
to the config file with exactly the pinned fields changed: the flag's value
lands in the manifest's ``config`` (or only in its extras), and the ``args``
block lists the parsed flags. A flag value the config would reject makes
``run()`` exit 1 with an ``error:`` line.
"""
import json
import os

import pytest
import yaml

from emblend.cli import run
from emblend.config import load_config

QUERY = "landscape with people"


def manifest(out):
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """An image + audio corpus and a config whose SNS thresholds list only
    those two modalities, so a filled-in threshold shows which keys it set."""
    root = tmp_path_factory.mktemp("overrides")
    assert run(["synth", "--out", str(root / "synth"), "--pools", "2",
                "--samples-per-pool", "12", "--modalities", "image,audio",
                "--clusters", "2", "--seed", "5"]) == 0
    doc = yaml.safe_load(open(root / "synth" / "config.yaml"))
    for key in ("tau_alpha", "tau_beta"):
        doc["sns"][key] = {m: doc["sns"][key][m] for m in ("image", "audio")}
    config = root / "config.yaml"
    config.write_text(yaml.safe_dump(doc))
    corpus = str(root / "synth" / "corpus.jsonl")
    model_out = root / "model"
    assert run(["train", "--config", str(config), "--corpus", corpus, "--steps", "3",
                "--batch-size", "16", "--out", str(model_out)]) == 0
    return {"root": root, "config": str(config), "corpus": corpus,
            "model": str(model_out / "model.json")}


def base_config(ws):
    return json.loads(json.dumps(load_config(ws["config"]).to_dict()))


def invoke(ws, tmp_path, command, *flags):
    out = str(tmp_path / command)
    argv = [command, "--config", ws["config"], "--corpus", ws["corpus"],
            "--out", out, *flags]
    assert run(argv) == 0
    return out, manifest(out)


def test_sns_flags(ws, tmp_path):
    out, doc = invoke(ws, tmp_path, "sns", "--direction", "forward", "--rho", "0.95",
                      "--tau-alpha", "0.2", "--tau-beta", "0.1", "--seed", "9")
    expected = base_config(ws)
    expected["sns"].update(direction="forward", rho=0.95,
                           tau_alpha={"image": 0.2, "audio": 0.2},
                           tau_beta={"image": 0.1, "audio": 0.1})
    expected.update(seed=9)
    assert doc["config"] == expected
    assert doc["args"] == {"command": "sns", "config": ws["config"],
                           "corpus": ws["corpus"], "out": out, "direction": "forward",
                           "rho": 0.95, "tau_alpha": 0.2, "tau_beta": 0.1, "seed": 9}
    with open(os.path.join(out, "sns_summary.json")) as fh:
        summary = json.load(fh)
    assert summary["direction"] == "forward" and summary["rho"] == 0.95


def test_sns_without_flags_keeps_config(ws, tmp_path):
    _, doc = invoke(ws, tmp_path, "sns")
    assert doc["config"] == base_config(ws)
    assert set(doc["args"]) == {"command", "config", "corpus", "out"}


def test_train_flags(ws, tmp_path):
    out, doc = invoke(ws, tmp_path, "train", "--layers", "1", "--steps", "4",
                      "--batch-size", "16", "--lambda-task", "0.99",
                      "--lambda-cluster", "0.01", "--lambda-scale", "0.001",
                      "--temperature", "0.1", "--seed", "3")
    expected = base_config(ws)
    expected["loss"].update(lambda_task=0.99, lambda_cluster=0.01, lambda_scale=0.001,
                            temperature=0.1)
    expected["train"].update(step_count=4, batch_size=16, seed=3)
    expected.update(seed=3)
    # --layers is not written into the config, only into the extras
    assert doc["config"] == expected
    assert doc["layer_count"] == 1
    assert isinstance(doc["final_loss"], float)
    assert doc["args"] == {"command": "train", "config": ws["config"],
                           "corpus": ws["corpus"], "out": out, "layers": 1, "steps": 4,
                           "batch_size": 16, "lambda_task": 0.99, "lambda_cluster": 0.01,
                           "lambda_scale": 0.001, "temperature": 0.1, "seed": 3}
    with open(os.path.join(out, "model.json")) as fh:
        assert json.load(fh)["layer_count"] == 1
    with open(os.path.join(out, "train_log.jsonl")) as fh:
        assert sum(1 for line in fh if line.strip()) == 4


def test_train_without_flags_uses_config_layers(ws, tmp_path):
    out, doc = invoke(ws, tmp_path, "train", "--steps", "2", "--batch-size", "16")
    assert doc["layer_count"] == base_config(ws)["projection"]["layer_count"]
    assert doc["config"]["train"]["seed"] == base_config(ws)["train"]["seed"]


@pytest.mark.parametrize("command", ["embed", "eval", "ablate"])
def test_seed_elsewhere_sets_only_top_level(ws, tmp_path, command):
    flags = {"embed": [], "eval": ["--model", ws["model"], "--k", "1,5"],
             "ablate": ["--grid", "rho"]}[command]
    out, doc = invoke(ws, tmp_path, command, *flags, "--seed", "4")
    expected = base_config(ws)
    expected.update(seed=4)
    if command == "embed":  # a config without a cache directory caches under --out
        expected["cache_dir"] = os.path.join(out, "cache")
    assert doc["config"] == expected
    assert doc["args"]["seed"] == 4


def test_eval_k_values(ws, tmp_path):
    out, doc = invoke(ws, tmp_path, "eval", "--model", ws["model"], "--k", "1,5")
    assert doc["args"]["k"] == "1,5"
    with open(os.path.join(out, "eval.json")) as fh:
        assert json.load(fh)["k_values"] == [1, 5]


def test_curate_flags(ws, tmp_path):
    out, doc = invoke(ws, tmp_path, "curate", "--strategy", "traditional",
                      "--query", QUERY, "--seed", "6", "--n", "5")
    expected = base_config(ws)
    expected["seed"] = 6
    # --strategy, --n and --query are not written into the config
    assert doc["config"] == expected
    assert (doc["strategy"], doc["n"], doc["seed"]) == ("traditional", 5, 6)
    assert doc["args"] == {"command": "curate", "config": ws["config"],
                           "corpus": ws["corpus"], "out": out, "strategy": "traditional",
                           "query": QUERY, "seed": 6, "n": 5,
                           "export_instructions": False}
    with open(os.path.join(out, "blend.jsonl")) as fh:
        assert sum(1 for line in fh if line.strip()) == 5


def test_curate_without_flags_uses_config(ws, tmp_path):
    _, doc = invoke(ws, tmp_path, "curate", "--model", ws["model"])
    base = base_config(ws)
    assert doc["config"] == base
    assert (doc["strategy"], doc["n"], doc["seed"]) == (
        base["curation"]["strategy"], base["curation"]["n"], base["seed"])


@pytest.mark.parametrize("command, flags", [
    ("sns", ["--rho", "-1"]),
    ("sns", ["--tau-alpha", "2"]),
    ("sns", ["--tau-beta", "-2"]),
    ("train", ["--steps", "0"]),
    ("train", ["--lambda-task", "-1"]),
    ("eval", ["--k", "0"]),
    ("curate", ["--n", "-3", "--strategy", "uniform"]),
])
def test_bad_flag_value_is_exit_1(ws, tmp_path, capsys, command, flags):
    extra = ["--model", ws["model"]] if command == "eval" else []
    argv = [command, "--config", ws["config"], "--corpus", ws["corpus"],
            "--out", str(tmp_path / "bad"), *extra, *flags]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_expert_entry_is_exit_1(ws, tmp_path, capsys):
    doc = yaml.safe_load(open(ws["config"]))
    doc["experts"][1]["semantic_dim"] = 64
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(doc))
    argv = ["embed", "--config", str(bad), "--corpus", ws["corpus"],
            "--out", str(tmp_path / "e")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(doc["experts"][1]["expert_id"]) in err
