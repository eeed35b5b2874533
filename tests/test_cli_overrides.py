"""Each subcommand flag overrides its config field as pinned here.

Every test runs one subcommand with flags set and compares its manifest.json
to the config file with exactly the pinned fields changed: the flag's value
lands in the manifest's ``config`` (or only in its extras), and the ``args``
block lists the parsed flags. The parser itself is pinned too. Flag text
that is not a value of its field's type, or a value the config would reject,
makes ``run()`` exit 1 with an ``error:`` line.
"""
import argparse
import json
import os

import pytest
import yaml

from emblend.cli import build_parser, run
from emblend.config import load_config

QUERY = "landscape with people"


# every subcommand's options as the parser declares them: option string ->
# (dest, required, the type its text is read as, default). The dests and
# types decide the bytes of the manifest's ``args``.
_CONFIG_OUT = {"--config": ("config", False, str, None), "--out": ("out", False, str, None)}
_SETUP = {**_CONFIG_OUT, "--corpus": ("corpus", True, str, None),
          "--seed": ("seed", False, int, None)}
PARSER = {
    "synth": {**_CONFIG_OUT, "--seed": ("seed", False, int, None),
              "--pools": ("pools", False, int, 4),
              "--samples-per-pool": ("samples_per_pool", False, int, 500),
              "--modalities": ("modalities", False, str, None),
              "--clusters": ("clusters", False, int, 8), "--dim": ("dim", False, int, 32),
              "--semantic-dim": ("semantic_dim", False, int, 16),
              "--gap": ("gap", False, float, 1.25), "--noise": ("noise", False, float, 0.02),
              "--distractors": ("distractors", False, int, 2),
              "--annotation-extras": ("annotation_extras", False, int, 1)},
    "embed": _SETUP,
    "sns": {**_SETUP, "--rho": ("rho", False, float, None),
            "--tau-alpha": ("tau_alpha", False, float, None),
            "--tau-beta": ("tau_beta", False, float, None),
            "--direction": ("direction", False, str, None)},
    "train": {**_SETUP, "--layers": ("layers", False, int, None),
              "--steps": ("steps", False, int, None),
              "--batch-size": ("batch_size", False, int, None),
              "--lambda-task": ("lambda_task", False, float, None),
              "--lambda-cluster": ("lambda_cluster", False, float, None),
              "--lambda-scale": ("lambda_scale", False, float, None),
              "--temperature": ("temperature", False, float, None)},
    "eval": {**_SETUP, "--model": ("model", True, str, None), "--k": ("k", False, str, None),
             "--export-embeddings": ("export_embeddings", False, None, False)},
    "curate": {**_SETUP, "--strategy": ("strategy", False, str, None),
               "--n": ("n", False, int, None), "--query": ("query", False, str, None),
               "--model": ("model", False, str, None),
               "--export-instructions": ("export_instructions", False, None, False)},
    "ablate": {**_SETUP, "--grid": ("grid", True, str, None),
               "--steps": ("steps", False, int, None)},
}


def test_parser_declares_each_option_as_pinned():
    """Each subcommand has the pinned options, each stored under its dest
    with its default, and a flag's text is read as the pinned type: ``3``
    reads as the int 3 or the float 3.0."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(PARSER)
    for command, options in PARSER.items():
        declared = {}
        for action in sub.choices[command]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            [option] = action.option_strings
            read = None if action.nargs == 0 else type((action.type or str)("3"))
            declared[option] = (action.dest, action.required, read, action.default)
        assert declared == options, command


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
    # text that is not a value of the field's type, or a value the field rejects
    ("train", ["--steps", "2.5"]),
    ("sns", ["--rho", "abc"]),
    ("sns", ["--tau-alpha", "abc"]),
    ("curate", ["--n", "x", "--strategy", "uniform"]),
    ("sns", ["--direction", "sideways"]),
    ("curate", ["--strategy", "best"]),
    ("sns", ["--rho", "nan"]),
    ("train", ["--temperature", "inf"]),
    ("train", ["--lambda-task", "nan"]),
    ("ablate", ["--grid", "lambda-depth", "--steps", "2.5"]),
])
def test_bad_flag_value_is_exit_1(ws, tmp_path, capsys, command, flags):
    extra = ["--model", ws["model"]] if command == "eval" else []
    argv = [command, "--config", ws["config"], "--corpus", ws["corpus"],
            "--out", str(tmp_path / "bad"), *extra, *flags]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    if command != "eval":  # eval's --k is no config field: it is read after --out is made
        assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--steps", "2.5"], "train step_count must be int, got '2.5'"),
    ("sns", ["--tau-beta", "x"], "sns tau_beta must be float, got 'x'"),
    ("sns", ["--seed", "1.5"], "seed must be int, got '1.5'"),
    ("sns", ["--rho", "nan"], "sns rho must be float, got nan"),
    ("train", ["--temperature=-inf"], "loss temperature must be float, got -inf"),
])
def test_a_flag_is_rejected_like_its_field(ws, tmp_path, capsys, command, flags, message):
    """A flag's text that is not a value of its field's type gets the config
    builder's message for that field; so does a value the field rejects."""
    argv = [command, "--config", ws["config"], "--corpus", ws["corpus"],
            "--out", str(tmp_path / "bad"), *flags]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags", [
    ["--pools", "0"], ["--samples-per-pool", "0"], ["--clusters", "0"],
    ["--dim", "4", "--semantic-dim", "8"], ["--semantic-dim", "0"], ["--dim", "1"],
    ["--gap", "-1"], ["--gap", "nan"], ["--noise", "-0.1"], ["--noise", "inf"],
    ["--seed", "-1"], ["--modalities", "image,foo"],
])
def test_bad_synth_value_is_exit_1_writing_nothing(tmp_path, capsys, flags):
    out = tmp_path / "synth"
    argv = ["synth", "--out", str(out), "--pools", "1", "--samples-per-pool", "4", *flags]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: synth ") and "Traceback" not in err
    assert not out.exists()


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
