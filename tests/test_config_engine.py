import json
import os
import pathlib
import re
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest
import yaml

from cachefile import records
from reference import (item_gather_side_matrix, item_populate_caches, pair_ids, reference_side,
                       side_items)
from emblend.cache import EmbeddingCache
from emblend.cli import run
from emblend.config import (build_expert, config_from_dict, load_config,
                            save_config, with_overrides)
from emblend.dataio import Corpus
from emblend.engine import Engine
from emblend.errors import ConfigError
from emblend.experts import PayloadDescriber, SyntheticExpert
from emblend.geometry import MODALITIES, side_vector, side_vectors
from emblend.projection import LossWeights, TrainConfig
from emblend.remote import RemoteDescriber, RemoteExpert
from emblend.sns import SnsConfig
from emblend.synth import SynthSpec, expert_configs, generate_corpus


def base_doc(**overrides):
    doc = {
        "experts": [
            {"expert_id": "e2e", "kind": "synthetic", "dim": 16, "semantic_dim": 8,
             "gap_magnitude": 1.0, "noise_sigma": 0.02, "seed": 1},
            {"expert_id": "text", "kind": "synthetic", "dim": 16, "semantic_dim": 8,
             "gap_magnitude": 0.1, "noise_sigma": 0.05, "seed": 2},
        ],
        "gating_expert": "e2e",
        "anchor_expert": "text",
    }
    doc.update(overrides)
    return doc


class TestConfig:
    def test_yaml_roundtrip(self, tmp_path):
        config = config_from_dict(base_doc())
        path = tmp_path / "c.yaml"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded.gating_expert == "e2e"
        assert loaded.dim == 16

    def test_mixed_dims_rejected(self):
        doc = base_doc()
        doc["experts"][1]["dim"] = 32
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_unknown_gating_expert_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(gating_expert="ghost"))

    def test_text_based_needs_describer_for_media(self):
        doc = base_doc()
        doc["experts"][1] = {"expert_id": "text", "kind": "text_based", "dim": 16,
                             "modalities": ["text", "image"]}
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_text_based_text_only_is_fine(self):
        doc = base_doc()
        doc["experts"][1] = {"expert_id": "text", "kind": "text_based", "dim": 16,
                             "semantic_dim": 8, "modalities": ["text"]}
        config = config_from_dict(doc)
        assert config.anchor_expert == "text"

    def test_env_override_for_remote(self, monkeypatch):
        monkeypatch.setenv("EMBLEND_REMOTE_ENDPOINT", "http://example/embed")
        config = config_from_dict(base_doc())
        assert config.remote.with_env().endpoint == "http://example/embed"

    def test_api_key_never_in_manifest_dict(self):
        doc = base_doc(remote={"endpoint": "http://x", "api_key": "secret"})
        config = config_from_dict(doc)
        assert "api_key" not in config.to_dict()["remote"]

    @pytest.mark.parametrize("field,value", [("kind", "bogus"), ("dim", 1)])
    def test_bad_expert_kind_or_dim_rejected(self, field, value):
        doc = base_doc()
        for entry in doc["experts"]:
            entry[field] = value
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_duplicate_expert_ids_rejected(self):
        doc = base_doc()
        doc["experts"][1]["expert_id"] = "e2e"
        with pytest.raises(ConfigError):
            config_from_dict(doc)


class TestBuildExpert:
    def test_synthetic_by_default(self):
        config = config_from_dict(base_doc())
        expert = build_expert(config.experts[0], config.remote)
        assert isinstance(expert, SyntheticExpert)

    def test_endpoint_forces_remote(self):
        config = config_from_dict(base_doc())
        entry = {"expert_id": "r", "kind": "end_to_end", "dim": 16,
                 "endpoint": "http://svc/embed", "model": "big-encoder"}
        expert = build_expert(entry, config.remote)
        assert isinstance(expert, RemoteExpert)
        assert expert.model == "big-encoder"

    def test_remote_kind_without_endpoint_rejected(self):
        config = config_from_dict(base_doc())
        with pytest.raises(ConfigError):
            build_expert({"expert_id": "r", "kind": "remote", "dim": 16},
                         config.remote)


@pytest.fixture(scope="module")
def setup():
    spec = SynthSpec(seed=2, pools=2, samples_per_pool=10, clusters=3,
                     dim=16, semantic_dim=8, modalities=("image", "text"))
    samples = generate_corpus(spec)
    doc = {"experts": [
        {"expert_id": c.expert_id, "kind": "synthetic", "dim": c.dim,
         "semantic_dim": c.semantic_dim, "gap_magnitude": c.gap_magnitude,
         "noise_sigma": c.noise_sigma, "seed": c.seed}
        for c in expert_configs(spec)],
        "gating_expert": "e2e", "anchor_expert": "text"}
    return config_from_dict(doc), Corpus.from_pairs(samples)


class TestEngine:

    def test_fused_inputs_shape(self, setup):
        config, samples = setup
        engine = Engine(config)
        x = engine.fused_inputs(samples)
        assert x.shape == (20, 3 * 16)
        rows = np.linalg.norm(x[:, :16], axis=1)
        assert np.allclose(rows, 1.0)

    def test_anchor_matrix_unit(self, setup):
        config, samples = setup
        engine = Engine(config)
        anchors = engine.anchor_matrix(samples)
        assert np.allclose(np.linalg.norm(anchors, axis=1), 1.0)

    def test_cache_through_is_transparent(self, setup, tmp_path):
        config, samples = setup
        fresh = Engine(config)
        x1 = fresh.fused_inputs(samples)
        config.cache_dir = str(tmp_path / "cache")
        warm = Engine(config)
        x2 = warm.fused_inputs(samples)
        # reread everything from the cache files only
        reread = Engine(config)
        x3 = reread.fused_inputs(samples)
        assert np.allclose(x1, x2, atol=1e-7)  # float32 storage precision
        assert np.array_equal(x2.astype(np.float32), x3.astype(np.float32))
        config.cache_dir = None

    def test_query_embedding_dim(self, setup):
        config, samples = setup
        engine = Engine(config)
        q = engine.embed_query("some text query")
        assert q.shape == (16,)
        assert np.linalg.norm(q) == pytest.approx(1.0)

    def test_describe_fn_payload_fallback(self, setup):
        config, samples = setup
        engine = Engine(config)
        fn = engine.describe_fn()
        vec_sample = next(s for s in samples if s.raw_modality == "image")
        desc = fn(vec_sample, list(vec_sample.raw_components))
        assert desc.startswith("@vec:")

    def test_describer_is_chosen_once(self, setup, monkeypatch):
        config, _ = setup
        engine = Engine(config)
        assert isinstance(engine.describe_fn(), PayloadDescriber)
        assert engine.describe_fn() is engine.describe_fn()
        remote_gating = dict(config.experts[0], endpoint="http://svc/embed")
        assert Engine(replace(config, experts=[remote_gating, *config.experts[1:]])
                      ).describe_fn() is None
        monkeypatch.setenv("EMBLEND_DESCRIBE_ENDPOINT", "http://svc/describe")
        describer = Engine(config).describe_fn()
        assert isinstance(describer, RemoteDescriber)
        assert (describer.endpoint, describer.timeout) == ("http://svc/describe", 30.0)


@pytest.mark.parametrize("cached", [False, True])
def test_side_matrices_bit_equal_per_sample_reference(setup, tmp_path, cached):
    config, samples = setup
    config = config_from_dict(dict(config.to_dict(),
                                   cache_dir=str(tmp_path / "c") if cached else None))
    engine = Engine(config)
    fused = engine.fused_inputs(samples)
    anchors = engine.anchor_matrix(samples)
    blocks = []
    for eid in engine.expert_order:
        raw, ann = engine.expert_space(samples, eid)
        assert np.array_equal(raw, reference_side(engine, samples, "raw", eid))
        assert np.array_equal(ann, reference_side(engine, samples, "annotation", eid))
        blocks.append(raw)
    assert np.array_equal(fused, np.concatenate(blocks, axis=1))
    assert np.array_equal(anchors, reference_side(engine, samples, "annotation", "text"))


def test_side_vectors_bit_equal_on_float64_rows():
    rng = np.random.default_rng(4)
    counts = [1, 2, 3, 7, 12, 4]
    rows = rng.normal(size=(sum(counts), 7))
    starts = np.cumsum(counts) - counts
    ref = np.vstack([side_vector(list(rows[s:s + c])) for s, c in zip(starts, counts)])
    got, _ = side_vectors(rows, np.arange(len(rows)), np.array(counts, dtype=np.intp))
    assert np.array_equal(got, ref)


def test_half_warm_cache_embeds_only_misses_in_order(setup, tmp_path, monkeypatch):
    """A grown corpus embeds only its new items, appended in the order of a
    per-sample, raw-then-annotation walk over the grown corpus."""
    config, samples = setup
    first, grown = Corpus.from_pairs(samples.pairs[::2]), samples
    config = config_from_dict(dict(config.to_dict(), cache_dir=str(tmp_path / "batch")))
    Engine(config).populate_caches(first)

    calls = []
    original = SyntheticExpert.embed_batch
    monkeypatch.setattr(SyntheticExpert, "embed_batch",
                        lambda self, items: calls.extend(it.item_id for it in items)
                        or original(self, items))
    Engine(config).populate_caches(grown)
    new = {it.item_id for s in grown.pairs[1::2] for side in ("raw", "annotation")
           for it in side_items(s, side)}
    assert sorted(calls) == sorted(list(new) * len(config.experts))
    monkeypatch.setattr(SyntheticExpert, "embed_batch", original)

    # reference: the per-item walk, one put per miss
    os.makedirs(tmp_path / "ref")
    for entry in config.experts:
        expert = build_expert(entry, config.remote)
        ref = EmbeddingCache(tmp_path / "ref" / f"{expert.expert_id}.eec", expert.dim)
        for corpus in (first, grown):
            for s in corpus:
                for side in ("raw", "annotation"):
                    for item in side_items(s, side):
                        if (item.item_id, expert.expert_id) not in ref:
                            ref.put(expert.embed(item))
        name = f"{expert.expert_id}.eec"
        assert records(tmp_path / "batch" / name, expert.dim) == \
            records(tmp_path / "ref" / name, expert.dim)


PRESETS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def hand_written_to_dict(config):
    """``EngineConfig.to_dict`` as it was written out field by field."""
    return {
        "experts": [dict(e) for e in config.experts],
        "gating_expert": config.gating_expert,
        "anchor_expert": config.anchor_expert,
        "sns": {
            "direction": config.sns.direction,
            "tau_alpha": dict(config.sns.tau_alpha),
            "tau_beta": dict(config.sns.tau_beta),
            "rho": config.sns.rho,
            "reinject": config.sns.reinject,
        },
        "loss": asdict(config.loss),
        "train": asdict(config.train),
        "projection": asdict(config.projection),
        "remote": {k: v for k, v in asdict(config.remote).items() if k != "api_key"},
        "curation": asdict(config.curation),
        "seed": config.seed,
        "cache_dir": config.cache_dir,
    }


@pytest.mark.parametrize("source", ["default", "gap-collapse", "synth", "sns overrides"])
def test_to_dict_equals_the_hand_written_dict(source, tmp_path):
    if source == "synth":
        assert run(["synth", "--out", str(tmp_path), "--pools", "2", "--samples-per-pool", "4",
                    "--seed", "3"]) == 0
        config = load_config(tmp_path / "config.yaml")
    elif source == "sns overrides":
        config = with_overrides(load_config(PRESETS / "default.yaml"),
                                {"sns.tau_alpha": 0.25, "sns.tau_beta": -0.5, "sns.rho": 0.5})
    else:
        config = load_config(PRESETS / f"{source}.yaml")
    config.remote.api_key = "secret"
    # same keys in the same order, so the manifests' bytes do not move
    assert json.dumps(config.to_dict()) == json.dumps(hand_written_to_dict(config))


def test_a_config_that_still_sets_jobs_and_output_dir_loads_unchanged(tmp_path):
    """Older config files set ``jobs`` and ``output_dir``; the engine reads
    neither now, and like any top-level key it does not read, they are
    ignored."""
    doc = yaml.safe_load((PRESETS / "default.yaml").read_text(encoding="utf-8"))
    old = tmp_path / "old.yaml"
    old.write_text(yaml.safe_dump({**doc, "jobs": 4, "output_dir": "x"}), encoding="utf-8")
    config = load_config(old)
    assert config == load_config(PRESETS / "default.yaml")
    assert "jobs" not in config.to_dict() and "output_dir" not in config.to_dict()


def test_an_override_of_a_key_the_config_does_not_have_is_rejected():
    """An override names a setting, so unlike a file's top level, an unknown
    key there is an error too."""
    config = load_config(PRESETS / "default.yaml")
    for field in ("jobs", "bogus.rho"):
        with pytest.raises(ConfigError, match=f"^{field.split('.')[0]} is not a setting"):
            with_overrides(config, {field: 1})


# keys that stay in the schema with one allowed value each, and the section
# types that check them
ONE_VALUE_KEYS = {"train.optimizer": "adam", "train.shuffle": True, "loss.symmetric": False,
                  "sns.reinject": True}
OTHER_VALUES = [("train.optimizer", "sgd"), ("train.optimizer", "momentum"),
                ("train.shuffle", False), ("loss.symmetric", True), ("sns.reinject", False)]
SECTION_TYPES = {"train": TrainConfig, "loss": LossWeights, "sns": SnsConfig}


def typed(value):
    """``value`` with its type, so that 1 does not pass for True."""
    return value, type(value)


def preset_with(tmp_path, field, value):
    """configs/default.yaml with ``field`` set to ``value``, as a new file."""
    section, key = field.split(".")
    doc = yaml.safe_load((PRESETS / "default.yaml").read_text(encoding="utf-8"))
    doc[section][key] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("field", sorted(ONE_VALUE_KEYS))
def test_a_one_value_key_loads_its_value_every_way(field, tmp_path):
    section, key = field.split(".")
    value = ONE_VALUE_KEYS[field]
    from_file = load_config(preset_with(tmp_path, field, value))
    assert typed(getattr(getattr(from_file, section), key)) == typed(value)
    assert with_overrides(load_config(PRESETS / "default.yaml"), {field: value}) == from_file
    assert typed(getattr(SECTION_TYPES[section](**{key: value}), key)) == typed(value)


@pytest.mark.parametrize("field, value", OTHER_VALUES)
def test_a_one_value_key_rejects_any_other_value_every_way(field, value, tmp_path):
    section, key = field.split(".")
    message = f"{key} must be "
    with pytest.raises(ConfigError, match=f"^{re.escape(str(tmp_path))}.*{message}"):
        load_config(preset_with(tmp_path, field, value))
    with pytest.raises(ConfigError, match=message):
        with_overrides(load_config(PRESETS / "default.yaml"), {field: value})
    with pytest.raises((ConfigError, ValueError), match=f"^{message}"):
        SECTION_TYPES[section](**{key: value})


@pytest.mark.parametrize("source", ["default", "gap-collapse"])
def test_presets_read_back_every_value_they_set(source):
    """Each value a preset file sets is the value its config reports, the
    one-value keys included."""
    doc = yaml.safe_load((PRESETS / f"{source}.yaml").read_text(encoding="utf-8"))
    got = load_config(PRESETS / f"{source}.yaml").to_dict()

    def check(want, have):
        if isinstance(want, dict):
            for key, value in want.items():
                check(value, have[key])
        else:
            assert have == want

    check(doc, got)
    for field, value in ONE_VALUE_KEYS.items():
        section, key = field.split(".")
        assert typed(got[section][key]) == typed(value)


# a value of another type than a setting's value in configs/default.yaml
WRONG_TYPED = {bool: "yes", int: 2.5, float: True, str: 5, type(None): [1], list: "x",
               dict: [0.1]}
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def wrong_settings():
    """(dotted field, value) for every field of the default preset's config,
    each given a value of the wrong type (a section a number), NaN and
    infinities where a float is set (a ``tau_*`` mapping's values too), and a
    key that a section and the nested filters do not have."""
    out, non_finite = [("sns.bogus", 1), ("curation.filters.bogus", 1)], []

    def walk(obj, prefix):
        for f in fields(obj):
            value, path = getattr(obj, f.name), prefix + f.name
            out.append((path, 5 if is_dataclass(value) else WRONG_TYPED[type(value)]))
            if isinstance(value, float):
                non_finite.extend((path, v) for v in NON_FINITE)
            elif isinstance(value, dict):
                non_finite.extend((path, {"image": v}) for v in NON_FINITE)
            if is_dataclass(value):
                walk(value, path + ".")

    walk(load_config(PRESETS / "default.yaml"), "")
    return out + non_finite


@pytest.mark.parametrize("field, value", wrong_settings())
def test_a_wrong_setting_is_rejected_alike_from_a_file_and_an_override(field, value, tmp_path):
    """No value is coerced: each is rejected naming its section and key, with
    the same message from a config file and from ``with_overrides``."""
    *sections, key = field.split(".")
    doc = yaml.safe_load((PRESETS / "default.yaml").read_text(encoding="utf-8"))
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    named = f"{'.'.join(sections)} {key} ".lstrip()
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: {named}')}") as from_file:
        load_config(path)
    with pytest.raises(ConfigError) as from_override:
        with_overrides(load_config(PRESETS / "default.yaml"), {field: value})
    assert str(from_file.value) == f"{path}: {from_override.value}"
    assert "<class" not in str(from_override.value)


def test_a_number_for_a_tau_mapping_fills_every_modality(tmp_path):
    """In a file a number fills every modality; as an override, each
    modality the config's mapping lists. An integer stays an integer where a
    number is allowed."""
    doc = yaml.safe_load((PRESETS / "default.yaml").read_text(encoding="utf-8"))
    doc["sns"].update(tau_alpha=0.25, tau_beta={"image": 0.5}, rho=1)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    config = load_config(path)
    assert config.sns.tau_alpha == dict.fromkeys(MODALITIES, 0.25)
    assert typed(config.sns.rho) == typed(1)
    config = with_overrides(config, {"sns.tau_beta": -0.5, "sns.tau_alpha": 0})
    assert config.sns.tau_beta == {"image": -0.5}
    assert all(typed(v) == typed(0) for v in config.sns.tau_alpha.values())


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


def test_load_config_uses_libyaml_when_pyyaml_has_it():
    from emblend import config
    assert config._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@pytest.mark.parametrize("source", ["default", "gap-collapse", "synth"])
def test_both_yaml_loaders_give_equal_configs(source, tmp_path, monkeypatch):
    from emblend import config
    path = PRESETS / f"{source}.yaml"
    if source == "synth":
        assert run(["synth", "--out", str(tmp_path), "--pools", "2", "--samples-per-pool", "4",
                    "--seed", "3"]) == 0
        path = tmp_path / "config.yaml"
    text = path.read_text(encoding="utf-8")
    docs, loaded = [], []
    for loader in LOADERS:
        docs.append(json.dumps(yaml.load(text, Loader=loader)))  # types and key order too
        monkeypatch.setattr(config, "_LOADER", loader)
        loaded.append(json.dumps(load_config(path).to_dict()))
    assert len(set(docs)) == 1 and len(set(loaded)) == 1


@pytest.mark.parametrize("text", ["experts: [\n", "a: b: c\n", "- [1, 2\n", "key: 'open\n",
                                  "\t- tab indent\n"])
def test_both_yaml_loaders_reject_malformed_yaml_naming_the_file(text, tmp_path, monkeypatch,
                                                                 capsys):
    from emblend import config
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    for loader in LOADERS:
        monkeypatch.setattr(config, "_LOADER", loader)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not a YAML file"):
            load_config(path)
        assert run(["embed", "--config", str(path), "--corpus", "x.jsonl",
                    "--out", str(tmp_path / "emb")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not a YAML file")


@pytest.mark.parametrize("store", ["memory", "cold file", "half-warm file"])
def test_side_matrix_equals_the_item_gather(setup, tmp_path, monkeypatch, store):
    """Same bits, the same items sent to each expert in the same batches, and
    the same cache records in the same order and the same file bytes; then
    ``populate_caches`` of a corpus the store lacks, against the items it
    resolved before, likewise."""
    config, samples = setup
    fresh = Corpus.from_pairs(generate_corpus(SynthSpec(
        seed=4, pools=2, samples_per_pool=10, clusters=3, dim=16, semantic_dim=8,
        modalities=("image", "text"))))
    original = SyntheticExpert.embed_batch
    results = []
    for name, build, populate in (("positions", Engine.side_matrix, Engine.populate_caches),
                                  ("items", item_gather_side_matrix, item_populate_caches)):
        cache_dir = None if store == "memory" else tmp_path / name
        cfg = config_from_dict(dict(config.to_dict(), cache_dir=cache_dir and str(cache_dir)))
        if store == "half-warm file":
            Engine(cfg).populate_caches(Corpus.from_pairs(samples.pairs[::3]))
        engine = Engine(cfg)
        calls = []
        monkeypatch.setattr(SyntheticExpert, "embed_batch", lambda self, items: calls.append(
            (self.expert_id, list(items))) or original(self, items))
        matrices = [build(engine, samples, side, eid)
                    for eid in engine.expert_order for side in ("annotation", "raw")]
        populated = populate(engine, fresh)
        monkeypatch.setattr(SyntheticExpert, "embed_batch", original)
        paths = [cache_dir / f"{eid}.eec" for eid in engine.expert_order if cache_dir]
        files = [(records(path, cfg.dim), path.read_bytes()) for path in paths]
        results.append((matrices, populated, calls, files))
    (got, got_counts, got_calls, got_files), (want, want_counts, want_calls, want_files) = results
    assert len(got) == len(want) == 6
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))
    assert got_counts == want_counts
    assert got_calls == want_calls and len(want_calls) >= 6
    assert got_files == want_files


def test_side_matrix_builds_no_items_on_a_warm_store(setup, tmp_path, monkeypatch):
    """A warm store builds no item and no pair of the corpus; the corpus
    hashes its item ids once, in the per-pair order."""
    config, samples = setup
    config = config_from_dict(dict(config.to_dict(), cache_dir=str(tmp_path / "c")))
    Engine(config).populate_caches(samples)
    pairs = generate_corpus(SynthSpec(seed=2, pools=2, samples_per_pool=10, clusters=3,
                                      dim=16, semantic_dim=8, modalities=("image", "text")))
    fresh = Corpus.from_pairs(pairs)
    fresh.pairs = [None] * len(pairs)  # indexing would build a pair
    built, items = [], Corpus.items
    monkeypatch.setattr(Corpus, "items", lambda self, k, side=None:
                        built.append(k) or items(self, k, side))
    engine = Engine(config)
    for eid in engine.expert_order:
        for side in ("raw", "annotation"):
            assert np.array_equal(engine.side_matrix(fresh, side, eid),
                                  item_gather_side_matrix(engine, samples, side, eid))
    assert built == [] and fresh.pairs == [None] * len(pairs)
    assert vars(fresh)["item_ids"] == [i for p in pairs for i in pair_ids(p)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_side_vectors_by_position_equal_the_gathered_rows(dtype):
    rng = np.random.default_rng(8)
    counts = [3, 1, 5, 2, 2]
    rows = rng.normal(size=(9, 7)).astype(dtype)
    positions = rng.integers(0, 9, size=sum(counts))  # repeats and skips rows
    counts = np.array(counts, dtype=np.intp)
    want, _ = side_vectors(rows[positions].astype(np.float64), np.arange(len(positions)), counts)
    got, _ = side_vectors(rows, positions, counts)
    assert got.dtype == np.float64 and np.array_equal(got, want)
