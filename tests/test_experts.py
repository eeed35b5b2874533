import base64
import hashlib
import itertools
import sys
import threading
import warnings

import numpy as np
import pytest

from emblend.dataio import Component
from emblend.errors import (DescriberFailure, DimMismatch, EmblendError, NonFiniteVector,
                            ParseError, UnsupportedModality, ZeroVector)
from emblend.experts import (EmbedItem, PayloadDescriber, SyntheticExpert, SyntheticExpertConfig,
                             encode_payload, orthogonal_offsets)
from emblend.geometry import MODALITIES, normalize
from emblend.retrieval import clustering_diagnostic
from reference import (decode_payload, hash_payload, item_by_item_payloads, payload_describe,
                       reference_embed, reference_generate, reference_hash_payload,
                       reference_normalize, synthetic_generate)


def make_config(**kw):
    base = dict(expert_id="syn", seed=7, dim=16, semantic_dim=8,
                gap_magnitude=0.0, noise_sigma=0.0)
    base.update(kw)
    return SyntheticExpertConfig(**base)


class TestPayloads:
    def test_vec_roundtrip(self):
        vec = np.array([0.25, -1.5, 3.0], dtype=np.float32)
        decoded = decode_payload(encode_payload(vec))
        assert np.array_equal(decoded, vec.astype(np.float64))

    def test_plain_text_returns_none(self):
        assert decode_payload("a plain sentence.") is None

    def test_hash_is_deterministic_and_unit(self):
        a = hash_payload("the quick brown fox", 16)
        b = hash_payload("the quick brown fox", 16)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_shared_tokens_raise_similarity(self):
        a = hash_payload("alpha beta gamma delta", 32)
        b = hash_payload("alpha beta gamma epsilon", 32)
        c = hash_payload("zeta eta theta iota", 32)
        assert a @ b > a @ c

    def test_empty_text_has_fallback(self):
        v = hash_payload("", 8)
        assert np.linalg.norm(v) == pytest.approx(1.0)


class TestOffsets:
    def test_orthogonal_in_complement(self):
        offs = orthogonal_offsets(dim=16, semantic_dim=8, seed=3)
        mats = np.vstack(list(offs.values()))
        assert np.allclose(mats @ mats.T, np.eye(len(MODALITIES)), atol=1e-10)
        assert np.allclose(mats[:, :8], 0.0)

    def test_small_dim_still_unit(self):
        offs = orthogonal_offsets(dim=3, semantic_dim=2, seed=3)
        for v in offs.values():
            assert np.linalg.norm(v) == pytest.approx(1.0)


class TestSyntheticGenerate:
    def test_offset_free_case(self):
        cfg = make_config()
        payload = normalize(np.arange(1.0, 9.0))
        out = synthetic_generate(cfg, payload, "text")
        expected = np.zeros(16)
        expected[:8] = payload
        assert np.allclose(out, expected)

    def test_disjoint_axis_cosine(self):
        # payload on one axis, offset on a disjoint axis, gap 1: cos = 1/sqrt(2)
        offsets = {m: np.eye(16)[8 + i] for i, m in enumerate(MODALITIES)}
        cfg = make_config(gap_magnitude=1.0, modality_offsets=offsets)
        payload = np.zeros(8)
        payload[0] = 1.0
        gapped = synthetic_generate(cfg, payload, "image")
        plain = synthetic_generate(make_config(), payload, "image")
        assert gapped @ plain == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_noise_keyed_by_item_id(self):
        cfg = make_config(noise_sigma=0.1)
        payload = normalize(np.ones(8))
        a = synthetic_generate(cfg, payload, "text", item_id="id-a")
        b = synthetic_generate(cfg, payload, "text", item_id="id-b")
        again = synthetic_generate(cfg, payload, "text", item_id="id-a")
        assert not np.allclose(a, b)
        assert np.array_equal(a, again)

    def test_payload_dim_checked(self):
        with pytest.raises(DimMismatch):
            synthetic_generate(make_config(), np.ones(5), "text")


class TestSyntheticExpert:
    def test_deterministic(self):
        expert = SyntheticExpert(make_config(noise_sigma=0.05))
        item = EmbedItem("s1", "text", "a cat sat on the mat")
        a = expert.embed(item)
        b = expert.embed(item)
        assert np.array_equal(a.values, b.values)
        assert a.expert_id == "syn" and a.dim == 16

    def test_gap_distance_matches_generator_formula(self):
        g = 0.8
        cfg = make_config(gap_magnitude=g)
        expert = SyntheticExpert(cfg)
        payload = normalize(np.arange(1.0, 9.0))
        content = encode_payload(payload)
        e_img = expert.embed(EmbedItem("x", "image", content)).values
        e_aud = expert.embed(EmbedItem("x", "audio", content)).values
        padded = np.zeros(16)
        padded[:8] = payload
        exp_img = normalize(padded + g * cfg.modality_offsets["image"])
        exp_aud = normalize(padded + g * cfg.modality_offsets["audio"])
        assert np.linalg.norm(e_img - e_aud) == pytest.approx(
            np.linalg.norm(exp_img - exp_aud), abs=1e-12)

    def test_unsupported_modality(self):
        expert = SyntheticExpert(make_config(), modalities=("text",))
        with pytest.raises(UnsupportedModality):
            expert.embed(EmbedItem("s", "audio", "x"))

    def test_vec_payload_dim_mismatch(self):
        expert = SyntheticExpert(make_config())
        bad = encode_payload(np.ones(5))
        with pytest.raises(DimMismatch):
            expert.embed(EmbedItem("s", "text", bad))

    def test_gapped_cloud_clusters_by_modality(self):
        # the geometry the projection must undo: intra < inter with gap on
        cfg = make_config(dim=32, semantic_dim=16, gap_magnitude=1.0, noise_sigma=0.05)
        expert = SyntheticExpert(cfg)
        rng = np.random.default_rng(5)
        embs, tags = [], []
        for m in MODALITIES:
            for i in range(100):
                payload = normalize(rng.normal(size=16))
                item = EmbedItem(f"{m}-{i}", m, encode_payload(payload))
                embs.append(expert.embed(item).values)
                tags.append(m)
        diag = clustering_diagnostic(np.vstack(embs), tags)
        assert diag["clustered"] is True


def _mixed_items(n, semantic_dim=8, seed=3):
    """@vec payloads over 12 orders of magnitude and hashed texts, all four
    modalities; ids repeat from item 250 on."""
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    items = []
    for i in range(n):
        if i % 3:
            content = encode_payload(rng.normal(size=semantic_dim) * 10.0 ** rng.uniform(-6, 6))
        else:
            content = " ".join(rng.choice(words, size=rng.integers(1, 6)))
        items.append(EmbedItem(f"id-{i % 250}", MODALITIES[i % 4], content))
    return items


@pytest.mark.parametrize("gap", [0.0, 0.9])
@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_embed_batch_bit_equal_to_per_item_reference(gap, noise):
    cfg = make_config(gap_magnitude=gap, noise_sigma=noise)
    expert = SyntheticExpert(cfg)
    items = _mixed_items(300)  # longer than one engine slice (8 batches of 32)
    assert len({it.item_id for it in items}) < len(items)
    expected = [reference_embed(cfg, it) for it in items]
    for start, stop in ((0, 300), (0, 256), (5, 6)):
        got = expert.embed_batch(items[start:stop])
        assert isinstance(got, np.ndarray)
        assert got.shape == (stop - start, cfg.dim) and got.dtype == np.float64
        assert [row.tobytes() for row in got] == [v.tobytes() for v in expected[start:stop]]
    for it, want in zip(items[:20], expected):
        emb = expert.embed(it)
        assert (emb.sample_id, emb.expert_id, emb.modality) == (
            it.item_id, cfg.expert_id, it.modality)
        assert emb.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("gap", [0.0, 0.9])
@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_synthetic_generate_bit_equal_to_per_item_reference(gap, noise):
    cfg = make_config(gap_magnitude=gap, noise_sigma=noise)
    rng = np.random.default_rng(4)
    for i, m in enumerate(MODALITIES * 5):
        payload = normalize(rng.normal(size=8))
        got = synthetic_generate(cfg, payload, m, item_id=f"x{i}")
        assert got.tobytes() == reference_generate(cfg, payload, m, f"x{i}").tobytes()


def test_unsupported_modality_mid_batch_raises():
    expert = SyntheticExpert(make_config(), modalities=("text", "image"))
    items = [EmbedItem("a", "text", "x"), EmbedItem("b", "image", "y"),
             EmbedItem("c", "audio", "z"), EmbedItem("d", "text", "w")]
    with pytest.raises(UnsupportedModality, match="'audio'"):
        expert.embed_batch(items)


def test_concurrent_embeds_equal_sequential():
    """Two batched and two single-item callers at once on one expert get the
    bytes of one caller alone."""
    expert = SyntheticExpert(make_config(gap_magnitude=0.5, noise_sigma=0.1))
    items = _mixed_items(400)
    want = [row.tobytes() for row in expert.embed_batch(items)]
    results = {}

    def batched(key):
        results[key] = [row.tobytes() for s in range(0, len(items), 16)
                        for row in expert.embed_batch(items[s:s + 16])]

    def single(key):
        results[key] = [expert.embed(it).values.tobytes() for it in items]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fn, args=(k,))
                   for k, fn in enumerate((batched, single, batched, single))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for key in results:
        assert results[key] == want


def _cancelling_text(semantic_dim):
    """Two tokens that hash to one coordinate with opposite signs: their text
    takes the fallback direction."""
    seen = {}
    for i in range(1000):
        tok = f"w{i}"
        digest = hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
        key = int.from_bytes(digest[:4], "little") % semantic_dim
        sign = digest[4] & 1
        if (key, 1 - sign) in seen:
            return f"{seen[key, 1 - sign]} {tok}"
        seen[key, sign] = tok
    raise AssertionError("no cancelling pair")


GOOD_CONTENT = {
    "vec": encode_payload(np.arange(1.0, 9.0)),
    "text": "a plain sentence about apples.",
    "empty": "",
}
BAD_CONTENT = {
    "short vec": encode_payload(np.ones(5)),
    "bad base64": "@vec:abc",
    "ragged vec": "@vec:" + base64.b64encode(b"123456").decode("ascii"),
    "non-ascii vec": "@vec:\u00e9t\u00e9",
    "zero vec": encode_payload(np.zeros(8)),
    "nan vec": encode_payload(np.full(8, np.nan)),
}


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_embed_batch_mixed_rows_bit_equal_to_reference(noise):
    expert = SyntheticExpert(make_config(gap_magnitude=0.9, noise_sigma=noise))
    cfg = expert.config
    contents = [*GOOD_CONTENT.values(), _cancelling_text(cfg.semantic_dim)]
    assert reference_hash_payload(contents[-1], cfg.semantic_dim).tolist() == \
        [1.0] + [0.0] * (cfg.semantic_dim - 1)
    items = [EmbedItem(f"m{i}", MODALITIES[i % 4], contents[i % len(contents)])
             for i in range(40)]
    payloads = item_by_item_payloads(expert, items)
    want = [reference_normalize(reference_generate(cfg, p, it.modality, it.item_id))
            for p, it in zip(payloads, items)]
    got = expert.embed_batch(items)
    assert [row.tobytes() for row in got] == [v.tobytes() for v in want]


def _bad_item(kind):
    if kind == "video":
        return EmbedItem("bad-video", "video", GOOD_CONTENT["vec"])
    return EmbedItem(f"bad-{kind}", "image", BAD_CONTENT[kind])


@pytest.mark.parametrize("first,second",
                         list(itertools.permutations([*BAD_CONTENT, "video"], 2)))
def test_embed_batch_raises_the_first_failing_item_error(first, second):
    """Two failing items among good ones: the batch raises what the item-by-item
    loop raised, the first failing item's own error and text."""
    expert = SyntheticExpert(make_config(gap_magnitude=0.9, noise_sigma=0.05),
                             modalities=("text", "image", "audio"))
    good = [EmbedItem(f"g{i}", ("text", "image", "audio")[i % 3], content)
            for i, content in enumerate(GOOD_CONTENT.values())]
    items = [good[0], _bad_item(first), good[1], _bad_item(second), good[2]]
    with pytest.raises(EmblendError) as want:
        item_by_item_payloads(expert, items)
    with pytest.raises(type(want.value)) as got:
        expert.embed_batch(items)
    assert str(got.value) == str(want.value)
    assert type(got.value) in (DimMismatch, ParseError, UnsupportedModality, ZeroVector,
                               NonFiniteVector)


# -- PayloadDescriber: one batch against the per-pair reference ---------------

def _outcome(call):
    """The call's value, or the type and text of the EmblendError it raised."""
    try:
        with warnings.catch_warnings():  # np.mean of no payloads warns, then is NaN
            warnings.simplefilter("ignore", RuntimeWarning)
            return call()
    except EmblendError as exc:
        return type(exc), str(exc)


def _describe_requests(semantic_dim=8, n=300, seed=5):
    """(pair, components) requests of 1 to 4 components, @vec payloads over 12
    orders of magnitude and hashed texts mixed; the pair is never read."""
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    requests = []
    for _ in range(n):
        components = []
        for _ in range(rng.integers(1, 5)):
            if rng.random() < 0.6:
                vec = rng.normal(size=semantic_dim) * 10.0 ** rng.uniform(-6, 6)
                components.append(Component(encode_payload(vec)))
            else:
                components.append(Component(" ".join(rng.choice(words, size=rng.integers(1, 6)))))
        requests.append((None, components))
    return requests


PAYLOAD = np.arange(1.0, 9.0)
HUGE = np.eye(8)[0] * 2.0 ** 54  # 1 + 2**54 - 2**54 is 0 added in order, else 1
ODD_REQUESTS = {
    "summed in order": [Component(encode_payload(PAYLOAD)), Component(encode_payload(HUGE)),
                        Component(encode_payload(-HUGE))],
    "wrong dim": [Component(GOOD_CONTENT["vec"]), Component(BAD_CONTENT["short vec"])],
    "malformed": [Component(BAD_CONTENT["bad base64"])],
    "ragged": [Component("apples."), Component(BAD_CONTENT["ragged vec"])],
    "cancelling": [Component(encode_payload(PAYLOAD)), Component(encode_payload(-PAYLOAD))],
    "nan": [Component(BAD_CONTENT["nan vec"]), Component("apples.")],
    "none": [],
    "fallback text": [Component(_cancelling_text(8))],
    "four": [Component(encode_payload(PAYLOAD)), Component("a b."),
             Component(encode_payload(-PAYLOAD)), Component(GOOD_CONTENT["text"])],
}


def test_describe_batch_equals_the_per_pair_reference():
    """Each description is the reference's string, bit for bit; alone, each
    odd request gives the reference's string or its error, type and text."""
    describer = PayloadDescriber(8)
    requests = _describe_requests()
    want = [payload_describe(8, pair, components) for pair, components in requests]
    assert describer.describe_batch(requests) == want
    for name, components in ODD_REQUESTS.items():
        got = _outcome(lambda: describer.describe_batch([(None, components)]))
        expected = _outcome(lambda: [payload_describe(8, None, components)])
        assert got == expected, name
    assert _outcome(lambda: describer.describe_batch([(None, ODD_REQUESTS["none"])])) == \
        (DescriberFailure, "degenerate payload mean: vector has non-finite norm nan")
    assert describer.describe_batch([]) == []


def test_describe_batch_raises_the_first_failing_component_else_the_first_degenerate_mean():
    describer = PayloadDescriber(8)
    good = _describe_requests(n=3)
    odd = {name: (None, components) for name, components in ODD_REQUESTS.items()}
    batch = [good[0], odd["cancelling"], good[1], odd["wrong dim"], odd["malformed"], good[2]]
    assert _outcome(lambda: describer.describe_batch(batch)) == \
        _outcome(lambda: payload_describe(8, *odd["wrong dim"]))
    batch = [good[0], odd["none"], odd["cancelling"], good[1]]
    assert _outcome(lambda: describer.describe_batch(batch)) == \
        _outcome(lambda: payload_describe(8, *odd["none"]))
    batch = [good[0], odd["cancelling"], odd["nan"]]
    assert _outcome(lambda: describer.describe_batch(batch)) == \
        (DescriberFailure, "degenerate payload mean: cannot normalize vector with norm 0.0")


def test_describer_called_per_item_equals_its_batch():
    """The localhost stub's call shape, ``describer(None, components)``, is a
    batch of one."""
    describer = PayloadDescriber(8)
    for pair, components in _describe_requests(n=40) + [(None, c) for c in ODD_REQUESTS.values()]:
        assert _outcome(lambda: describer(pair, components)) == \
            _outcome(lambda: describer.describe_batch([(pair, components)])[0])
