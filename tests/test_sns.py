from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from cachefile import records
from reference import (TableDescriber, embedded_each, emitted_pair, item_pair_rows,
                       item_positions, pair_ids, pair_items, reference_sns, reference_taus,
                       resolve, rows, sample_from_record, side_ids, side_items, stored_rows)
from emblend import sns as sns_module
from emblend.dataio import (Component, Corpus, PairedSample, component_item_id, sample_to_record,
                            segment_text)
from emblend.engine import ExpertHandle
from emblend.errors import (DescriberFailure, EmblendError, GatingExpertFailure,
                            UnsupportedModality, ZeroSize, ZeroVector)
from emblend.experts import (EmbedItem, PayloadDescriber, SyntheticExpert,
                             SyntheticExpertConfig, encode_payload)
from emblend.geometry import normalize
from emblend.sns import (NucleusRecord, SnsConfig, apply_sns, calibrate_taus, extract,
                         info_density, mi_gate, run_sns, side_vector)


class TestSegmentText:
    def test_three_sentences(self):
        assert segment_text("A cat. A dog! Why?") == ["A cat.", "A dog!", "Why?"]

    def test_empty(self):
        assert segment_text("") == []

    def test_no_terminator(self):
        assert segment_text("no terminator") == ["no terminator"]

    def test_terminator_without_space_does_not_split(self):
        assert segment_text("pi is 3.14 ok.") == ["pi is 3.14 ok."]

    def test_preserves_component_bytes(self):
        text = "First  sentence.  Second one!"
        comps = segment_text(text)
        assert comps == ["First  sentence.", "Second one!"]
        for c in comps:
            assert c in text

    def test_reconstruction_modulo_separators(self):
        text = "One. Two. Three ends here"
        comps = segment_text(text)
        assert " ".join(comps) == text


class TestGateAndDensity:
    def test_gate_accepts(self):
        assert mi_gate(0.80, 0.75, 1.00) is True

    def test_gate_rejects_stricter_rho(self):
        assert mi_gate(0.80, 0.75, 1.10) is False

    def test_gate_vacuous_at_zero_rho(self):
        assert mi_gate(0.01, 0.99, 0.0) is True

    def test_density_direct(self):
        assert info_density(0.8, 100, 100) == pytest.approx(0.004)

    def test_density_homogeneity(self):
        assert info_density(0.8, 50, 50) == pytest.approx(2 * info_density(0.8, 100, 100))

    def test_density_zero_sim(self):
        assert info_density(0.0, 10, 990) == 0.0

    def test_density_zero_size(self):
        with pytest.raises(ZeroSize):
            info_density(0.5, 0, 10)


class TestExtraction:
    def test_forward_threshold(self):
        assert extract([0.9, 0.2, 0.7], 0.5) == [0, 2]

    def test_forward_fallback_to_all(self):
        assert extract([0.1, 0.2], 0.5) == [0, 1]

    def test_forward_vacuous_threshold(self):
        assert extract([-0.9, 0.0], -1.0) == [0, 1]

    def test_backward_threshold(self):
        assert extract([0.3, 0.8], 0.5) == [1]

    def test_backward_fallback(self):
        assert extract([0.3, 0.2], 0.5) == [0, 1]


def _handle(expert):
    """``expert`` behind an engine handle whose pathless store keeps its
    float64 values unrounded."""
    return ExpertHandle(expert, None)


def gating_expert(dim=16, semantic_dim=8, noise=0.0, gap=0.0, seed=5):
    cfg = SyntheticExpertConfig(expert_id="gate", seed=seed, dim=dim,
                                semantic_dim=semantic_dim, gap_magnitude=gap,
                                noise_sigma=noise)
    return _handle(SyntheticExpert(cfg))


def vec_pair(sample_id="s1", modality="image", relevant=2, irrelevant=1,
             ann_core=1, ann_off=1, seed=9):
    """Pair whose raw side has payload-aligned and random components."""
    rng = np.random.default_rng(seed)
    payload = normalize(rng.normal(size=8))
    raw = [Component(encode_payload(payload)) for _ in range(relevant)]
    raw += [Component(encode_payload(normalize(rng.normal(size=8))))
            for _ in range(irrelevant)]
    ann = [Component(encode_payload(payload)) for _ in range(ann_core)]
    ann += [Component(encode_payload(normalize(rng.normal(size=8))))
            for _ in range(ann_off)]
    return PairedSample(sample_id=sample_id, pool_id="p0", raw_modality=modality,
                        raw_components=raw, annotation_components=ann,
                        presegmented=True), payload


class TestApplySns:
    def test_off_is_noop(self):
        pair, _ = vec_pair()
        out, rec = apply_sns(pair, SnsConfig(direction="off"), gating_expert())
        assert out is pair
        assert rec.accepted is False
        assert rec.size_before == rec.size_after

    def test_forward_only_trims_raw_keeps_annotation(self):
        pair, _ = vec_pair(relevant=2, irrelevant=2, ann_off=0)
        cfg = SnsConfig(direction="forward", tau_alpha=0.5, tau_beta=0.0, rho=1.0)
        out, rec = apply_sns(pair, cfg, gating_expert(), PayloadDescriber(8))
        assert rec.forward_accepted is True
        assert rec.accepted is True
        assert len(out.raw_components) == 2
        assert out.annotation_components == pair.annotation_components
        assert out.raw_bytes < pair.raw_bytes

    def test_backward_trims_annotation(self):
        pair, _ = vec_pair(relevant=2, irrelevant=0, ann_core=1, ann_off=2)
        cfg = SnsConfig(direction="backward", tau_alpha=0.0, tau_beta=0.5, rho=1.0)
        out, rec = apply_sns(pair, cfg, gating_expert(), PayloadDescriber(8))
        assert rec.backward_accepted is True
        assert len(out.annotation_components) == 1
        assert out.raw_components == pair.raw_components

    def test_bidirectional_forward_accept_backward_reject(self):
        # annotation is pure noise: trimming it can only lower the gate sim
        rng = np.random.default_rng(3)
        payload = normalize(rng.normal(size=8))
        raw = [Component(encode_payload(payload)),
               Component(encode_payload(normalize(rng.normal(size=8))))]
        near = normalize(payload + 0.15 * rng.normal(size=8))
        far = normalize(payload + 4.0 * rng.normal(size=8))
        ann = [Component(encode_payload(near)), Component(encode_payload(far))]
        pair = PairedSample("sx", "p0", "image", raw, ann, presegmented=True)
        gate = gating_expert()
        # tau_beta high enough that only the far sentence would be dropped,
        # but rho strict enough that the trimmed annotation fails its gate
        cfg = SnsConfig(direction="bidirectional", tau_alpha=0.5, tau_beta=0.99,
                        rho=1.15)
        out, rec = apply_sns(pair, cfg, gate, PayloadDescriber(8))
        if rec.forward_accepted and not rec.backward_accepted:
            assert out.raw_components != pair.raw_components
            assert out.annotation_components == pair.annotation_components
            assert rec.sim_variant == rec.sim_forward

    def test_gate_invariant_on_accept(self):
        pair, _ = vec_pair(relevant=1, irrelevant=3, ann_off=1, seed=17)
        cfg = SnsConfig(direction="bidirectional", tau_alpha=0.5, tau_beta=0.5, rho=1.0)
        out, rec = apply_sns(pair, cfg, gating_expert(), PayloadDescriber(8))
        if rec.accepted:
            assert rec.sim_variant >= cfg.rho * rec.sim_original
        else:
            assert out.raw_components == pair.raw_components
            assert out.annotation_components == pair.annotation_components

    def test_reject_is_byte_identical(self):
        pair, _ = vec_pair(relevant=2, irrelevant=1)
        # rho absurdly strict: nothing can pass
        cfg = SnsConfig(direction="bidirectional", tau_alpha=0.5, tau_beta=0.5, rho=5.0)
        out, rec = apply_sns(pair, cfg, gating_expert(), PayloadDescriber(8))
        assert rec.accepted is False
        assert out.raw_components == pair.raw_components
        assert out.annotation_components == pair.annotation_components

    def test_extreme_thresholds_leave_pair_unchanged(self):
        pair, _ = vec_pair()
        cfg = SnsConfig(direction="bidirectional", tau_alpha=-1.0, tau_beta=-1.0, rho=0.0)
        out, rec = apply_sns(pair, cfg, gating_expert(), PayloadDescriber(8))
        assert [c.content for c in out.raw_components] == \
            [c.content for c in pair.raw_components]
        assert [c.content for c in out.annotation_components] == \
            [c.content for c in pair.annotation_components]

    def test_text_modality_describes_itself(self):
        raw = [Component("the red fox jumped over the lazy dog."),
               Component("completely unrelated filler words here.")]
        ann = [Component("red fox jumped over dog."),
               Component("nothing about anything else whatsoever.")]
        pair = PairedSample("t1", "p0", "text", raw, ann)
        cfg = SnsConfig(direction="backward", tau_alpha=0.0, tau_beta=0.3, rho=0.9)
        # no describe_fn needed for text: raw text is its own description
        out, rec = apply_sns(pair, cfg, gating_expert(), describe_fn=None)
        assert rec.error is None

    def test_missing_describer_passes_through_with_error(self):
        pair, _ = vec_pair(modality="video")
        cfg = SnsConfig(direction="backward", tau_alpha=0.0, tau_beta=0.5, rho=1.0)
        out, rec = apply_sns(pair, cfg, gating_expert(), describe_fn=None)
        assert out is pair
        assert rec.accepted is False
        assert rec.error is not None

    def test_size_monotone_on_accept(self):
        for seed in range(8):
            pair, _ = vec_pair(seed=seed, relevant=2, irrelevant=2, ann_off=2)
            cfg = SnsConfig(direction="bidirectional", tau_alpha=0.4, tau_beta=0.4,
                            rho=0.8)
            out, rec = apply_sns(pair, cfg, gating_expert(), PayloadDescriber(8))
            assert out.raw_bytes + out.annotation_bytes <= \
                pair.raw_bytes + pair.annotation_bytes


class TestAcceptanceMonotonicity:
    def test_rate_non_increasing_in_rho(self):
        gate = gating_expert(noise=0.01)
        describer = PayloadDescriber(8)
        pairs = [vec_pair(sample_id=f"s{i}", relevant=2, irrelevant=2,
                          ann_off=1, seed=i)[0] for i in range(40)]
        rates = []
        for rho in (0.0, 0.8, 0.95, 1.0, 1.02, 1.05, 1.1):
            cfg = SnsConfig(direction="bidirectional", tau_alpha=0.5, tau_beta=0.5,
                            rho=rho)
            accepted = sum(
                apply_sns(p, cfg, gate, describer)[1].accepted for p in pairs)
            rates.append(accepted / len(pairs))
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestDescribers:
    def test_table_describer(self):
        desc = TableDescriber({"s1": "a description"})
        pair, _ = vec_pair()
        assert desc.describe_batch([(pair, list(pair.raw_components))])[0] == "a description"
        pair2, _ = vec_pair(sample_id="s2")
        with pytest.raises(DescriberFailure):
            desc.describe_batch([(pair2, list(pair2.raw_components))])

    def test_payload_describer_mean(self):
        rng = np.random.default_rng(0)
        a, b = normalize(rng.normal(size=8)), normalize(rng.normal(size=8))
        comps = [Component(encode_payload(a)), Component(encode_payload(b))]
        pair, _ = vec_pair()
        out = PayloadDescriber(8).describe_batch([(pair, comps)])[0]
        from reference import decode_payload
        got = decode_payload(out)
        assert np.allclose(got, normalize((a + b) / 2), atol=1e-7)


def test_calibrate_taus_lands_between_bands():
    gate = gating_expert(noise=0.01)
    pairs = [vec_pair(sample_id=f"s{i}", relevant=1, irrelevant=1,
                      ann_off=1, seed=100 + i)[0] for i in range(30)]
    tau_alpha, tau_beta = calibrate_taus(Corpus.from_pairs(pairs), gate)
    sims = []
    for p in pairs:
        raw_vecs = [gate.expert.embed(it).values for it in side_items(p, "raw")]
        ann_vecs = [gate.expert.embed(it).values for it in side_items(p, "annotation")]
        ann_side = side_vector(ann_vecs)
        sims.extend(float(v @ ann_side) for v in raw_vecs)
    assert min(sims) < tau_alpha["image"] < max(sims)


def test_nucleus_record_serializes():
    rec = NucleusRecord("s1", "forward", True, 0.9, 0.95, (10, 10), (5, 10))
    doc = rec.to_dict()
    assert doc["sample_id"] == "s1"
    assert doc["size_after"]["raw"] == 5


def _mixed_pairs():
    pairs = [vec_pair(sample_id=f"s{i}", modality=("image", "audio")[i % 2],
                      relevant=2, irrelevant=1 + i % 3, ann_off=1, seed=200 + i)[0]
             for i in range(12)]
    pairs.append(PairedSample(sample_id="t0", pool_id="p1", raw_modality="text",
                              raw_components=[Component("red apples."), Component("a cart.")],
                              annotation_components=[Component("apples in a cart.")]))
    return pairs


# -- the per-pair references ---------------------------------------------------
#
# ``reference.reference_sns``: SNS one pair at a time, every side a
# ``side_vector`` and every similarity a ``cosine_sim``, over rows read from a
# bare expert (``embedded_each``) or from a handle's store (``rows``);
# ``reference.reference_taus``: ``calibrate_taus`` the same way.

def assert_matches_reference(got, expected):
    assert [out for out, _ in got] == [out for out, _ in expected]
    assert [rec.to_dict() for _, rec in got] == [rec.to_dict() for _, rec in expected]


@pytest.mark.parametrize("direction", ["off", "forward", "backward", "bidirectional"])
@pytest.mark.parametrize("describer", [True, False])
def test_run_sns_matches_apply_sns(direction, describer):
    pairs = _mixed_pairs()
    cfg = SnsConfig(direction=direction, tau_alpha=0.5, tau_beta=0.5, rho=0.9)
    describe = PayloadDescriber(8) if describer else None
    expected = [reference_sns(p, cfg, embedded_each(gating_expert(noise=0.01).expert), describe)
                for p in pairs]
    got = run_sns(Corpus.from_pairs(pairs), cfg, gating_expert(noise=0.01), describe)
    assert_matches_reference(got, expected)
    assert_matches_reference([apply_sns(p, cfg, gating_expert(noise=0.01), describe)
                              for p in pairs], expected)
    if direction in ("backward", "bidirectional") and not describer:
        assert all(rec.error for out, rec in got if out.raw_modality != "text")


def test_run_sns_gating_modality_errors_stay_per_pair():
    """A gating expert without image support fails the image pairs only."""
    cfg = SyntheticExpertConfig(expert_id="gate", seed=5, dim=16, semantic_dim=8)
    text_audio = SyntheticExpert(cfg, modalities=("text", "audio"))
    pairs = _mixed_pairs()
    sns_cfg = SnsConfig(direction="bidirectional", tau_alpha=0.5, tau_beta=0.5, rho=0.9)
    got = run_sns(Corpus.from_pairs(pairs), sns_cfg, _handle(text_audio), PayloadDescriber(8))
    assert_matches_reference(
        got, [reference_sns(p, sns_cfg, embedded_each(text_audio), PayloadDescriber(8))
              for p in pairs])
    errors = {p.raw_modality: rec.error for p, (_, rec) in zip(pairs, got)}
    assert "does not support 'image'" in errors["image"]
    assert errors["audio"] is None and errors["text"] is None


def test_calibrate_taus_through_a_handle_embeds_in_batches():
    """A handle gets every component in one batched embed and no single-item
    expert call; the taus equal those from the bare expert."""
    pairs = _mixed_pairs()
    expected = reference_taus(pairs, gating_expert(noise=0.01).expert)
    handle = gating_expert(noise=0.01)
    gate = handle.expert
    calls = {"embed": 0, "embed_batch": 0}
    embed, embed_batch = gate.embed, gate.embed_batch

    def counted(name, fn):
        def call(arg):
            calls[name] += 1
            return fn(arg)
        return call

    gate.embed = counted("embed", embed)
    gate.embed_batch = counted("embed_batch", embed_batch)
    assert calibrate_taus(Corpus.from_pairs(pairs), handle) == expected
    assert calls == {"embed": 0, "embed_batch": 1}


def test_non_finite_component_fails_its_pair_only():
    """A NaN payload fails its own pair, as in the per-item reference; the
    batch it shared with every other pair is read group by group."""
    pairs = _mixed_pairs()
    bad = pairs[3]
    pairs[3] = replace(bad, raw_components=(
        Component(encode_payload(np.full(8, np.nan))),) + bad.raw_components[1:])
    cfg = SnsConfig(direction="bidirectional", tau_alpha=0.5, tau_beta=0.5, rho=0.9)
    got = run_sns(Corpus.from_pairs(pairs), cfg, gating_expert(noise=0.01), PayloadDescriber(8))
    assert_matches_reference(
        got, [reference_sns(p, cfg, embedded_each(gating_expert(noise=0.01).expert),
                            PayloadDescriber(8)) for p in pairs])
    errors = [rec.error for _, rec in got]
    assert "norm nan" in errors[3] and got[3][0] is pairs[3]
    assert errors[:3] + errors[4:] == [None] * (len(pairs) - 1)


def test_trimmed_pairs_carry_the_annotation_text_their_record_reads_back_as():
    """Pairs whose annotation text is a sentence string, not the components
    joined by newlines: a trimmed annotation's text is the round trip's, an
    untrimmed one keeps the input's."""
    pairs = [replace(p, annotation_text=" ".join(c.content for c in p.annotation_components))
             for p in _mixed_pairs()]
    cfg = SnsConfig(direction="bidirectional", tau_alpha=0.5, tau_beta=0.5, rho=0.9)
    trimmed = kept = 0
    for pair, (out, _) in zip(pairs, run_sns(Corpus.from_pairs(pairs), cfg,
                                             gating_expert(noise=0.01), PayloadDescriber(8))):
        if out.annotation_components != pair.annotation_components:
            trimmed += 1
            assert out.annotation_text == sample_from_record(
                sample_to_record(out)).annotation_text
            assert out.annotation_text != pair.annotation_text
        else:
            kept += len(pair.annotation_components) > 1
            assert out.annotation_text == pair.annotation_text
    assert trimmed > 0 and kept > 0


def test_emitted_pairs_equal_the_replace_oracle():
    """Every pair SNS emits from a 4x40 synth corpus equals, field by field,
    the pair ``dataclasses.replace`` rebuilds and checks from its input with
    the kept components. Its annotation text is the input's while every
    sentence is kept (half the inputs carry a text of their own), else the
    kept sentences joined by newlines."""
    from emblend.synth import SynthSpec, generate_corpus
    spec = SynthSpec(seed=8, pools=4, samples_per_pool=40, dim=16, semantic_dim=8,
                     raw_distractors=2, annotation_extras=1)
    pairs = [replace(p, annotation_text=" ".join(c.content for c in p.annotation_components))
             if k % 2 else p for k, p in enumerate(generate_corpus(spec))]
    cfg = SnsConfig(direction="bidirectional", tau_alpha=0.3, tau_beta=0.3, rho=1.05)
    seen = {"passed": 0, "raw trimmed": 0, "annotation trimmed": 0, "own text kept": 0}
    for pair, (out, rec) in zip(pairs, run_sns(Corpus.from_pairs(pairs), cfg,
                                               gating_expert(noise=0.01), PayloadDescriber(8))):
        if not rec.accepted:
            assert out is pair
            seen["passed"] += 1
            continue
        want = emitted_pair(pair, out.raw_components, out.annotation_components)
        assert type(out) is PairedSample and vars(out) == vars(want)
        seen["raw trimmed"] += len(out.raw_components) < len(pair.raw_components)
        if len(out.annotation_components) < len(pair.annotation_components):
            seen["annotation trimmed"] += 1
            assert out.annotation_text == "\n".join(c.content for c in out.annotation_components)
        else:
            assert out.annotation_text == pair.annotation_text
            seen["own text kept"] += pair.annotation_text != "\n".join(
                c.content for c in pair.annotation_components)
    assert min(seen.values()) > 0, seen


class _PartlyFailingDescriber(PayloadDescriber):
    """The payload describer, except that a batch with a pair it cannot
    describe fails with that pair's refusal."""

    def describe_batch(self, requests):
        for pair, _ in requests:
            if pair.sample_id in ("s3", "s8"):
                raise DescriberFailure(f"describer refused {pair.sample_id}")
        return super().describe_batch(requests)


def _parity_pairs():
    """Mixed pairs plus: a NaN @vec component; raw components, and in another
    pair annotation components, that cancel (their side is the zero vector
    under a noise-free expert); and a video
    pair whose forward nucleus keeps two cancelling components and drops the
    one aligned against the annotation."""
    pairs = _mixed_pairs()
    bad = pairs[5]
    pairs[5] = replace(bad, raw_components=bad.raw_components[:1] + (
        Component(encode_payload(np.full(8, np.nan))),))
    rng = np.random.default_rng(21)
    v = normalize(rng.normal(size=8))
    pairs.append(PairedSample("cancel", "p2", "image",
                              [Component(encode_payload(v)), Component(encode_payload(-v))],
                              [Component(encode_payload(v))], presegmented=True))
    pairs.append(PairedSample("ann-cancel", "p2", "audio", [Component(encode_payload(v))],
                              [Component(encode_payload(v)), Component(encode_payload(-v))],
                              presegmented=True))
    a = np.zeros(8)
    a[0] = 1.0
    u = np.zeros(8)
    u[1] = 1.0
    pairs.append(PairedSample("nucleus", "p2", "video",
                              [Component(encode_payload(u)), Component(encode_payload(-u)),
                               Component(encode_payload(-a))],
                              [Component(encode_payload(a))], presegmented=True))
    return pairs


@pytest.mark.parametrize("direction", ["off", "forward", "backward", "bidirectional"])
@pytest.mark.parametrize("reinject", [True])  # its one allowed value
@pytest.mark.parametrize("rho", [0.0, 1.0, 1.05])
def test_run_sns_equals_per_pair_oracle(direction, reinject, rho):
    """Every record field (floats by ==) and every emitted pair equal the
    per-pair phases', including pairs that fail at reading, at a side, at a
    nucleus side and at describing."""
    pairs = _parity_pairs()
    tau = {"text": 0.5, "image": 0.5, "audio": 0.5, "video": -0.5}
    cfg = SnsConfig(direction=direction, tau_alpha=tau, tau_beta=dict(tau), rho=rho,
                    reinject=reinject)
    for noise in (0.0, 0.01):
        got = run_sns(Corpus.from_pairs(pairs), cfg, gating_expert(noise=noise),
                      _PartlyFailingDescriber(8))
        read = partial(rows, gating_expert(noise=noise))
        want = [reference_sns(p, cfg, read, _PartlyFailingDescriber(8)) for p in pairs]
        assert [out for out, _ in got] == [out for out, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert g == w
        if direction == "off":
            continue
        errors = {rec.sample_id: rec.error for _, rec in got}
        assert "norm nan" in errors["s5"]
        if noise == 0.0:
            assert errors["cancel"] == errors["ann-cancel"] == \
                "cannot normalize vector with norm 0.0"
            if direction in ("forward", "bidirectional"):
                assert errors["nucleus"] == "cannot normalize vector with norm 0.0"
        if direction in ("backward", "bidirectional"):
            assert (errors["s3"], errors["s8"]) == ("describer refused s3", "describer refused s8")


class _CountingDescriber(PayloadDescriber):
    """The payload describer, recording the sample ids of each batch it is
    sent; a batch with a pair in ``refuse`` fails with that pair's refusal."""

    def __init__(self, semantic_dim, refuse=()):
        super().__init__(semantic_dim)
        self.refuse = set(refuse)
        self.batches = []

    def describe_batch(self, requests):
        ids = [pair.sample_id for pair, _ in requests]
        self.batches.append(ids)
        for sample_id in ids:
            if sample_id in self.refuse:
                raise DescriberFailure(f"describer refused {sample_id}")
        return super().describe_batch(requests)


@pytest.mark.parametrize("direction", ["backward", "bidirectional"])
def test_describe_is_one_batch_and_a_failed_batch_is_retried_pair_by_pair(direction):
    """One batch of every media pair when all pass. A batch that fails is
    bisected: its halves, in order, are retried as batches, down to single
    pairs. The other pairs keep the results of the run where every batch
    passed, and each refused pair passes through with its own error; with
    every media pair refused, m pairs take 2m - 1 calls. Text pairs describe
    themselves."""
    pairs = _mixed_pairs()
    media = [p.sample_id for p in pairs if p.raw_modality != "text"]
    assert media == [f"s{k}" for k in range(12)] and len(media) < len(pairs)
    cfg = SnsConfig(direction=direction, tau_alpha=0.5, tau_beta=0.5, rho=0.9)
    describer = _CountingDescriber(8)
    want = run_sns(Corpus.from_pairs(pairs), cfg, gating_expert(noise=0.01), describer)
    assert describer.batches == [media]
    assert not any(rec.error for _, rec in want)
    s3_calls = [media, media[:6], media[:3], media[3:6], ["s3"], ["s4", "s5"]]
    for refuse, batches in [
        ({"s3"}, s3_calls + [media[6:]]),
        ({"s3", "s8"}, s3_calls + [media[6:], media[6:9], ["s6"], ["s7", "s8"], ["s7"], ["s8"],
                                   media[9:]]),
        (set(media), None),
    ]:
        describer = _CountingDescriber(8, refuse=refuse)
        got = run_sns(Corpus.from_pairs(pairs), cfg, gating_expert(noise=0.01), describer)
        if batches is None:
            assert len(describer.batches) == 2 * len(media) - 1
            assert [b for b in describer.batches if len(b) == 1] == [[k] for k in media]
        else:
            assert describer.batches == batches
        for pair, result, wanted in zip(pairs, got, want):
            if pair.sample_id in refuse:
                error = f"describer refused {pair.sample_id}"
                assert result == _passthrough_of(pair, direction, error)
            else:
                assert result == wanted


def _passthrough_of(pair, direction, error):
    size = (pair.raw_bytes, pair.annotation_bytes)
    return pair, NucleusRecord(pair.sample_id, direction, False, None, None, size, size,
                               error=error)


def test_calibrate_taus_raises_the_first_failing_pair():
    """A pair whose side does not normalize and a pair that cannot be read:
    the first in sample order raises, as when pairs were read one by one."""
    pairs = _parity_pairs()
    cancel = next(p for p in pairs if p.sample_id == "cancel")
    unreadable = pairs[5]
    with pytest.raises(ZeroVector, match="norm 0.0"):
        calibrate_taus(Corpus.from_pairs([pairs[0], cancel, unreadable]), gating_expert())
    with pytest.raises(GatingExpertFailure, match="norm nan"):
        calibrate_taus(Corpus.from_pairs([pairs[0], unreadable, cancel]), gating_expert())


def per_call_side_items(pair, side):
    """The builder ``side_items`` used before items were kept per sample:
    one blake2b id, f-string and ``EmbedItem`` per component on each call."""
    if side == "raw":
        components, modality, tag = pair.raw_components, pair.raw_modality, "r"
    else:
        components, modality, tag = pair.annotation_components, "text", "a"
    return [EmbedItem(component_item_id(pair.sample_id, tag, c.content), modality, c.content)
            for c in components]


def test_side_items_equal_the_per_call_builder():
    """A corpus's items and item ids, of the input pairs and of the emitted
    ones, equal the per-call builder's; the ids are hashed once."""
    from emblend.synth import SynthSpec, generate_corpus
    spec = SynthSpec(seed=3, pools=4, samples_per_pool=12, dim=16, semantic_dim=8,
                     raw_distractors=2, annotation_extras=1)
    pairs = generate_corpus(spec)
    cfg = SnsConfig(direction="bidirectional", tau_alpha=0.3, tau_beta=0.3, rho=0.5)
    trimmed = [emitted for emitted, _ in run_sns(Corpus.from_pairs(pairs), cfg,
                                                 gating_expert(noise=0.01), PayloadDescriber(8))]
    assert sum(t is not p for t, p in zip(trimmed, pairs)) > 0  # some variants were emitted
    assert any(len(p.raw_components) > 2 for p in pairs)  # distractors
    assert any(len(p.annotation_components) > 1 for p in pairs)  # extras
    for corpus in (Corpus.from_pairs(pairs), Corpus.from_pairs(trimmed)):
        assert corpus.item_ids is corpus.item_ids  # computed once
        for k, pair in enumerate(corpus):
            lo, hi = corpus.starts[k:k + 2].tolist()
            for side in ("raw", "annotation"):
                want = per_call_side_items(pair, side)
                assert corpus.items(k, side) == want
                assert side_items(pair, side) == tuple(want)
                assert side_ids(pair, side) == tuple(it.item_id for it in want)
            assert corpus.items(k) == per_call_side_items(pair, "raw") + \
                per_call_side_items(pair, "annotation")
            assert corpus.item_ids[lo:hi] == [it.item_id for it in corpus.items(k)]
    # a variant's items keep the ids of the components it kept, which are the
    # pair's own component objects
    for pair, variant in zip(pairs, trimmed):
        if variant is not pair:
            kept = set(pair_ids(variant))
            assert kept <= set(pair_ids(pair))
            comps = pair.raw_components + pair.annotation_components
            assert all(any(c is d for d in comps)
                       for c in variant.raw_components + variant.annotation_components)


# -- the rows SNS read before every read went through ExpertHandle.positions --
#
# Oracles from ``reference``: every pair's items built and sent through
# ``stored_rows``, which resolves the misses and reads the rows item by item,
# and descriptions through ``item_positions``.

def _errors(errors):
    return {k: (type(exc), str(exc)) for k, exc in errors.items()}


def _text_audio_gate():
    cfg = SyntheticExpertConfig(expert_id="gate", seed=5, dim=16, semantic_dim=8,
                                noise_sigma=0.01)
    return SyntheticExpert(cfg, modalities=("text", "audio"))


# store case -> (pairs, gating expert, pairs whose components are stored first,
# in that order)
ID_PATH_CASES = {
    "warm": (_mixed_pairs, lambda: gating_expert(noise=0.01).expert, lambda pairs: pairs[::-1]),
    "cold": (_parity_pairs, lambda: gating_expert(noise=0.01).expert, lambda pairs: []),
    "half-warm": (_parity_pairs, lambda: gating_expert(noise=0.01).expert,
                  lambda pairs: pairs[::2]),
    "failing expert": (_mixed_pairs, _text_audio_gate,
                       lambda pairs: [p for p in pairs if p.raw_modality != "image"]),
}


def _prepared_handle(case, path):
    """A handle on a cache file at ``path`` that holds the case's stored pairs,
    and fresh copies of the case's pairs, whose items are not built yet."""
    make_pairs, make_expert, stored = ID_PATH_CASES[case]
    handle = ExpertHandle(make_expert(), path)
    warm = stored(make_pairs())
    if warm:
        resolve(handle, [it for p in warm for it in pair_items(p)])
    return handle, Corpus.from_pairs(make_pairs())


class _DescriptionFailingDescriber(PayloadDescriber):
    """The payload describer, except that a batch with one audio pair fails
    with its refusal, and two other pairs get a 5-entry payload, which the
    gating expert cannot embed."""

    def describe_batch(self, requests):
        if any(pair.sample_id == "s3" for pair, _ in requests):
            raise DescriberFailure("describer refused s3")
        return [encode_payload(np.ones(5)) if pair.sample_id in ("s1", "s7") else text
                for (pair, _), text in zip(requests, super().describe_batch(requests))]


@pytest.mark.parametrize("case", list(ID_PATH_CASES))
def test_pair_rows_equal_the_item_path(case, tmp_path, monkeypatch):
    """``run_sns`` and ``calibrate_taus`` give the item path's rows, errors,
    emitted pairs and records, and leave the same cache file: records, order
    and bytes. The item path reads descriptions through ``item_positions``;
    a describer that fails for some pairs, first, sends a failing batch of
    descriptions and ``DescriberFailure`` through both paths."""
    cfg = SnsConfig(direction="bidirectional", tau_alpha=0.5, tau_beta=0.5, rho=0.9)
    got, files = {}, {}
    for name, pair_rows in (("id", sns_module._pair_rows), ("items", item_pair_rows)):
        monkeypatch.setattr(sns_module, "_pair_rows", pair_rows)
        path = tmp_path / name / "gate.eec"
        path.parent.mkdir()
        handle, pairs = _prepared_handle(case, path)
        if name == "items":
            handle.positions = partial(item_positions, handle)
        rows, errors = pair_rows(handle, pairs)
        try:
            taus = calibrate_taus(pairs, handle)
        except EmblendError as exc:
            taus = (type(exc), str(exc))
        got[name] = (rows, _errors(errors), taus,
                     run_sns(pairs, cfg, handle, _DescriptionFailingDescriber(8)),
                     run_sns(pairs, cfg, handle, PayloadDescriber(8)))
        files[name] = (records(path, 16), path.read_bytes())
    (rows, errors, taus, failing, results), (want_rows, want_errors, want_taus, want_failing,
                                             want) = got.values()
    assert np.array_equal(rows, want_rows)
    assert errors == want_errors and taus == want_taus
    assert [out for out, _ in results] == [out for out, _ in want]
    assert [rec for _, rec in results] == [rec for _, rec in want]
    assert [out for out, _ in failing] == [out for out, _ in want_failing]
    assert [rec for _, rec in failing] == [rec for _, rec in want_failing]
    assert files["id"] == files["items"]
    failed = {rec.sample_id: rec.error for _, rec in failing}
    assert failed["s3"] == "describer refused s3"
    assert all("@vec payload has 5 entries" in failed[sid] for sid in ("s1", "s7"))
    assert {sid for sid, error in failed.items() if error} == \
        {rec.sample_id for _, rec in results if rec.error} | {"s1", "s3", "s7"}
    if case == "failing expert":
        assert set(errors) == {i for i, p in enumerate(_mixed_pairs())
                               if p.raw_modality == "image"}
    elif case != "warm":
        assert len(records(tmp_path / "id" / "gate.eec", 16)) > 0


def test_a_group_that_fails_in_a_batch_reads_minus_one(tmp_path):
    """Slices of 8 items (batch size 1); the group of 8 texts and an image
    fails after the first batched embed has stored some of its texts. The
    other groups are stored, the failed group's rows read -1, and rows,
    errors and file bytes equal ``stored_rows``'. Without a failure type
    the error propagates."""
    texts = [EmbedItem(f"t{j}", "text", f"word{j} here") for j in range(11)]
    groups = [texts[:3], texts[3:] + [EmbedItem("img", "image", "a picture")],
              [EmbedItem("a0", "audio", "rain"), EmbedItem("a1", "audio", "wind")]]
    handles = {}
    for name in ("positions", "stored_rows"):
        expert = _text_audio_gate()
        expert.batch_size = 1
        handles[name] = ExpertHandle(expert, tmp_path / f"{name}.eec")
    handle = handles["positions"]
    ids, counts = [it.item_id for g in groups for it in g], [len(g) for g in groups]
    at, errors = handle.positions(ids, counts, lambda k: groups[k], GatingExpertFailure)
    want_rows, want_errors = stored_rows(handles["stored_rows"], groups, GatingExpertFailure)
    assert _errors(errors) == _errors(want_errors)
    assert list(errors) == [1] and "does not support 'image'" in str(errors[1])
    assert at[:3].tolist() == [0, 1, 2] and (at[3:12] == -1).all() and (at[12:] >= 0).all()
    assert ("t3", "gate") in handle.store and ("img", "gate") not in handle.store
    assert np.array_equal(handle.store.matrix[at[at >= 0]], want_rows)
    assert (tmp_path / "positions.eec").read_bytes() == (tmp_path / "stored_rows.eec").read_bytes()
    with pytest.raises(UnsupportedModality):
        ExpertHandle(_text_audio_gate(), None).positions(ids, counts, lambda k: groups[k])


def test_positions_builds_the_items_of_a_group_with_a_miss_once(tmp_path):
    """``items(k)`` runs once for each group with a missing id, in group
    order, and never for a group the store holds; rows and file bytes equal
    ``item_positions``'. A failed batch is retried group by group, which
    builds each group's items once more."""
    pairs = _mixed_pairs()
    ids = [i for p in pairs for i in pair_ids(p)]
    counts = [len(pair_ids(p)) for p in pairs]
    calls = []

    def items(k):
        calls.append(k)
        return pair_items(pairs[k])

    handles = {}
    for name in ("positions", "item_positions"):
        handles[name] = ExpertHandle(gating_expert(noise=0.01).expert, tmp_path / f"{name}.eec")
        resolve(handles[name], [it for p in pairs[::2] for it in pair_items(p)])
    at, errors = handles["positions"].positions(ids, counts, items)
    assert calls == list(range(1, len(pairs), 2)) and errors == {}
    want, _ = item_positions(handles["item_positions"], ids, counts,
                             lambda k: pair_items(pairs[k]))
    assert np.array_equal(at, want)
    assert (tmp_path / "positions.eec").read_bytes() == \
        (tmp_path / "item_positions.eec").read_bytes()
    calls.clear()
    _, errors = ExpertHandle(_text_audio_gate(), None).positions(ids, counts, items,
                                                                 GatingExpertFailure)
    assert set(errors) == {k for k, p in enumerate(pairs) if p.raw_modality == "image"}
    assert calls == list(range(len(pairs))) * 2


def test_warm_store_rows_build_no_items_and_embed_nothing(tmp_path, monkeypatch):
    handle, pairs = _prepared_handle("warm", tmp_path / "gate.eec")
    built, items = [], Corpus.items
    monkeypatch.setattr(Corpus, "items", lambda self, k, side=None:
                        built.append(k) or items(self, k, side))
    calls = []
    embed_batch = handle.expert.embed_batch
    handle.expert.embed_batch = lambda items: calls.append(items) or embed_batch(items)
    rows, errors = sns_module._pair_rows(handle, pairs)
    assert errors == {} and len(rows) == sum(len(pair_items(p)) for p in _mixed_pairs())
    calibrate_taus(pairs, handle)
    cfg = SnsConfig(direction="forward", tau_alpha=0.5, tau_beta=0.5, rho=0.9)
    run_sns(pairs, cfg, handle)
    assert calls == []
    assert built == []
