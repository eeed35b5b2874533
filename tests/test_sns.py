import numpy as np
import pytest

from emblend.errors import DescriberFailure, ZeroSize
from emblend.experts import SyntheticExpert, SyntheticExpertConfig, encode_payload
from emblend.geometry import normalize
from emblend.sns import (Component, NucleusRecord, PairedSample, PayloadDescriber,
                         SnsConfig, TableDescriber, apply_sns, calibrate_taus,
                         extract, info_density, mi_gate, segment_text, side_vector)


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


def gating_expert(dim=16, semantic_dim=8, noise=0.0, gap=0.0, seed=5):
    cfg = SyntheticExpertConfig(expert_id="gate", seed=seed, dim=dim,
                                semantic_dim=semantic_dim, gap_magnitude=gap,
                                noise_sigma=noise)
    return SyntheticExpert(cfg)


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
        assert desc(pair, list(pair.raw_components)) == "a description"
        pair2, _ = vec_pair(sample_id="s2")
        with pytest.raises(DescriberFailure):
            desc(pair2, list(pair2.raw_components))

    def test_payload_describer_mean(self):
        rng = np.random.default_rng(0)
        a, b = normalize(rng.normal(size=8)), normalize(rng.normal(size=8))
        comps = [Component(encode_payload(a)), Component(encode_payload(b))]
        pair, _ = vec_pair()
        out = PayloadDescriber(8)(pair, comps)
        from emblend.experts import decode_payload
        got = decode_payload(out)
        assert np.allclose(got, normalize((a + b) / 2), atol=1e-7)


def test_calibrate_taus_lands_between_bands():
    gate = gating_expert(noise=0.01)
    pairs = [vec_pair(sample_id=f"s{i}", relevant=1, irrelevant=1,
                      ann_off=1, seed=100 + i)[0] for i in range(30)]
    tau_alpha, tau_beta = calibrate_taus(pairs, gate)
    sims = []
    from emblend.sns import _embed_components
    for p in pairs:
        raw_vecs = _embed_components(gate, p.sample_id, p.raw_modality,
                                     p.raw_components, "r")
        ann_vecs = _embed_components(gate, p.sample_id, "text",
                                     p.annotation_components, "a")
        ann_side = side_vector(ann_vecs)
        sims.extend(float(v @ ann_side) for v in raw_vecs)
    assert min(sims) < tau_alpha["image"] < max(sims)


def test_nucleus_record_serializes():
    rec = NucleusRecord("s1", "forward", True, 0.9, 0.95, (10, 10), (5, 10))
    doc = rec.to_dict()
    assert doc["sample_id"] == "s1"
    assert doc["size_after"]["raw"] == 5
