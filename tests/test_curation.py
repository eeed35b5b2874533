import dataclasses
import json
import sys

import numpy as np
import pytest

from emblend.curation import (Blend, FilterConfig, blend_stats, char_counts,
                              curate_topn, heuristic_filter, kmeans, pca_2d,
                              sample_stratified, sample_uniform, semantic_dedup,
                              stratified_quotas, traditional_pipeline)
from emblend.dataio import Component, Corpus, PairedSample
from emblend.errors import (EmptyPool, KTooLarge, NTooLarge, PoolTooSmall,
                            UnknownId)
from reference import heuristic_filter_oracle, kmeans_oracle

rng = np.random.default_rng(17)


def make_samples(n, pools=1, modality="text"):
    out = []
    for i in range(n):
        out.append(PairedSample(
            sample_id=f"s{i:04d}", pool_id=f"pool{i % pools}",
            raw_modality=modality,
            raw_components=[Component(f"raw {i}.")],
            annotation_components=[Component(f"annotation {i}.")]))
    return Corpus.from_pairs(out)


def unit_rows(n, d, gen=None):
    gen = gen or rng
    x = gen.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# Unicode whitespace (NBSP, ideographic space, line/paragraph separators,
# the file/group/record separators \x1c-\x1e) and alphanumerics beyond ASCII
# (accented letters, CJK, Devanagari digits, superscripts, fractions, Roman
# numerals), combining marks and emoji, which are neither.
UNICODE_TEXTS = [
    "plain ascii words 123",
    "caf\u00e9 na\u00efve \u00c5ngstr\u00f6m",
    "\u00a0nbsp\u00a0and\u3000ideographic\u2028line\u2029para\x1c\x1d\x1e\x85",
    "\u6f22\u5b57\u304b\u306a \u0967\u0968\u0969 \u00b2\u00b3 \u00bd\u2153 \u2160\u2161",
    "e\u0301 combining \u0300\u0301 marks",
    "emoji \U0001f600\U0001f680 !!! ??? ...",
    "\t\n\x0b\x0c\r mixed \u2009thin\u200bzero-width",
    "\u00a0\u00a0x",
]


class TestCurateTopN:
    def test_hand_set_similarities(self):
        samples = make_samples(3)
        query = np.array([1.0, 0.0])
        fused = np.array([[0.9, np.sqrt(1 - 0.81)],
                          [0.5, np.sqrt(0.75)],
                          [0.1, np.sqrt(0.99)]])
        blend = curate_topn(query, samples, fused, 2)
        assert blend.sample_ids == ["s0000", "s0001"]
        assert blend.scores[0] == pytest.approx(0.9)

    def test_full_pool(self):
        samples = make_samples(4)
        fused = unit_rows(4, 3)
        blend = curate_topn(unit_rows(1, 3)[0], samples, fused, 4)
        assert sorted(blend.sample_ids) == [s.sample_id for s in samples]

    def test_query_match_ranks_first(self):
        samples = make_samples(5)
        fused = unit_rows(5, 4)
        blend = curate_topn(fused[3], samples, fused, 1)
        assert blend.sample_ids == ["s0003"]

    def test_permutation_invariant(self):
        samples = make_samples(20)
        fused = unit_rows(20, 4)
        query = unit_rows(1, 4)[0]
        blend = curate_topn(query, samples, fused, 5)
        perm = rng.permutation(20)
        blend2 = curate_topn(query, Corpus.from_pairs(samples[i] for i in perm), fused[perm], 5)
        assert blend.sample_ids == blend2.sample_ids

    def test_empty_pool(self):
        with pytest.raises(EmptyPool):
            curate_topn(np.ones(2), Corpus.from_pairs([]), np.zeros((0, 2)), 1)


class TestSampleUniform:
    def test_deterministic(self):
        samples = make_samples(30)
        a = sample_uniform(samples, 10, seed=5)
        b = sample_uniform(samples, 10, seed=5)
        assert a.sample_ids == b.sample_ids

    def test_whole_pool(self):
        samples = make_samples(7)
        blend = sample_uniform(samples, 7, seed=1)
        assert sorted(blend.sample_ids) == [s.sample_id for s in samples]

    def test_no_duplicates(self):
        samples = make_samples(50)
        blend = sample_uniform(samples, 25, seed=2)
        assert len(set(blend.sample_ids)) == 25

    def test_n_too_large(self):
        with pytest.raises(NTooLarge):
            sample_uniform(make_samples(3), 4, seed=0)

    def test_inclusion_frequency_monte_carlo(self):
        samples = make_samples(10)
        counts = {s.sample_id: 0 for s in samples}
        for seed in range(1000):
            for sid in sample_uniform(samples, 5, seed=seed).sample_ids:
                counts[sid] += 1
        for sid, c in counts.items():
            assert abs(c / 1000 - 0.5) <= 0.05, (sid, c)


class TestSampleStratified:
    def test_five_pools_thousand_each(self):
        samples = make_samples(10000, pools=5)
        blend = sample_stratified(samples, 5000, seed=3)
        assert all(v == 1000 for v in blend.per_pool.values())
        assert len(blend.per_pool) == 5

    def test_even_split(self):
        samples = make_samples(8, pools=2)
        blend = sample_stratified(samples, 4, seed=4)
        assert all(v == 2 for v in blend.per_pool.values())

    def test_remainder_to_largest_pools(self):
        # pools sized 5, 2, 2: n=4 -> quotas {2,1,1} with extra to the largest
        assert stratified_quotas({"a": 5, "b": 2, "c": 2}, 4) == \
            {"a": 2, "b": 1, "c": 1}

    def test_remainder_tie_broken_by_pool_id(self):
        assert stratified_quotas({"b": 3, "a": 3, "c": 3}, 4) == \
            {"a": 2, "b": 1, "c": 1}

    def test_pool_too_small(self):
        # pools sized {3, 1}; quotas for n=4 are 2+2, the small pool cannot fill
        samples = make_samples(4, pools=1).pairs
        samples[-1] = PairedSample(
            sample_id="tiny", pool_id="poolX", raw_modality="text",
            raw_components=[Component("r.")],
            annotation_components=[Component("a.")])
        with pytest.raises(PoolTooSmall):
            sample_stratified(Corpus.from_pairs(samples), 4, seed=0)

    def test_deterministic(self):
        samples = make_samples(40, pools=4)
        a = sample_stratified(samples, 20, seed=9)
        b = sample_stratified(samples, 20, seed=9)
        assert a.sample_ids == b.sample_ids


class TestHeuristicFilter:
    def test_ratio_counts_non_whitespace(self):
        report = heuristic_filter("abc!!", FilterConfig())
        assert report.measured["non_alnum_ratio"] == pytest.approx(0.4)
        assert "non_alnum_ratio" not in report.failed_rules

    def test_ratio_fails_above_threshold(self):
        report = heuristic_filter("!!!@@ ab", FilterConfig())
        assert report.measured["non_alnum_ratio"] == pytest.approx(5 / 7)
        assert report.passed is False

    def test_repeated_lines_fail(self):
        text = "\n".join(["same line"] * 10)
        report = heuristic_filter(text, FilterConfig())
        assert report.measured["repeated_line_fraction"] == pytest.approx(0.9)
        assert "repeated_line_fraction" in report.failed_rules

    def test_clean_sentence_passes(self):
        report = heuristic_filter("A perfectly normal annotation sentence.",
                                  FilterConfig())
        assert report.passed is True

    def test_boilerplate_case_insensitive(self):
        cfg = FilterConfig(boilerplate=["click HERE"])
        report = heuristic_filter("Click here to subscribe.", cfg)
        assert "boilerplate" in report.failed_rules

    def test_empty_text_dedicated_rule(self):
        report = heuristic_filter("   ", FilterConfig())
        assert report.failed_rules == ["empty_text"]

    @pytest.mark.parametrize("text", ["   ", "A clean sentence.", "!!!@@ ab\n!!!@@ ab",
                                      "Click here to subscribe."])
    def test_to_dict_equals_the_hand_written_dict(self, text):
        report = heuristic_filter(text, FilterConfig(boilerplate=["click HERE"]), "s1")
        want = {"sample_id": report.sample_id, "passed": report.passed,
                "failed_rules": list(report.failed_rules), "measured": dict(report.measured)}
        assert json.dumps(report.to_dict()) == json.dumps(want)
        assert json.dumps(report.to_dict()) == json.dumps(dataclasses.asdict(report))

    def test_char_counts_equal_the_per_character_count_for_every_code_point(self):
        chars = [chr(c) for c in range(sys.maxunicode + 1)]  # lone surrogates too
        assert list(map(char_counts, chars)) == \
            [(int(not c.isspace()), int(c.isalnum())) for c in chars]

    def test_char_counts_of_corpus_texts(self):
        from emblend.synth import SynthSpec, generate_corpus
        pairs = generate_corpus(SynthSpec(seed=5, pools=4, samples_per_pool=40))
        texts = [text for p in pairs for text in (p.annotation_text, p.raw_components[0].content)]
        for text in texts + UNICODE_TEXTS + ["".join(map(chr, range(128)))]:
            assert char_counts(text) == (sum(not c.isspace() for c in text),
                                         sum(c.isalnum() for c in text))

    @pytest.mark.parametrize("text", UNICODE_TEXTS)
    def test_ratio_equals_the_per_character_count(self, text):
        config = FilterConfig()
        report = heuristic_filter(text, config, "s1")
        want = heuristic_filter_oracle(text, config, "s1")
        assert json.dumps(report.to_dict()) == json.dumps(dataclasses.asdict(want))
        assert report.measured.get("non_alnum_ratio") == want.measured.get("non_alnum_ratio")

    def test_no_character_is_both_whitespace_and_alphanumeric(self):
        # the ratio counts whitespace and alphanumerics over the whole text
        assert not [c for c in map(chr, range(sys.maxunicode + 1))
                    if c.isspace() and c.isalnum()]


class TestKMeans:
    def test_recovers_separated_clusters(self):
        gen = np.random.default_rng(6)
        a = gen.normal(size=(30, 4)) * 0.05 + np.array([5.0, 0, 0, 0])
        b = gen.normal(size=(30, 4)) * 0.05 - np.array([5.0, 0, 0, 0])
        labels, _ = kmeans(np.vstack([a, b]), 2, seed=0)
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[30]

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            kmeans(unit_rows(3, 2), 4, seed=0)

    @pytest.mark.parametrize("case", ["spread", "duplicates", "empty cluster", "k = n"])
    def test_equals_the_mask_per_cluster_loop(self, case):
        gen = np.random.default_rng(23)
        x, k = unit_rows(300, 8, gen), 17
        if case == "duplicates":
            x = np.repeat(unit_rows(12, 8, gen), 25, axis=0)
        elif case == "empty cluster":  # 3 distinct points, 5 centroids: 2 repeat one
            x, k = np.repeat(unit_rows(3, 4, gen), 4, axis=0), 5
        elif case == "k = n":
            x, k = unit_rows(9, 4, gen), 9
        for seed in range(3):
            labels, centroids = kmeans(x, k, seed)
            want_labels, want_centroids = kmeans_oracle(x, k, seed)
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(centroids, want_centroids)

    def test_deterministic(self):
        x = unit_rows(40, 5)
        l1, c1 = kmeans(x, 4, seed=5)
        l2, c2 = kmeans(x, 4, seed=5)
        assert np.array_equal(l1, l2)
        assert np.array_equal(c1, c2)


class TestSemanticDedup:
    def test_exact_duplicates_keep_one(self):
        x = unit_rows(20, 6)
        x[7] = x[3]
        ids = [f"s{i:02d}" for i in range(20)]
        kept = semantic_dedup(ids, x, k_clusters=4, epsilon=0.05, seed=1)
        assert ("s03" in kept) != ("s07" in kept) or "s07" not in kept
        assert not ("s03" in kept and "s07" in kept)

    def test_all_distant_all_kept(self):
        x = np.eye(8)
        ids = [f"s{i}" for i in range(8)]
        kept = semantic_dedup(ids, x, k_clusters=2, epsilon=0.05, seed=2)
        assert kept == sorted(ids)

    def test_tight_triple_keeps_scan_first(self):
        base = unit_rows(1, 8)[0]
        x = np.vstack([base, base, base] + [unit_rows(1, 8, np.random.default_rng(i))[0]
                                            for i in range(5)])
        ids = [f"s{i}" for i in range(8)]
        kept = semantic_dedup(ids, x, k_clusters=2, epsilon=0.05, seed=3)
        assert "s0" in kept and "s1" not in kept and "s2" not in kept

    def test_idempotent(self):
        gen = np.random.default_rng(8)
        x = unit_rows(60, 16, gen)
        x[10] = x[4]
        x[31] = x[11]
        ids = [f"s{i:02d}" for i in range(60)]
        kept = semantic_dedup(ids, x, k_clusters=5, epsilon=0.05, seed=4)
        row = {sid: i for i, sid in enumerate(ids)}
        x2 = np.vstack([x[row[sid]] for sid in kept])
        kept2 = semantic_dedup(kept, x2, k_clusters=5, epsilon=0.05, seed=4)
        assert kept2 == kept

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            semantic_dedup(["a"], unit_rows(1, 4), 2, 0.05, 0)


class TestTraditionalPipeline:
    def annotations(self, texts, pools=1):
        out = []
        for i, t in enumerate(texts):
            out.append(PairedSample(
                sample_id=f"s{i:03d}", pool_id=f"pool{i % pools}",
                raw_modality="text",
                raw_components=[Component(f"raw {i}.")],
                annotation_components=[Component(t)]))
        return Corpus.from_pairs(out)

    def test_all_filtered_yields_empty_with_warning(self):
        samples = self.annotations(["!!!", "@@@", "###"])
        ann = unit_rows(3, 4)
        blend, reports = traditional_pipeline(samples, ann, unit_rows(1, 4)[0], 2)
        assert blend.sample_ids == []
        assert blend.warning is not None
        assert all(not r.passed for r in reports)

    def test_permissive_equals_plain_topn(self):
        samples = self.annotations([f"clean text number {i}." for i in range(12)])
        ann = unit_rows(12, 6)
        query = unit_rows(1, 6)[0]
        blend, _ = traditional_pipeline(samples, ann, query, 5, seed=7)
        sims = ann @ query
        order = sorted(range(12), key=lambda i: (-sims[i], f"s{i:03d}"))
        assert blend.sample_ids == [f"s{i:03d}" for i in order[:5]]

    def test_output_subset_of_filter_survivors(self):
        texts = [f"good annotation {i}." for i in range(10)] + ["!!!", "???"]
        samples = self.annotations(texts)
        ann = unit_rows(12, 5)
        blend, reports = traditional_pipeline(samples, ann, unit_rows(1, 5)[0], 12)
        survivors = {r.sample_id for r in reports if r.passed}
        assert set(blend.sample_ids) <= survivors
        assert blend.warning is not None  # fewer survivors than n

    def test_deterministic(self):
        samples = self.annotations([f"clean text {i}." for i in range(30)], pools=3)
        ann = unit_rows(30, 8)
        query = unit_rows(1, 8)[0]
        b1, _ = traditional_pipeline(samples, ann, query, 10, seed=5)
        b2, _ = traditional_pipeline(samples, ann, query, 10, seed=5)
        assert b1.sample_ids == b2.sample_ids


class TestBlendStats:
    def test_single_pool_fraction(self):
        samples = make_samples(6)
        blend = Blend("uniform", samples.sample_ids[:4], [None] * 4, 4,
                      per_pool={"pool0": 4}, per_modality={"text": 4})
        stats, coords = blend_stats(blend, samples)
        assert stats["per_pool"]["pool0"]["fraction"] == 1.0
        assert coords is None

    def test_stratified_fractions(self):
        samples = make_samples(100, pools=5)
        blend = sample_stratified(samples, 50, seed=0)
        stats, _ = blend_stats(blend, samples)
        for p in stats["per_pool"].values():
            assert p["fraction"] == pytest.approx(0.2)

    def test_unknown_id(self):
        blend = Blend("uniform", ["ghost"], [None], 1)
        with pytest.raises(UnknownId):
            blend_stats(blend, Corpus.from_pairs([]))

    def test_pca_recovers_planar_geometry(self):
        gen = np.random.default_rng(14)
        coords2d = gen.normal(size=(40, 2)) * np.array([3.0, 1.0])
        basis, _ = np.linalg.qr(gen.normal(size=(9, 2)))
        embedded = coords2d @ basis.T + 5.0
        got = pca_2d(embedded)
        # distances within the plane are preserved up to rotation/reflection
        ref = coords2d - coords2d.mean(axis=0)
        d_ref = np.linalg.norm(ref[:, None, :] - ref[None, :, :], axis=2)
        d_got = np.linalg.norm(got[:, None, :] - got[None, :, :], axis=2)
        assert np.allclose(d_ref, d_got, atol=1e-8)

    def test_pca_deterministic_sign(self):
        x = rng.normal(size=(20, 6))
        assert np.array_equal(pca_2d(x), pca_2d(x))
