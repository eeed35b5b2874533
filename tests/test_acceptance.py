"""Acceptance suite: one test per criterion, each printing a checklist line.

Run with:  pytest tests/test_acceptance.py -v -s
"""
import json
import math
import time

import numpy as np
import pytest

from emblend.config import config_from_dict
from emblend.dataio import Corpus
from emblend.curation import (FilterConfig, heuristic_filter, sample_stratified,
                              sample_uniform, semantic_dedup)
from emblend.engine import Engine
from emblend.experts import SyntheticExpert
from emblend.projection import (LossWeights, TrainConfig, backward,
                                batch_losses, forward, init_projection,
                                loss_cluster, loss_task, train)
from emblend.retrieval import (RetrievalIndex, clustering_diagnostic,
                               modality_gap, recall_at_k, top_k)
from emblend.sns import (Component, PairedSample, SnsConfig, apply_sns,
                         calibrate_taus, info_density, side_vector)
from emblend.synth import SynthSpec, expert_configs, generate_corpus

RHO_GRID = (0.0, 0.8, 0.95, 1.0, 1.02, 1.05, 1.1)


def report(num, desc, ok, detail=""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def engine_for(spec):
    doc = {
        "experts": [
            {"expert_id": c.expert_id, "kind": "synthetic", "dim": c.dim,
             "semantic_dim": c.semantic_dim, "gap_magnitude": c.gap_magnitude,
             "noise_sigma": c.noise_sigma, "seed": c.seed}
            for c in expert_configs(spec)
        ],
        "gating_expert": "e2e",
        "anchor_expert": "text",
    }
    return Engine(config_from_dict(doc))


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------

def test_c1_gradient_correctness():
    t0 = time.time()
    gen = np.random.default_rng(1001)
    worst = 0.0
    step = 1e-5
    for instance in range(20):
        d = int(gen.integers(4, 17))
        k = int(gen.integers(2, 4))
        batch = int(gen.integers(6, 17))
        depth = int(gen.integers(1, 4))
        weights = LossWeights(
            lambda_task=float(gen.uniform(0.1, 1.0)),
            lambda_cluster=float(gen.uniform(0.01, 0.5)),
            lambda_scale=float(gen.uniform(0.01, 0.5)),
            temperature=float(gen.uniform(0.1, 0.5)))
        model = init_projection(k * d, d, depth, seed=instance)
        x = gen.normal(size=(batch, k * d))
        anchors = gen.normal(size=(batch, d))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
        mods = [("text", "image", "audio", "video")[i % 4] for i in range(batch)]
        grad_w, grad_b, _ = backward(model, x, anchors, mods, weights)

        def loss_now():
            fused, _ = forward(model, x)
            total, _ = batch_losses(fused, anchors, mods, weights)
            return total

        for params, grads in ((model.weights, grad_w), (model.biases, grad_b)):
            for p, g in zip(params, grads):
                flat_p, flat_g = p.ravel(), g.ravel()
                for idx in range(flat_p.size):
                    orig = flat_p[idx]
                    flat_p[idx] = orig + step
                    up = loss_now()
                    flat_p[idx] = orig - step
                    down = loss_now()
                    flat_p[idx] = orig
                    fd = (up - down) / (2 * step)
                    rel = abs(flat_g[idx] - fd) / max(1e-6, abs(flat_g[idx]), abs(fd))
                    worst = max(worst, rel)
    elapsed = time.time() - t0
    report(1, "analytic gradients match central finite differences",
           worst <= 1e-4 and elapsed < 30.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s over 20 instances")


# ---------------------------------------------------------------------------
# criterion 2: loss oracles
# ---------------------------------------------------------------------------

def lse_infonce_oracle(fused, anchors, tau):
    """Full similarity matrix with explicit log-sum-exp."""
    n = len(fused)
    sims = [[float(np.dot(fused[i], anchors[j])) / tau for j in range(n)]
            for i in range(n)]
    total = 0.0
    for i in range(n):
        m = max(sims[i])
        lse = m + math.log(sum(math.exp(s - m) for s in sims[i]))
        total += lse - sims[i][i]
    return total / n


def test_c2_loss_oracle_equivalence():
    gen = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 16))
        d = int(gen.integers(2, 10))
        tau = float(gen.uniform(0.05, 1.0))
        fused = gen.normal(size=(n, d))
        fused /= np.linalg.norm(fused, axis=1, keepdims=True)
        anchors = gen.normal(size=(n, d))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
        got = loss_task(fused, anchors, temperature=tau)
        want = lse_infonce_oracle(fused, anchors, tau)
        worst = max(worst, abs(got - want))
    ok_task = worst <= 1e-10

    a = np.tile([1.0, 0.0], (4, 1))
    b = np.tile([-1.0, 0.0], (4, 1))
    ok_cluster = abs(loss_cluster({"image": a, "text": b}) - 2.0) <= 1e-12

    fused = gen.normal(size=(8, 4))
    fused /= np.linalg.norm(fused, axis=1, keepdims=True)
    anchors = gen.normal(size=(8, 4))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    mods = ["image"] * 4 + ["audio"] * 4
    w_mixed = LossWeights(0.9, 0.05, 0.05, temperature=0.3)
    mixed, _ = batch_losses(fused, anchors, mods, w_mixed)
    parts = []
    for lam in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        value, _ = batch_losses(fused, anchors, mods,
                                LossWeights(*lam, temperature=0.3))
        parts.append(value)
    recombined = 0.9 * parts[0] + 0.05 * parts[1] + 0.05 * parts[2]
    ok_total = abs(mixed - recombined) <= 1e-12

    report(2, "loss_task matches brute-force InfoNCE; cluster/total identities",
           ok_task and ok_cluster and ok_total,
           f"task max dev {worst:.2e}")


# ---------------------------------------------------------------------------
# criteria 3 + 4: gap collapse and retrieval preservation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def projection_study():
    t0 = time.time()
    spec = SynthSpec(seed=0, pools=4, samples_per_pool=500, clusters=8,
                     dim=32, semantic_dim=16, gap_magnitude=1.8,
                     noise_sigma=0.02, text_gap=0.08, text_noise=0.14,
                     raw_distractors=0, annotation_extras=0)
    samples = Corpus.from_pairs(generate_corpus(spec))
    engine = engine_for(spec)
    mods = [s.raw_modality for s in samples]
    ids = [s.sample_id for s in samples]
    inputs = engine.fused_inputs(samples)
    anchors = engine.anchor_matrix(samples)

    experts = {}
    for eid in engine.expert_order:
        raw, ann = engine.expert_space(samples, eid)
        gap = modality_gap(raw, ann, mods)
        cloud = np.concatenate([raw, ann], axis=0)
        diag = clustering_diagnostic(cloud, mods + ["text"] * len(samples))
        r2a = recall_at_k(raw, ids, RetrievalIndex(ids, ann), [1])[1]
        a2r = recall_at_k(ann, ids, RetrievalIndex(ids, raw), [1])[1]
        experts[eid] = {"gap": gap.average, "r1": (r2a + a2r) / 2,
                        "clustered": diag["clustered"]}

    weights = LossWeights(0.9, 0.05, 0.05, temperature=0.07,
                          include_fused_negatives=True)
    runs = []
    for seed in (11, 12, 13):
        cfg = TrainConfig(batch_size=256, step_count=3000, learning_rate=3e-3,
                          optimizer="adam", seed=seed)
        model = init_projection(inputs.shape[1], engine.dim, 2, seed=seed)
        model, _ = train(inputs, anchors, mods, model, cfg, weights)
        fused, _ = forward(model, inputs)
        gap = modality_gap(fused, anchors, mods)
        r2a = recall_at_k(fused, ids, RetrievalIndex(ids, anchors), [1])[1]
        a2r = recall_at_k(anchors, ids, RetrievalIndex(ids, fused), [1])[1]
        runs.append({"seed": seed, "gap": gap.average, "r1": (r2a + a2r) / 2})
    return {"experts": experts, "runs": runs, "elapsed": time.time() - t0}


def test_c3_modality_gap_collapse(projection_study):
    experts = projection_study["experts"]
    runs = projection_study["runs"]
    # the gapped media experts must exhibit modality clustering pre-projection
    gapped = {eid: e for eid, e in experts.items() if eid in ("e2e", "fusion")}
    clustered_ok = all(e["clustered"] for e in gapped.values())
    # bar: average gap of the best single expert (highest standalone R@1)
    best_eid = max(experts, key=lambda e: experts[e]["r1"])
    bar = experts[best_eid]["gap"]
    ratios = [r["gap"] / bar for r in runs]
    ok = clustered_ok and all(r <= 0.15 for r in ratios)
    ok = ok and projection_study["elapsed"] < 300.0
    report(3, "projection collapses the average modality gap to <=15% of the "
              "best expert's",
           ok, f"best expert {best_eid} gap {bar:.3f}, post ratios "
               f"{[round(r, 3) for r in ratios]}, "
               f"{projection_study['elapsed']:.0f}s")


def test_c4_retrieval_preservation(projection_study):
    experts = projection_study["experts"]
    runs = projection_study["runs"]
    best_single = max(e["r1"] for e in experts.values())
    ok = all(r["r1"] >= 0.90 and r["r1"] >= best_single - 0.02 for r in runs)
    report(4, "post-training mean R@1 >= 0.90 and >= best expert - 0.02", ok,
           f"fused R@1 {[round(r['r1'], 3) for r in runs]}, "
           f"best single-expert {best_single:.3f}")


# ---------------------------------------------------------------------------
# criterion 5: SNS gate safety, monotonicity, density
# ---------------------------------------------------------------------------

def test_c5_sns_gate_safety_and_monotonicity():
    t0 = time.time()
    spec = SynthSpec(seed=3, pools=4, samples_per_pool=125, clusters=6,
                     dim=32, semantic_dim=16, gap_magnitude=1.4,
                     noise_sigma=0.02, raw_distractors=2, annotation_extras=1)
    samples = generate_corpus(spec)
    engine = engine_for(spec)
    tau_alpha, tau_beta = calibrate_taus(Corpus.from_pairs(samples[:200]), engine.gating)
    describe = engine.describe_fn()
    verifier = SyntheticExpert(expert_configs(spec)[0])  # fresh, memo-free

    def pair_sim(pair):
        from emblend.experts import EmbedItem
        from emblend.sns import component_item_id
        raw = [verifier.embed(EmbedItem(
            component_item_id(pair.sample_id, "r", c.content),
            pair.raw_modality, c.content)).values for c in pair.raw_components]
        ann = [verifier.embed(EmbedItem(
            component_item_id(pair.sample_id, "a", c.content),
            "text", c.content)).values for c in pair.annotation_components]
        return float(np.dot(side_vector(raw), side_vector(ann)))

    rates = []
    safety_ok = True
    density_ok = True
    for rho in RHO_GRID:
        cfg = SnsConfig(direction="bidirectional", tau_alpha=tau_alpha,
                        tau_beta=tau_beta, rho=rho, reinject=True)
        accepted = 0
        for pair in samples:
            out, rec = apply_sns(pair, cfg, engine.gating, describe)
            identical = (
                [c.content for c in out.raw_components]
                == [c.content for c in pair.raw_components]
                and [c.content for c in out.annotation_components]
                == [c.content for c in pair.annotation_components])
            if not identical:
                if pair_sim(out) < rho * rec.sim_original - 1e-9:
                    safety_ok = False
            if rec.accepted:
                accepted += 1
                if rho >= 1.0:
                    before = info_density(rec.sim_original, *rec.size_before)
                    after = info_density(rec.sim_variant, *rec.size_after)
                    if after < before - 1e-12:
                        density_ok = False
        rates.append(accepted / len(samples))
    monotone = all(a >= b for a, b in zip(rates, rates[1:]))
    elapsed = time.time() - t0
    ok = safety_ok and monotone and density_ok and elapsed < 60.0
    report(5, "SNS gate safety, acceptance monotone in rho, density gain",
           ok, f"rates {[round(r, 3) for r in rates]}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: retrieval oracle
# ---------------------------------------------------------------------------

def test_c6_retrieval_oracle():
    gen = np.random.default_rng(6006)
    for trial in range(50):
        n = int(gen.integers(2, 1001))
        d = int(gen.integers(2, 12))
        ids = [f"s{gen.integers(10**9):09d}-{i}" for i in range(n)]
        mat = gen.normal(size=(n, d))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        index = RetrievalIndex(ids, mat)
        query = gen.normal(size=d)
        query /= np.linalg.norm(query)
        k = int(gen.integers(1, n + 1))
        sims = mat @ query
        oracle = sorted(range(n), key=lambda i: (-sims[i], ids[i]))[:k]
        assert top_k(index, query, k) == [(ids[i], float(sims[i])) for i in oracle]

        partners = [ids[int(gen.integers(n))] for _ in range(min(n, 20))]
        queries = gen.normal(size=(len(partners), d))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        ks = sorted(set(int(gen.integers(1, n + 1)) for _ in range(4)))
        got = recall_at_k(queries, partners, index, ks)
        sims_q = queries @ mat.T
        pos = {sid: i for i, sid in enumerate(ids)}
        for k_val in ks:
            hits = 0
            for qi, pid in enumerate(partners):
                order = sorted(range(n), key=lambda i: (-sims_q[qi, i], ids[i]))
                rank = order.index(pos[pid]) + 1
                hits += rank <= k_val
            assert got[k_val] == hits / len(partners)
        values = [got[k_val] for k_val in ks]
        assert all(a <= b for a, b in zip(values, values[1:]))
    report(6, "top_k and recall_at_k agree exactly with the full-sort oracle",
           True, "50 random fixtures, n up to 1000")


# ---------------------------------------------------------------------------
# criterion 7: curation baselines
# ---------------------------------------------------------------------------

def test_c7_curation_baselines():
    ratio_report = heuristic_filter("abc!!", FilterConfig())
    ok_a = (ratio_report.measured["non_alnum_ratio"] == 0.4
            and "non_alnum_ratio" not in ratio_report.failed_rules)
    lines_report = heuristic_filter("\n".join(["same"] * 10), FilterConfig())
    ok_a = ok_a and lines_report.measured["repeated_line_fraction"] == 0.9 \
        and not lines_report.passed
    ok_a = ok_a and heuristic_filter("", FilterConfig()).failed_rules == ["empty_text"]

    gen = np.random.default_rng(7007)
    x = gen.normal(size=(80, 16))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x[11] = x[3]
    x[42] = x[17]
    ids = [f"s{i:02d}" for i in range(80)]
    kept = semantic_dedup(ids, x, k_clusters=8, epsilon=0.05, seed=7)
    ok_b = ("s03" in kept and "s11" not in kept
            and "s17" in kept and "s42" not in kept)
    rows = {sid: i for i, sid in enumerate(ids)}
    kept2 = semantic_dedup(kept, np.vstack([x[rows[s]] for s in kept]),
                           k_clusters=8, epsilon=0.05, seed=7)
    ok_b = ok_b and kept2 == kept

    samples = Corpus.from_pairs(PairedSample(
        sample_id=f"s{i:05d}", pool_id=f"pool{i % 5}", raw_modality="text",
        raw_components=[Component(f"r{i}.")],
        annotation_components=[Component(f"a{i}.")])
        for i in range(10000))
    blend = sample_stratified(samples, 5000, seed=9)
    ok_c = len(blend.per_pool) == 5 and all(v == 1000 for v in blend.per_pool.values())

    small = Corpus.from_pairs(samples.pairs[:10])
    counts = {s.sample_id: 0 for s in small}
    for seed in range(1000):
        for sid in sample_uniform(small, 5, seed=seed).sample_ids:
            counts[sid] += 1
    ok_d = all(abs(c / 1000 - 0.5) <= 0.05 for c in counts.values())

    report(7, "filters exact; dedup idempotent and duplicate-exact; "
              "stratified 1000/pool; uniform inclusion 0.5 +/- 0.05",
           ok_a and ok_b and ok_c and ok_d,
           f"a={ok_a} b={ok_b} c={ok_c} d={ok_d}")


# ---------------------------------------------------------------------------
# criteria 8 + 9: CLI determinism and reproduction harness
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    from emblend.cli import run
    root = tmp_path_factory.mktemp("acceptance-cli")
    synth_dir = root / "synth"
    assert run(["synth", "--out", str(synth_dir), "--pools", "4",
                "--samples-per-pool", "25", "--clusters", "4", "--seed", "12",
                "--distractors", "1", "--annotation-extras", "1"]) == 0
    return {"root": root, "corpus": str(synth_dir / "corpus.jsonl"),
            "config": str(synth_dir / "config.yaml")}


def test_c8_determinism(cli_workspace):
    from emblend.cli import run
    root = cli_workspace["root"]

    def rerun_identical(argv, out):
        assert run(argv + ["--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert run(argv + ["--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        return first == second

    base = ["--config", cli_workspace["config"], "--corpus", cli_workspace["corpus"]]
    ok = rerun_identical(["train"] + base + ["--steps", "60", "--seed", "4"],
                         root / "train")
    model = str(root / "train" / "model.json")
    for strategy in ("uniform", "stratified", "traditional", "eee_projection"):
        argv = ["curate"] + base + ["--strategy", strategy, "--n", "16",
                                    "--seed", "6"]
        if strategy == "eee_projection":
            argv += ["--model", model]
        ok = ok and rerun_identical(argv, root / f"cur-{strategy}")
    ok = ok and rerun_identical(["sns"] + base + ["--rho", "1.0"], root / "sns")
    report(8, "train and every sampling/curation subcommand rerun "
              "byte-identically", ok)


def test_c9_reproduction_harness(cli_workspace):
    from emblend.cli import run
    root = cli_workspace["root"]
    base = ["--config", cli_workspace["config"], "--corpus", cli_workspace["corpus"]]

    rho_out = root / "ablate-rho"
    assert run(["ablate"] + base + ["--grid", "rho", "--out", str(rho_out)]) == 0
    rho_doc = json.loads((rho_out / "ablate_rho.json").read_text())
    ok = rho_doc["rho_values"] == list(RHO_GRID)
    experts = {c["expert"] for c in rho_doc["cells"]}
    directions = {c["direction"] for c in rho_doc["cells"]}
    ok = ok and experts == {"e2e", "fusion", "text"} and directions == {"R2A", "A2R"}
    ok = ok and len(rho_doc["cells"]) == len(RHO_GRID) * 3 * 2
    ok = ok and "desk-scale" in rho_doc["note"]
    ok = ok and "rho=" in (rho_out / "ablate_rho.txt").read_text()

    ld_out = root / "ablate-ld"
    assert run(["ablate"] + base + ["--grid", "lambda-depth", "--out",
                str(ld_out), "--steps", "25"]) == 0
    ld_doc = json.loads((ld_out / "ablate_lambda_depth.json").read_text())
    ok = ok and len(ld_doc["cells"]) == 27
    ok = ok and {"lambda_task", "lambda_scale", "lambda_cluster", "layers",
                 "R1", "R3", "R5"} <= set(ld_doc["cells"][0])
    ok = ok and sorted({c["layers"] for c in ld_doc["cells"]}) == [1, 2, 3]
    ok = ok and ld_doc["metric"] == "mean recall (avg of A2R and R2A)"
    ok = ok and "desk-scale" in ld_doc["note"]
    table = (ld_out / "ablate_lambda_depth.txt").read_text()
    ok = ok and "R@1" in table and "layers" in table
    report(9, "ablate regenerates both grid table shapes with desk-scale note",
           ok, f"rho cells {len(rho_doc['cells'])}, grid cells {len(ld_doc['cells'])}")
