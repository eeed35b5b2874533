import json
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from emblend import projection
from emblend.errors import BatchTooSmall, ConfigError, DimMismatch, NonFiniteLoss
from emblend.geometry import centroid
from emblend.projection import (LossWeights, TrainConfig,
                                backward, batch_losses, forward,
                                init_projection, load_model, loss_cluster,
                                loss_task, save_model,
                                train)
from reference import group_indices, loss_scale, ref_train, spread

rng = np.random.default_rng(7)


def unit_rows(n, d, gen=None):
    gen = gen or rng
    x = gen.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def brute_force_infonce(fused, anchors, tau):
    """Independent oracle: explicit similarity matrix, explicit log-sum-exp."""
    n = len(fused)
    total = 0.0
    for i in range(n):
        pos = math.exp(float(np.dot(fused[i], anchors[i])) / tau)
        denom = sum(math.exp(float(np.dot(fused[i], anchors[j])) / tau)
                    for j in range(n))
        total += -math.log(pos / denom)
    return total / n


class TestProject:
    """``forward`` of one input vector: its fused output is row 0."""

    def test_shape_contract(self):
        model = init_projection(24, 8, 2, seed=1)
        out = forward(model, rng.normal(size=24))[0][0]
        assert out.shape == (8,)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_deterministic(self):
        model = init_projection(16, 4, 3, seed=2)
        x = rng.normal(size=16)
        assert np.array_equal(forward(model, x)[0][0], forward(model, x)[0][0])

    def test_single_layer_is_normalized_linear_map(self):
        model = init_projection(8, 4, 1, seed=3)
        x = rng.normal(size=8)
        raw = model.weights[0] @ x + model.biases[0]
        assert np.allclose(forward(model, x)[0][0], raw / np.linalg.norm(raw))

    def test_dim_mismatch(self):
        model = init_projection(8, 4, 1, seed=3)
        with pytest.raises(DimMismatch):
            forward(model, np.ones(9))


class TestLossTask:
    def test_closed_form_two_pairs(self):
        fused = np.array([[1.0, 0.0], [0.0, 1.0]])
        anchors = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = -math.log(math.e / (math.e + 1.0))
        assert loss_task(fused, anchors, temperature=1.0) == pytest.approx(
            expected, abs=1e-12)
        assert expected == pytest.approx(0.31326168751822286, abs=1e-10)

    def test_separated_limit(self):
        fused = np.array([[1.0, 0.0], [-1.0, 0.0]])
        anchors = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert loss_task(fused, anchors, temperature=0.02) < 1e-10

    def test_matches_brute_force_oracle(self):
        gen = np.random.default_rng(123)
        for _ in range(100):
            n = int(gen.integers(2, 12))
            d = int(gen.integers(2, 9))
            tau = float(gen.uniform(0.05, 1.0))
            fused = unit_rows(n, d, gen)
            anchors = unit_rows(n, d, gen)
            assert loss_task(fused, anchors, temperature=tau) == pytest.approx(
                brute_force_infonce(fused, anchors, tau), abs=1e-10)

    def test_batch_too_small(self):
        with pytest.raises(BatchTooSmall):
            loss_task(unit_rows(1, 4), unit_rows(1, 4))


class TestLossCluster:
    def test_single_modality_is_zero(self):
        pts = unit_rows(6, 3)
        assert loss_cluster({"text": pts}) == pytest.approx(0.0, abs=1e-15)

    def test_two_groups_hand_computed(self):
        a = np.tile([1.0, 0.0], (4, 1))
        b = np.tile([-1.0, 0.0], (4, 1))
        assert loss_cluster({"image": a, "text": b}) == pytest.approx(2.0, abs=1e-12)

    def test_translation_invariant(self):
        groups = {"a": rng.normal(size=(5, 3)), "b": rng.normal(size=(7, 3))}
        shifted = {k: v + np.array([3.0, -1.0, 2.0]) for k, v in groups.items()}
        assert loss_cluster(groups) == pytest.approx(loss_cluster(shifted), abs=1e-9)


class TestLossScale:
    def test_two_collapsed_groups(self):
        a = np.tile([1.0, 0.0], (3, 1))
        b = np.tile([-1.0, 0.0], (3, 1))
        assert loss_scale({"image": a, "text": b}) == pytest.approx(2.0, abs=1e-12)

    def test_all_identical_is_zero(self):
        pts = np.tile([0.5, 0.5], (4, 1))
        assert loss_scale({"a": pts[:2], "b": pts[2:]}) == pytest.approx(0.0)

    def test_single_group_is_zero(self):
        assert loss_scale({"a": unit_rows(9, 4)}) == pytest.approx(0.0, abs=1e-12)

    def test_sum_of_spread_differences(self):
        groups = {"a": unit_rows(5, 4), "b": unit_rows(7, 4), "c": unit_rows(3, 4)}
        points = np.concatenate(list(groups.values()))
        overall = spread(points, centroid(points))
        want = sum(abs(spread(g, centroid(g)) - overall) for g in groups.values())
        assert loss_scale(groups) == pytest.approx(want, abs=1e-12)


class TestLossTotal:
    def test_task_only_projection(self):
        fused, anchors = unit_rows(6, 4), unit_rows(6, 4)
        mods = ["image"] * 6
        w = LossWeights(1.0, 0.0, 0.0, temperature=0.2)
        total, breakdown = batch_losses(fused, anchors, mods, w)
        assert total == pytest.approx(loss_task(fused, anchors, 0.2), abs=1e-12)
        assert breakdown["L_cluster"] == 0.0

    def test_recombination_identity(self):
        fused, anchors = unit_rows(8, 4), unit_rows(8, 4)
        mods = (["image"] * 3) + (["audio"] * 3) + (["text"] * 2)
        t1, _ = batch_losses(fused, anchors, mods,
                             LossWeights(0.9, 0.0, 0.1, temperature=0.3))
        task, _ = batch_losses(fused, anchors, mods,
                               LossWeights(1.0, 0.0, 0.0, temperature=0.3))
        w_scale_only = LossWeights(0.0, 0.0, 1.0, temperature=0.3)
        scale, _ = batch_losses(fused, anchors, mods, w_scale_only)
        assert t1 == pytest.approx(0.9 * task + 0.1 * scale, abs=1e-12)

    def test_linearity_in_weights(self):
        fused, anchors = unit_rows(10, 5), unit_rows(10, 5)
        mods = (["image"] * 5) + (["video"] * 5)
        w1 = LossWeights(0.5, 0.2, 0.1, temperature=0.25)
        w2 = LossWeights(0.4, 0.3, 0.6, temperature=0.25)
        w12 = LossWeights(0.9, 0.5, 0.7, temperature=0.25)
        t1, _ = batch_losses(fused, anchors, mods, w1)
        t2, _ = batch_losses(fused, anchors, mods, w2)
        t12, _ = batch_losses(fused, anchors, mods, w12)
        assert t12 == pytest.approx(t1 + t2, abs=1e-10)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(0.0, 0.0, 0.0)


def finite_difference_check(model, x, anchors, mods, weights, step=1e-5):
    grad_w, grad_b, _ = backward(model, x, anchors, mods, weights)

    def loss_now():
        fused, _ = forward(model, x)
        total, _ = batch_losses(fused, anchors, mods, weights)
        return total

    worst = 0.0
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
    return worst


class TestBackward:
    def test_gradcheck_small_model(self):
        gen = np.random.default_rng(5)
        model = init_projection(8, 4, 2, seed=5)
        x = gen.normal(size=(6, 8))
        anchors = unit_rows(6, 4, gen)
        mods = ["image", "audio", "text", "video", "image", "audio"]
        w = LossWeights(0.8, 0.1, 0.1, temperature=0.3)
        assert finite_difference_check(model, x, anchors, mods, w) <= 1e-4

    def test_gradcheck_variants(self):
        gen = np.random.default_rng(6)
        x = gen.normal(size=(5, 8))
        anchors = unit_rows(5, 4, gen)
        mods = ["image"] * 5
        model = init_projection(8, 4, 2, seed=6)
        w = LossWeights(1.0, 0.0, 0.0, temperature=0.2, include_fused_negatives=True)
        assert finite_difference_check(model, x, anchors, mods, w) <= 1e-4

    def test_matches_standalone_infonce_gradient(self):
        gen = np.random.default_rng(8)
        model = init_projection(6, 3, 1, seed=8)
        x = gen.normal(size=(4, 6))
        anchors = unit_rows(4, 3, gen)
        mods = ["image"] * 4
        w_full = LossWeights(1.0, 0.0, 0.0, temperature=0.4)
        gw1, gb1, _ = backward(model, x, anchors, mods, w_full)
        w_mixed = LossWeights(1.0, 0.0, 0.0, temperature=0.4)
        gw2, gb2, _ = backward(model, x, anchors, mods, w_mixed)
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_gradcheck_gap_collapse_mix(self, depth):
        # fused negatives with L_cluster and L_scale over mixed modalities, as
        # configs/gap-collapse.yaml trains
        gen = np.random.default_rng(10 + depth)
        model = init_projection(8, 4, depth, seed=depth)
        x = gen.normal(size=(7, 8))
        anchors = unit_rows(7, 4, gen)
        mods = ["image", "audio", "text", "image", "video", "audio", "image"]
        w = LossWeights(0.9, 0.05, 0.05, temperature=0.2, include_fused_negatives=True)
        assert finite_difference_check(model, x, anchors, mods, w) <= 1e-4

    def test_near_optimum_gradient_small(self):
        # fused == anchor, negatives orthogonal, tiny temperature
        model = init_projection(4, 4, 1, seed=9)
        model.weights[0] = np.eye(4)
        model.biases[0] = np.zeros(4)
        x = np.eye(4)
        anchors = np.eye(4)
        mods = ["image", "audio", "text", "video"]
        w = LossWeights(1.0, 0.0, 0.0, temperature=0.02)
        gw, gb, _ = backward(model, x, anchors, mods, w)
        norm = np.sqrt(sum(float((g ** 2).sum()) for g in gw + gb))
        assert norm < 1e-3


def poison(ws):
    """Fill every array of a workspace with values no step may read back."""
    for value in vars(ws).values():
        for arr in value if isinstance(value, list) else [value]:
            if isinstance(arr, np.ndarray):
                arr.fill({"b": True, "i": -1}.get(arr.dtype.kind, np.nan))


def adam_step(model, x, anchors, mods, weights, workspace=None):
    """One backward and Adam update: (gradients, loss breakdown, parameters)."""
    model = model.copy()
    grad_w, grad_b, breakdown = backward(model, x, anchors, mods, weights, workspace)
    grads = [g.copy() for g in grad_w + grad_b]
    params = model.weights + model.biases
    projection._Optimizer(1e-2, [p.shape for p in params]).update(params, grad_w + grad_b)
    return grads, breakdown, params


class TestWorkspace:
    @pytest.mark.parametrize("variant", ["annotation_only", "fused_negatives"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_reused_workspace_leaks_no_state(self, depth, variant):
        gen = np.random.default_rng(60 + depth)
        n, d_in, d_out = 12, 8, 4
        model = init_projection(d_in, d_out, depth, hidden_dim=6, seed=depth)
        batches = [(gen.normal(size=(n, d_in)), unit_rows(n, d_out, gen),
                    list(gen.choice(["image", "audio", "text"], size=n))) for _ in range(2)]
        flags = {"fused_negatives": {"include_fused_negatives": True}}.get(variant, {})
        for mix in ((0.9, 0.05, 0.05), (0.0, 0.5, 0.5)):
            weights = LossWeights(*mix, temperature=0.2, **flags)
            want = adam_step(model, *batches[0], weights)
            ws = projection.Workspace(n, d_out, model, weights)
            poison(ws)
            after_poison = adam_step(model, *batches[0], weights, ws)
            adam_step(model, *batches[1], weights, ws)
            after_other_batch = adam_step(model, *batches[0], weights, ws)
            for got in (after_poison, after_other_batch):
                assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
                assert got[1] == want[1]
                assert all(np.array_equal(a, b) for a, b in zip(got[2], want[2]))

    def test_public_calls_return_no_shared_memory(self):
        gen = np.random.default_rng(70)
        model = init_projection(8, 4, 2, seed=70)
        x, anchors = gen.normal(size=(6, 8)), unit_rows(6, 4, gen)
        w = LossWeights(0.9, 0.05, 0.05, temperature=0.2, include_fused_negatives=True)
        first = backward(model, x, anchors, ["image"] * 6, w)
        second = backward(model, x, anchors, ["image"] * 6, w)
        for a in first[0] + first[1]:
            assert not any(np.shares_memory(a, b) for b in second[0] + second[1])

    def test_workspace_of_another_batch_size_is_rejected(self):
        gen = np.random.default_rng(71)
        model = init_projection(8, 4, 2, seed=71)
        w = LossWeights(0.9, 0.05, 0.05, temperature=0.2)
        ws = projection.Workspace(6, 4, model, w)
        with pytest.raises(DimMismatch, match="workspace is sized for"):
            backward(model, gen.normal(size=(1, 8)), unit_rows(1, 4, gen), ["image"], w, ws)

    def test_step_takes_no_fresh_pages_with_a_fixed_mmap_threshold(self):
        # glibc maps every block of 128 KiB or more afresh when its mmap
        # threshold is fixed there, and each first touch of a page is a minor
        # fault; a step that allocated its logits (1 MiB) would fault over
        # a thousand times. One 1-step run cancels the run's set-up. BLAS
        # runs one thread: a threaded OpenBLAS product faults twice a call
        # by itself, whatever the step allocates.
        child = textwrap.dedent("""
            import resource
            import numpy as np
            from emblend.projection import LossWeights, TrainConfig, init_projection, train
            gen = np.random.default_rng(0)
            x = gen.normal(size=(1024, 96))
            anchors = gen.normal(size=(1024, 32))
            anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
            mods = list(gen.choice(["image", "audio", "video", "text"], size=1024))
            weights = LossWeights(0.9, 0.05, 0.05, include_fused_negatives=True)
            model = init_projection(96, 32, 2, hidden_dim=96, seed=0)

            def faults(steps):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                cfg = TrainConfig(batch_size=256, step_count=steps, seed=1)
                train(x, anchors, mods, model, cfg, weights)
                return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

            faults(1)  # warm-up: imports, BLAS buffers, first-use set-up
            print((faults(201) - faults(1)) / 200)
            """)
        src = os.path.dirname(os.path.dirname(projection.__file__))
        env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        assert float(out.stdout) <= 5.0, out.stdout


class TestTrain:
    def make_data(self, n=80, d=6, k=2, gen=None):
        gen = gen or np.random.default_rng(11)
        anchors = unit_rows(n, d, gen)
        # inputs: noisy copies of the anchor, concatenated per expert
        blocks = [anchors + 0.05 * gen.normal(size=(n, d)) for _ in range(k)]
        x = np.concatenate(blocks, axis=1)
        mods = [["image", "audio", "video", "text"][i % 4] for i in range(n)]
        return x, anchors, mods

    def test_same_seed_bit_identical(self):
        x, anchors, mods = self.make_data()
        cfg = TrainConfig(batch_size=16, step_count=40, learning_rate=1e-2,
                          optimizer="adam", seed=3)
        w = LossWeights(0.9, 0.05, 0.05, temperature=0.1)
        m1 = init_projection(x.shape[1], anchors.shape[1], 2, seed=3)
        m2 = init_projection(x.shape[1], anchors.shape[1], 2, seed=3)
        out1, log1 = train(x, anchors, mods, m1, cfg, w)
        out2, log2 = train(x, anchors, mods, m2, cfg, w)
        for a, b in zip(out1.weights + out1.biases, out2.weights + out2.biases):
            assert np.array_equal(a, b)
        assert log1 == log2

    def test_anchors_never_modified(self):
        x, anchors, mods = self.make_data()
        before = anchors.copy()
        cfg = TrainConfig(batch_size=16, step_count=30, learning_rate=1e-2,
                          optimizer="adam", seed=4)
        train(x, anchors, mods, init_projection(x.shape[1], 6, 2, seed=4), cfg,
              LossWeights(1.0, 0.0, 0.0, temperature=0.1))
        assert np.array_equal(anchors, before)

    def test_loss_decreases(self):
        x, anchors, mods = self.make_data()
        cfg = TrainConfig(batch_size=32, step_count=200, learning_rate=1e-2,
                          optimizer="adam", seed=5)
        _, log = train(x, anchors, mods, init_projection(x.shape[1], 6, 2, seed=5),
                       cfg, LossWeights(1.0, 0.0, 0.0, temperature=0.1))
        first = np.mean([r["L_total"] for r in log[:10]])
        last = np.mean([r["L_total"] for r in log[-10:]])
        assert last < first

    def test_separable_data_high_recall_heldout(self):
        from emblend.retrieval import RetrievalIndex, recall_at_k
        gen = np.random.default_rng(21)
        x, anchors, mods = self.make_data(n=240, d=8, k=2, gen=gen)
        cfg = TrainConfig(batch_size=32, step_count=500, learning_rate=3e-3,
                          optimizer="adam", seed=6)
        model = init_projection(x.shape[1], 8, 2, seed=6)
        model, _ = train(x[:200], anchors[:200], mods[:200], model, cfg,
                         LossWeights(1.0, 0.0, 0.0, temperature=0.07))
        fused, _ = forward(model, x[200:])
        ids = [f"h{i}" for i in range(40)]
        index = RetrievalIndex(ids, anchors[200:])
        assert recall_at_k(fused, ids, index, [1])[1] >= 0.9

    def test_nan_input_row_raises_at_step_zero(self):
        x, anchors, mods = self.make_data(n=40)
        x[5, 3] = np.nan
        cfg = TrainConfig(batch_size=64, step_count=10, seed=1)
        model = init_projection(x.shape[1], anchors.shape[1], 2, seed=1)
        with pytest.raises(NonFiniteLoss, match=r"^step 0: loss term L_task is nan"):
            train(x, anchors, mods, model, cfg, LossWeights(0.9, 0.05, 0.05))

    def test_non_finite_gradient_names_the_layer(self):
        grad_w = [np.zeros((3, 2)), np.zeros((1, 3))]
        grad_b = [np.zeros(3), np.array([np.inf])]
        breakdown = {"L_task": 1.0, "L_cluster": 0.0, "L_scale": 0.0, "L_total": 0.9}
        with pytest.raises(NonFiniteLoss, match=r"^step 7: gradient of layer 1 bias"):
            projection._check_finite(7, breakdown, grad_w, grad_b)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)
        with pytest.raises(ConfigError):
            TrainConfig(optimizer="adagrad")
        with pytest.raises(ConfigError):
            LossWeights(temperature=0.0)


def test_depth_three_not_worse_than_depth_one():
    # seed-averaged mean R@1, depth 3 vs depth 1, on the gapped benchmark
    from emblend.config import config_from_dict
    from emblend.dataio import Corpus
    from emblend.engine import Engine
    from emblend.retrieval import RetrievalIndex, recall_at_k
    from emblend.synth import SynthSpec, expert_configs, generate_corpus

    spec = SynthSpec(seed=4, pools=4, samples_per_pool=60, clusters=6,
                     raw_distractors=0, annotation_extras=0)
    samples = Corpus.from_pairs(generate_corpus(spec))
    doc = {"experts": [
        {"expert_id": c.expert_id, "kind": "synthetic", "dim": c.dim,
         "semantic_dim": c.semantic_dim, "gap_magnitude": c.gap_magnitude,
         "noise_sigma": c.noise_sigma, "seed": c.seed}
        for c in expert_configs(spec)],
        "gating_expert": "e2e", "anchor_expert": "text"}
    engine = Engine(config_from_dict(doc))
    x = engine.fused_inputs(samples)
    anchors = engine.anchor_matrix(samples)
    mods = [s.raw_modality for s in samples]
    ids = [s.sample_id for s in samples]
    weights = LossWeights(0.9, 0.0, 0.1, temperature=0.07)

    def mean_r1(depth):
        values = []
        for seed in (1, 2, 3):
            cfg = TrainConfig(batch_size=64, step_count=400, learning_rate=3e-3,
                              optimizer="adam", seed=seed)
            model = init_projection(x.shape[1], anchors.shape[1], depth, seed=seed)
            model, _ = train(x, anchors, mods, model, cfg, weights)
            fused, _ = forward(model, x)
            r2a = recall_at_k(fused, ids, RetrievalIndex(ids, anchors), [1])[1]
            a2r = recall_at_k(anchors, ids, RetrievalIndex(ids, fused), [1])[1]
            values.append((r2a + a2r) / 2)
        return float(np.mean(values))

    assert mean_r1(3) >= mean_r1(1) - 1e-9


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        model = init_projection(12, 4, 3, seed=13)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layer_count == 3
        for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a.astype(np.float32), b.astype(np.float32))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ConfigError):
            load_model(path)

    @pytest.mark.parametrize("edit", ["layers out of order", "bias of another layer",
                                      "no layers", "vector weight"])
    def test_rejects_layers_that_do_not_chain(self, tmp_path, edit):
        path = tmp_path / "m.json"
        save_model(init_projection(12, 4, 3, hidden_dim=6, seed=13), path)
        doc = json.loads(path.read_text())
        layers = doc["layers"]  # weights 6x12, 6x6, 4x6
        if edit == "layers out of order":
            layers[1], layers[2] = layers[2], layers[1]
        elif edit == "bias of another layer":
            layers[1]["bias"] = layers[2]["bias"]
        elif edit == "no layers":
            layers.clear()
        else:
            layers[0]["weight"]["shape"] = [72]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            load_model(path)

    def test_save_is_byte_stable(self, tmp_path):
        model = init_projection(6, 3, 1, seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# ``reference.ref_train`` runs the training-step arithmetic as first written.
# The step in emblend.projection scales the query by 1/tau once, takes all
# logits in one product and sums the groups in one product, which moves the
# last bits: it must reproduce the reference to REF_STEP_BOUND, relative.
# ---------------------------------------------------------------------------

REF_STEP_BOUND = 1e-12


ORACLE_VARIANTS = {"fused_negatives": {"include_fused_negatives": True},
                   "annotation_only": {}}
# (lambda_task, lambda_cluster, lambda_scale): gap-collapse mix, no L_cluster,
# no L_scale, and the bias terms alone
ORACLE_MIXES = ((0.9, 0.05, 0.05), (0.9, 0.0, 0.1), (0.9, 0.1, 0.0), (0.0, 0.5, 0.5))


def oracle_layouts(n, gen):
    """Modality tag layouts: a rare `video` and `text` absent from some batches,
    no `text` row at all (anchors form the text group alone), and every fused
    row tagged `text`."""
    mixed = list(gen.choice(["image", "audio", "video", "text"], size=n,
                            p=[0.45, 0.4, 0.1, 0.05]))
    return {"mixed": mixed,
            "no_text": list(gen.choice(["audio", "image"], size=n)),
            "all_text": ["text"] * n}


@pytest.mark.parametrize("variant", sorted(ORACLE_VARIANTS))
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_train_bit_identical_to_reference_step(depth, variant):
    gen = np.random.default_rng(40 + depth)
    n, d_in, d_out = 48, 12, 6
    x = gen.normal(size=(n, d_in))
    anchors = unit_rows(n, d_out, gen)
    cfg = TrainConfig(batch_size=16, step_count=12, learning_rate=1e-2, seed=depth)
    batches_without = {"video": 0, "text": 0}
    mixed = None
    for layout, mods in oracle_layouts(n, gen).items():
        if layout == "mixed":
            mixed = mods
        for mix in ORACLE_MIXES:
            weights = LossWeights(*mix, temperature=0.1, **ORACLE_VARIANTS[variant])
            model = init_projection(d_in, d_out, depth, hidden_dim=10, seed=depth)
            got, got_log = train(x, anchors, mods, model, cfg, weights)
            want, want_log = ref_train(x, anchors, mods, model, cfg, weights)
            for a, b in zip(got.weights + got.biases, want.weights + want.biases):
                assert np.max(np.abs(a - b)) <= REF_STEP_BOUND * np.max(np.abs(b))
            assert [list(r) for r in got_log] == [list(r) for r in want_log]
            for got_rec, want_rec in zip(got_log, want_log):
                for key, value in want_rec.items():
                    assert abs(got_rec[key] - value) <= REF_STEP_BOUND * abs(value), key
    # the mixed layout really has batches that lack a modality
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    for _ in range(cfg.step_count * cfg.batch_size // n):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            tags = {mixed[i] for i in order[start:start + cfg.batch_size]}
            for m in batches_without:
                batches_without[m] += m not in tags
    assert all(batches_without.values()), batches_without


def test_modality_codes_pass_through_and_group_order():
    codes = projection.modality_codes(["audio", "text", "image", "audio"])
    assert codes.tolist() == [1, 0, 2, 1]
    assert projection.modality_codes(codes) is codes
    groups = group_indices(codes, 4)
    assert [rows.tolist() for rows, _ in groups] == [[0, 3], [1, 4, 5, 6, 7], [2]]
    assert [fused.tolist() for _, fused in groups] == [[0, 3], [1], [2]]
    no_text_codes = projection.modality_codes(["video", "image"])
    no_text = group_indices(no_text_codes, 2)
    assert [rows.tolist() for rows, _ in no_text] == [[0], [1], [2, 3]]
    # the step numbers the same groups in the same order, anchors in text
    for c, n_anchor, want in ((codes, 4, groups), (no_text_codes, 2, no_text)):
        labels, text, count = projection._group_labels(c)
        assert count == len(want)
        assert [np.flatnonzero(labels == g).tolist() for g in range(count)] == \
            [fused.tolist() for _, fused in want]
        assert want[text][0][-n_anchor:].tolist() == list(range(len(c), len(c) + n_anchor))
