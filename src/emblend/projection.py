"""Trainable fusion network and its bias-aware objective.

The network maps concatenated expert embeddings (K*d) to a single d-dim
vector, normalized before any similarity. Training minimizes

    lambda_task * L_task + lambda_cluster * L_cluster + lambda_scale * L_scale

where L_task is in-batch InfoNCE against the fixed anchor embeddings,
L_cluster penalizes squared distances between modality centroids and the
batch centroid, and L_scale penalizes absolute spread differences. All
gradients are analytic (float64); anchors never receive updates.
"""
from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BatchTooSmall, ConfigError, DimMismatch, EmptyModality,
                     NonFiniteLoss)
from .geometry import normalize

OPTIMIZERS = ("sgd", "momentum", "adam")

MODEL_FORMAT = "emblend-projection"
MODEL_VERSION = 1


def softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both from e^-|x|
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


@dataclass
class LossWeights:
    lambda_task: float = 0.9
    lambda_cluster: float = 0.0
    lambda_scale: float = 0.1
    temperature: float = 0.07
    include_fused_negatives: bool = False
    symmetric: bool = False

    def __post_init__(self):
        if min(self.lambda_task, self.lambda_cluster, self.lambda_scale) < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.lambda_task == self.lambda_cluster == self.lambda_scale == 0:
            raise ConfigError("at least one loss weight must be > 0")
        if self.temperature <= 0:
            raise ConfigError("temperature must be > 0")
        if self.include_fused_negatives and self.symmetric:
            raise ConfigError("symmetric loss is only supported with annotation negatives")


@dataclass
class TrainConfig:
    batch_size: int = 256
    step_count: int = 2000
    learning_rate: float = 3e-3
    optimizer: str = "adam"
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (in-batch negatives)")
        if self.step_count < 1:
            raise ConfigError("step_count must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")


@dataclass
class ProjectionModel:
    weights: list
    biases: list
    seed: int = 0

    @property
    def layer_count(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.weights[0].shape[0] if self.layer_count > 1 else self.output_dim

    def copy(self) -> "ProjectionModel":
        return ProjectionModel([w.copy() for w in self.weights],
                               [b.copy() for b in self.biases], self.seed)


def init_projection(input_dim: int, output_dim: int, layer_count: int,
                    hidden_dim: int | None = None, seed: int = 0) -> ProjectionModel:
    """Seed-deterministic init, uniform in +-1/sqrt(fan_in) per layer."""
    if layer_count not in (1, 2, 3):
        raise ConfigError("layer_count must be 1, 2 or 3")
    hidden = input_dim if hidden_dim is None else int(hidden_dim)
    dims = [input_dim] + [hidden] * (layer_count - 1) + [output_dim]
    rng = np.random.Generator(np.random.PCG64(seed))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return ProjectionModel(weights, biases, seed)


def forward(model: ProjectionModel, x):
    """Batch forward pass; returns normalized outputs and backprop caches."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.input_dim:
        raise DimMismatch(f"input dim {x.shape[1]} != model input {model.input_dim}")
    activations = [x]
    pre_acts = []
    h = x
    for layer in range(model.layer_count):
        a = h @ model.weights[layer].T + model.biases[layer]
        pre_acts.append(a)
        h = softplus(a) if layer < model.layer_count - 1 else a
        activations.append(h)
    raw = activations[-1]
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise DimMismatch("projection produced a zero output vector")
    fused = raw / norms
    return fused, (activations, pre_acts, norms)


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------

def _softmax_xent(logits):
    """Mean cross-entropy of row i against target column i, and its gradient
    with respect to the logits. Overwrites ``logits``: they are shifted and
    exponentiated in place, then turned into the gradient, which is returned."""
    n = logits.shape[0]
    diag = np.arange(n)
    logits -= logits.max(axis=1, keepdims=True)
    target = logits[diag, diag]
    np.exp(logits, out=logits)
    denom = logits.sum(axis=1, keepdims=True)
    loss = -(target - np.log(denom[:, 0])).mean()
    logits /= denom
    logits[diag, diag] -= 1.0
    logits /= n
    return loss, logits


def _task_loss_grad(fused, anchors, weights: LossWeights):
    n = fused.shape[0]
    if n < 2:
        raise BatchTooSmall("InfoNCE needs at least 2 pairs in a batch")
    tau = weights.temperature
    if weights.include_fused_negatives:
        # [annotation candidates | fused candidates] side by side in one buffer
        logits = np.empty((n, 2 * n))
        logits_a, logits_f = logits[:, :n], logits[:, n:]
        np.matmul(fused, anchors.T, out=logits_a)
        logits_a /= tau
        np.matmul(fused, fused.T, out=logits_f)
        logits_f /= tau
        np.fill_diagonal(logits_f, -np.inf)  # a query is not its own negative
        loss, dlogits = _softmax_xent(logits)
        da, df_part = dlogits[:, :n], dlogits[:, n:]
        np.fill_diagonal(df_part, 0.0)
        grad = da @ anchors / tau + df_part @ fused / tau + df_part.T @ fused / tau
        return loss, grad

    logits_a = fused @ anchors.T / tau  # queries x annotation candidates
    loss_fwd, dlog_fwd = _softmax_xent(logits_a.copy() if weights.symmetric else logits_a)
    grad = dlog_fwd @ anchors / tau
    if not weights.symmetric:
        return loss_fwd, grad
    # reverse direction: anchor queries against fused candidates, reduced over
    # the transposed view itself (a contiguous copy sums in another order)
    loss_bwd, dlog_bwd = _softmax_xent(logits_a.T)
    grad_bwd = dlog_bwd.T @ anchors / tau
    return 0.5 * (loss_fwd + loss_bwd), 0.5 * (grad + grad_bwd)


def loss_task(fused, anchors, temperature: float = 0.07,
              include_fused_negatives: bool = False, symmetric: bool = False) -> float:
    """In-batch InfoNCE over (fused, anchor) pairs."""
    fused = np.asarray(fused, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    w = LossWeights(lambda_task=1.0, lambda_cluster=0.0, lambda_scale=0.0,
                    temperature=temperature,
                    include_fused_negatives=include_fused_negatives, symmetric=symmetric)
    value, _ = _task_loss_grad(fused, anchors, w)
    return float(value)


def modality_codes(modalities) -> np.ndarray:
    """Integer code per modality tag, with ``text`` (the group the anchor rows
    join) as 0. An integer array is already encoded and passes through, so a
    caller can encode once and take a batch's codes by slicing."""
    if isinstance(modalities, np.ndarray) and modalities.dtype.kind == "i":
        return modalities
    modalities = list(modalities)
    table = {"text": 0}
    return np.fromiter((table.setdefault(m, len(table)) for m in modalities),
                       dtype=np.int64, count=len(modalities))


def _group_indices(codes, n_anchor):
    """Group rows of the stacked (fused + anchor) cloud by modality code, in
    first-occurrence order; the anchor rows join ``text``, which goes last
    when no fused row carries it. Returns (rows, fused rows) per group."""
    n_fused = codes.shape[0]
    anchor_rows = np.arange(n_fused, n_fused + n_anchor)
    present, first = np.unique(codes, return_index=True)
    groups = []
    for code in present[np.argsort(first)]:
        rows = np.flatnonzero(codes == code)
        groups.append((np.concatenate([rows, anchor_rows]) if code == 0 else rows, rows))
    if present[0] != 0:
        groups.append((anchor_rows, anchor_rows[:0]))
    return groups


def _group_loss_grads(points, groups, n_fused, weights: LossWeights):
    """L_cluster and L_scale with their gradients w.r.t. the fused rows, in one
    pass over the groups that shares the overall and per-group centroids. A
    term with zero weight is skipped: its loss reads 0 and its gradient None."""
    n, d = points.shape
    with_cluster, with_scale = weights.lambda_cluster > 0, weights.lambda_scale > 0
    mu = points.mean(axis=0)
    l_cluster, grad_cluster, sum_dev = 0.0, None, None
    l_scale, grad_scale, sign_total = 0.0, None, 0.0
    if with_cluster:
        sum_dev = np.zeros_like(mu)
        grad_cluster = np.zeros((n_fused, d))
    if with_scale:
        diff = points - mu
        dist = np.linalg.norm(diff, axis=1)
        unit = np.divide(diff, dist[:, None], out=np.zeros_like(diff),
                         where=dist[:, None] > 0)
        sigma = dist.mean()
        d_sigma = (unit - unit.mean(axis=0)) / n  # d sigma / d point, rows
        grad_scale = np.zeros((n_fused, d))
    for idx, fused_idx in groups:
        group = points[idx]
        mu_m = group.mean(axis=0)
        if with_cluster:
            dev = mu_m - mu
            l_cluster += float(dev @ dev)
            sum_dev += dev
            grad_cluster[fused_idx] += 2.0 * dev / idx.size
        if with_scale:
            diff_m = group - mu_m
            dist_m = np.linalg.norm(diff_m, axis=1)
            sigma_m = dist_m.mean()
            s = np.sign(sigma_m - sigma)  # subgradient 0 at the kink
            l_scale += abs(sigma_m - sigma)
            sign_total += s
            if s != 0:
                unit_m = np.divide(diff_m, dist_m[:, None], out=np.zeros_like(diff_m),
                                   where=dist_m[:, None] > 0)
                d_sigma_m = (unit_m - unit_m.mean(axis=0)) / idx.size
                # the fused rows lead every group's index list
                grad_scale[fused_idx] += s * d_sigma_m[:fused_idx.size]
    if with_cluster:
        grad_cluster -= 2.0 * sum_dev / n
    if with_scale:
        grad_scale -= sign_total * d_sigma[:n_fused]
    return l_cluster, grad_cluster, float(l_scale), grad_scale


def loss_cluster(groups: dict) -> float:
    """Sum of squared distances between modality centroids and the overall centroid."""
    mats = {m: np.atleast_2d(np.asarray(g, dtype=np.float64)) for m, g in groups.items()}
    for m, g in mats.items():
        if g.shape[0] == 0:
            raise EmptyModality(f"modality {m!r} group is empty")
    points = np.concatenate(list(mats.values()), axis=0)
    mu = points.mean(axis=0)
    return float(sum(((g.mean(axis=0) - mu) ** 2).sum() for g in mats.values()))


def loss_scale(groups: dict) -> float:
    """Sum of |group spread - overall spread| over modality groups."""
    mats = {m: np.atleast_2d(np.asarray(g, dtype=np.float64)) for m, g in groups.items()}
    for m, g in mats.items():
        if g.shape[0] == 0:
            raise EmptyModality(f"modality {m!r} group is empty")
    points = np.concatenate(list(mats.values()), axis=0)
    mu = points.mean(axis=0)
    sigma = np.linalg.norm(points - mu, axis=1).mean()
    total = 0.0
    for g in mats.values():
        mu_m = g.mean(axis=0)
        sigma_m = np.linalg.norm(g - mu_m, axis=1).mean()
        total += abs(sigma_m - sigma)
    return float(total)


def batch_losses(fused, anchors, modalities, weights: LossWeights):
    """Total loss and per-term breakdown for one batch (no gradients)."""
    total, breakdown, _ = _batch_loss_grad_fused(
        np.asarray(fused, dtype=np.float64), np.asarray(anchors, dtype=np.float64),
        modality_codes(modalities), weights)
    return total, breakdown


def _batch_loss_grad_fused(fused, anchors, codes, weights):
    n = fused.shape[0]
    grad = np.zeros_like(fused)
    l_task = l_cluster = l_scale = 0.0
    if weights.lambda_task > 0:
        l_task, g = _task_loss_grad(fused, anchors, weights)
        grad += weights.lambda_task * g
    if weights.lambda_cluster > 0 or weights.lambda_scale > 0:
        points = np.concatenate([fused, anchors], axis=0)
        groups = _group_indices(codes, anchors.shape[0])
        l_cluster, g_cluster, l_scale, g_scale = _group_loss_grads(points, groups, n, weights)
        if g_cluster is not None:
            grad += weights.lambda_cluster * g_cluster
        if g_scale is not None:
            grad += weights.lambda_scale * g_scale
    total = (weights.lambda_task * l_task + weights.lambda_cluster * l_cluster
             + weights.lambda_scale * l_scale)
    breakdown = {"L_task": float(l_task), "L_cluster": float(l_cluster),
                 "L_scale": float(l_scale), "L_total": float(total)}
    return float(total), breakdown, grad


def backward(model: ProjectionModel, inputs, anchors, modalities, weights: LossWeights):
    """Analytic gradients of the total loss w.r.t. all layer parameters.

    ``modalities`` holds one tag per row, or their ``modality_codes``.
    Returns (grad_weights, grad_biases, breakdown).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    fused, (activations, pre_acts, norms) = forward(model, inputs)
    _, breakdown, d_fused = _batch_loss_grad_fused(
        fused, anchors, modality_codes(modalities), weights)

    # through row-wise normalization: u = raw / |raw|
    inner = np.sum(fused * d_fused, axis=1, keepdims=True)
    delta = (d_fused - fused * inner) / norms

    grad_w = [None] * model.layer_count
    grad_b = [None] * model.layer_count
    for layer in range(model.layer_count - 1, -1, -1):
        grad_w[layer] = delta.T @ activations[layer]
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * sigmoid(pre_acts[layer - 1])
    return grad_w, grad_b, breakdown


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

class _Optimizer:
    def __init__(self, kind, lr, shapes):
        self.kind = kind
        self.lr = lr
        self.step_no = 0
        if kind in ("momentum", "adam"):
            self.m = [np.zeros(s) for s in shapes]
        if kind == "adam":
            self.v = [np.zeros(s) for s in shapes]

    def update(self, params, grads):
        self.step_no += 1
        if self.kind == "sgd":
            for p, g in zip(params, grads):
                p -= self.lr * g
        elif self.kind == "momentum":
            for p, g, m in zip(params, grads, self.m):
                m *= 0.9
                m += g
                p -= self.lr * m
        else:  # adam
            b1, b2, eps = 0.9, 0.999, 1e-8
            c1 = 1.0 - b1 ** self.step_no
            c2 = 1.0 - b2 ** self.step_no
            for p, g, m, v in zip(params, grads, self.m, self.v):
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                p -= self.lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _check_finite(step, breakdown, grad_w, grad_b):
    for term, value in breakdown.items():
        if not math.isfinite(value):
            raise NonFiniteLoss(f"step {step}: loss term {term} is {value}")
    for kind, grads in (("weight", grad_w), ("bias", grad_b)):
        for layer, g in enumerate(grads):
            if not np.isfinite(g).all():
                raise NonFiniteLoss(f"step {step}: gradient of layer {layer} {kind} "
                                    "is not finite")


def train(inputs, anchors, modalities, model: ProjectionModel,
          train_config: TrainConfig, weights: LossWeights):
    """Fit the projection on (concatenated expert inputs, anchor) pairs.

    Deterministic for a fixed seed: init, shuffle order, and batch slicing
    are all driven by the config seed. Anchors are never modified. Raises
    NonFiniteLoss at the first step whose loss or gradient is not finite.
    Returns (trained model, per-step loss log).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    codes = modality_codes(modalities)
    n = inputs.shape[0]
    if n != anchors.shape[0] or n != codes.shape[0]:
        raise DimMismatch("inputs, anchors and modalities must have equal length")
    if anchors.shape[1] != model.output_dim:
        raise DimMismatch(
            f"anchor dim {anchors.shape[1]} != projection output {model.output_dim}")
    if n < 2:
        raise BatchTooSmall("training needs at least 2 pairs")

    model = model.copy()
    batch = min(train_config.batch_size, n)
    params = model.weights + model.biases
    opt = _Optimizer(train_config.optimizer, train_config.learning_rate,
                     [p.shape for p in params])
    rng = np.random.Generator(np.random.PCG64(train_config.seed))
    order = np.arange(n)
    cursor = n  # force an epoch boundary on the first step
    log = []
    for step in range(train_config.step_count):
        if cursor + batch > n:
            order = rng.permutation(n) if train_config.shuffle else np.arange(n)
            cursor = 0
        take = order[cursor:cursor + batch]
        cursor += batch
        grad_w, grad_b, breakdown = backward(
            model, inputs[take], anchors[take], codes[take], weights)
        _check_finite(step, breakdown, grad_w, grad_b)
        opt.update(params, grad_w + grad_b)
        log.append({"step": step, **breakdown})
    return model, log


# ---------------------------------------------------------------------------
# model file I/O (JSON header + base64 float32 little-endian blocks)
# ---------------------------------------------------------------------------

def _encode_block(arr) -> dict:
    arr32 = np.asarray(arr, dtype="<f4")
    return {"shape": list(arr32.shape),
            "data": base64.b64encode(arr32.tobytes()).decode("ascii")}


def _decode_block(block) -> np.ndarray:
    raw = base64.b64decode(block["data"].encode("ascii"))
    return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(block["shape"])


def save_model(model: ProjectionModel, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "layer_count": model.layer_count,
        "input_dim": model.input_dim,
        "hidden_dim": model.hidden_dim,
        "output_dim": model.output_dim,
        "activation": "softplus",
        "seed": model.seed,
        "layers": [
            {"weight": _encode_block(w), "bias": _encode_block(b)}
            for w, b in zip(model.weights, model.biases)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path) -> ProjectionModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a projection model file")
    if doc.get("version") != MODEL_VERSION:
        raise ConfigError(f"{path}: unsupported model version {doc.get('version')}")
    try:
        weights = [_decode_block(layer["weight"]) for layer in doc["layers"]]
        biases = [_decode_block(layer["bias"]) for layer in doc["layers"]]
        seed = int(doc.get("seed", 0))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed model layers: {exc!r}") from None
    if not weights:
        raise ConfigError(f"{path}: model has no layers")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.ndim != 2 or b.shape != w.shape[:1] or (i and w.shape[1] != len(weights[i - 1])):
            raise ConfigError(f"{path}: layer {i} (weight {w.shape}, bias {b.shape}) does not "
                              "chain onto the layer before it")
    return ProjectionModel(weights, biases, seed)
