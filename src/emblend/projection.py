"""Trainable fusion network and its bias-aware objective.

The network maps concatenated expert embeddings (K*d) to a single d-dim
vector, normalized before any similarity. Training minimizes

    lambda_task * L_task + lambda_cluster * L_cluster + lambda_scale * L_scale

where L_task is in-batch InfoNCE of the fused rows, as queries, against the
fixed anchor embeddings, L_cluster penalizes squared distances between
modality centroids and the batch centroid, and L_scale penalizes absolute
spread differences. All gradients are analytic (float64); anchors never
receive updates. ``train`` takes Adam steps over shuffled epochs; the
``optimizer``, ``shuffle`` and ``symmetric`` keys each accept one value.

``train`` runs every step in one ``Workspace``, sized from the batch and
the layer widths: the step writes its gathered batch, activations, logits,
deltas and gradients into it in place, so its speed does not hang on
malloc's mmap threshold. All logits come from one product of the query
fused / tau with the candidates [anchors | fused], and the group terms from
per-group sums, without a loop over the groups.
"""
from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BatchTooSmall, ConfigError, DimMismatch, EmptyModality,
                     NonFiniteLoss)

OPTIMIZERS = ("adam",)

MODEL_FORMAT = "emblend-projection"
MODEL_VERSION = 1


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
        if self.symmetric is not False:
            raise ConfigError("symmetric must be false: the task loss has one direction")


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
        if self.shuffle is not True:
            raise ConfigError("shuffle must be true: every epoch is a fresh permutation")


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
    hidden = input_dim if hidden_dim is None else hidden_dim
    dims = [input_dim] + [hidden] * (layer_count - 1) + [output_dim]
    rng = np.random.Generator(np.random.PCG64(seed))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return ProjectionModel(weights, biases, seed)


class Workspace:
    """Every array one step of the projection writes, sized once for a batch
    of ``n`` rows of output dim ``d``. ``train`` builds one per run and each
    step overwrites it in place, so a step maps no fresh memory whatever
    malloc's mmap threshold is.

    With ``model`` it holds the forward pass: per-layer pre-activations and,
    per hidden layer, e^-|z| (shared by softplus and the backprop sigmoid),
    the sign of z and the activations. With ``weights`` it holds the
    loss: the candidate rows [anchors | fused], the query fused / tau, the
    n x n (or n x 2n with fused negatives) logits, dL/dfused and the group
    terms' per-row buffers. With both it also holds the gathered input
    batch, the deltas and the gradients, which ``backward`` returns.
    """

    def __init__(self, n: int, d: int, model: ProjectionModel | None = None,
                 weights: LossWeights | None = None):
        self.n = n
        anchor_rows = 0 if weights is None else n
        self.cand = np.empty((anchor_rows + n, d))  # [anchors | fused]
        self.anchors, self.fused = self.cand[:anchor_rows], self.cand[anchor_rows:]
        self.scratch = np.empty((n, d))
        self.norms = np.empty((n, 1))
        if model is not None:
            widths = [w.shape[0] for w in model.weights]
            self.pre = [np.empty((n, w)) for w in widths]
            self.exp_neg = [np.empty((n, w)) for w in widths[:-1]]
            self.sign = [np.empty((n, w)) for w in widths[:-1]]
            self.act = [np.empty((n, w)) for w in widths[:-1]]
        if weights is None:
            return
        self.query = np.empty((n, d))
        self.logits = np.empty((n, 2 * n if weights.include_fused_negatives else n))
        self.d_fused = np.empty((n, d))
        self.labels = np.empty(2 * n, dtype=np.int64)
        self.unit, self.unit_g = np.empty((2 * n, d)), np.empty((2 * n, d))
        self.dist, self.dist_g = np.empty(2 * n), np.empty(2 * n)
        if model is not None:
            self.x = np.empty((n, model.input_dim))
            self.delta = [np.empty((n, w)) for w in widths]
            self.grad_w = [np.empty_like(w) for w in model.weights]
            self.grad_b = [np.empty_like(b) for b in model.biases]


def _forward(model: ProjectionModel, ws: Workspace, x) -> list:
    """Forward pass of ``x`` into ``ws``; the normalized outputs land in
    ``ws.fused``. Returns the activations, input first and raw output last."""
    last = model.layer_count - 1
    activations = [x]
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(activations[-1], w.T, out=ws.pre[layer])
        z += b
        if layer < last:
            # softplus(z) = max(z, 0) + log1p(e^-|z|); ``sign`` holds max(z, 0)
            # until the sum is taken
            e, sign, h = ws.exp_neg[layer], ws.sign[layer], ws.act[layer]
            np.maximum(z, 0.0, out=sign)
            np.abs(z, out=e)
            np.negative(e, out=e)
            np.exp(e, out=e)
            np.log1p(e, out=h)
            h += sign
            np.sign(z, out=sign)
            z = h
        activations.append(z)
    raw, norms = activations[-1], ws.norms
    np.multiply(raw, raw, out=ws.scratch)
    np.sum(ws.scratch, axis=1, out=norms[:, 0])
    np.sqrt(norms, out=norms)
    if np.any(norms < 1e-12):
        raise DimMismatch("projection produced a zero output vector")
    np.divide(raw, norms, out=ws.fused)
    return activations


def forward(model: ProjectionModel, x):
    """Batch forward pass; returns normalized outputs and backprop caches."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.input_dim:
        raise DimMismatch(f"input dim {x.shape[1]} != model input {model.input_dim}")
    ws = Workspace(x.shape[0], model.output_dim, model)
    activations = _forward(model, ws, x)
    return ws.fused, (activations, ws.pre, ws.norms)


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------

def _softmax_xent(logits):
    """Mean cross-entropy of row i against target column i. Leaves the
    shifted exps P in ``logits`` and returns (loss, s): the gradient of the
    mean with respect to the logits is s * P less 1/n at each target, where
    the column s is 1 / (n * row sum of P)."""
    n, m = logits.shape
    logits -= logits.max(axis=1, keepdims=True)
    target = logits.reshape(-1)[::m + 1].copy()
    np.exp(logits, out=logits)
    denom = logits.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(denom[:, 0]) - target))
    return loss, 1.0 / (denom * n)


def _task_term(ws: Workspace, weights: LossWeights) -> float:
    """In-batch InfoNCE of ``ws.fused`` against its candidates. Writes
    lambda_task * dL_task/dfused into ``ws.d_fused``; returns L_task.

    The gradient's row scales s go onto the n x d products, not the logits:
    d/dfused = (s * P) @ cand, plus (s * P_F).T @ fused for the fused rows as
    negatives, less anchors / n, all over tau."""
    n = ws.n
    if n < 2:
        raise BatchTooSmall("InfoNCE needs at least 2 pairs in a batch")
    tau = weights.temperature
    logits, grad, tmp, query = ws.logits, ws.d_fused, ws.scratch, ws.query
    cand = ws.cand[:logits.shape[1]]  # the anchors, then the fused rows if negatives
    np.divide(ws.fused, tau, out=query)
    np.matmul(query, cand.T, out=logits)
    if weights.include_fused_negatives:
        logits.reshape(-1)[n::2 * n + 1] = -np.inf  # a query is not its own negative
    loss, scale = _softmax_xent(logits)
    np.matmul(logits, cand, out=grad)
    grad *= scale
    if weights.include_fused_negatives:
        # the fused rows' side as candidates
        np.multiply(ws.fused, scale, out=query)  # the query is spent
        np.matmul(logits[:, n:].T, query, out=tmp)
        grad += tmp
    np.multiply(ws.anchors, 1 / n, out=tmp)
    grad -= tmp
    grad *= weights.lambda_task / tau
    return loss


def loss_task(fused, anchors, temperature: float = 0.07,
              include_fused_negatives: bool = False) -> float:
    """In-batch InfoNCE over (fused, anchor) pairs."""
    w = LossWeights(lambda_task=1.0, lambda_cluster=0.0, lambda_scale=0.0,
                    temperature=temperature, include_fused_negatives=include_fused_negatives)
    return _task_term(_loss_workspace(fused, anchors, w), w)


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


def _group_labels(codes):
    """Group of each fused row, the groups numbered in first-occurrence order
    of their codes. Returns (labels, text group, group count): the anchor
    rows join ``text``, which goes last when no fused row carries it."""
    present, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    if present[0] == 0:
        return rank[inverse], rank[0], first.size
    return rank[inverse], first.size, first.size + 1


def _gather(rows, index, out) -> None:
    """``out[:] = rows[index]`` without a temporary. Mode "clip" writes
    straight into ``out`` where "raise" would buffer a copy first; every
    caller's index is in range."""
    np.take(rows, index, axis=0, out=out, mode="clip")


def _unit_rows(diff, dist) -> None:
    """Row norms of ``diff`` into ``dist``, then each row of ``diff`` scaled
    to unit length in place; a row of norm 0 becomes 0."""
    np.vecdot(diff, diff, out=dist)
    np.sqrt(dist, out=dist)
    inv = np.zeros_like(dist)
    np.divide(1.0, dist, out=inv, where=dist > 0)
    diff *= inv[:, None]


def _group_terms(ws: Workspace, codes, weights: LossWeights):
    """L_cluster and L_scale over the modality groups of the [anchors | fused]
    cloud, from per-group sums taken as one indicator-matrix product. Adds
    their weighted gradients to ``ws.d_fused``; a term with zero weight is
    skipped and reads 0. Returns (L_cluster, L_scale)."""
    n, points, grad, tmp = ws.n, ws.cand, ws.d_fused, ws.scratch
    total = points.shape[0]
    labels, text, groups = _group_labels(codes)
    lab = ws.labels
    lab[:n] = text
    lab[n:] = labels
    member = np.zeros((groups, total))
    member[lab, np.arange(total)] = 1.0
    count = member.sum(axis=1)[:, None]
    # both means from the same group sums, so a lone group's centroid is mu
    sums = member @ points
    mu, mu_g = sums.sum(axis=0) / total, sums / count
    l_cluster = l_scale = 0.0
    if weights.lambda_cluster > 0:
        dev = mu_g - mu
        l_cluster = float(np.vecdot(dev, dev).sum())
        _gather(dev * (2.0 * weights.lambda_cluster / count), labels, tmp)
        grad += tmp
        grad -= (2.0 * weights.lambda_cluster / total) * dev.sum(axis=0)
    if weights.lambda_scale > 0:
        # spread = mean distance to the centroid; d spread / d row is the
        # row's unit offset minus the mean unit offset, over the row count
        unit, unit_g = ws.unit, ws.unit_g
        np.subtract(points, mu, out=unit)
        _unit_rows(unit, ws.dist)
        _gather(mu_g, lab, unit_g)
        np.subtract(points, unit_g, out=unit_g)
        _unit_rows(unit_g, ws.dist_g)
        # both spreads summed in one order, so a lone group's spread is sigma
        sigma = np.bincount(lab, weights=ws.dist).sum() / total
        gap = np.bincount(lab, weights=ws.dist_g, minlength=groups) / count[:, 0] - sigma
        sign = np.sign(gap)  # subgradient 0 at the kink
        l_scale = float(np.abs(gap).sum())
        _gather(member @ unit_g / count, labels, tmp)
        np.subtract(unit_g[n:], tmp, out=tmp)
        tmp *= (weights.lambda_scale * sign / count[:, 0])[labels][:, None]
        grad += tmp
        np.subtract(unit[n:], unit.mean(axis=0), out=tmp)
        tmp *= weights.lambda_scale * sign.sum() / total
        grad -= tmp
    return l_cluster, l_scale


def loss_cluster(groups: dict) -> float:
    """Sum of squared distances between modality centroids and the overall centroid."""
    mats = {m: np.atleast_2d(np.asarray(g, dtype=np.float64)) for m, g in groups.items()}
    for m, g in mats.items():
        if g.shape[0] == 0:
            raise EmptyModality(f"modality {m!r} group is empty")
    points = np.concatenate(list(mats.values()), axis=0)
    mu = points.mean(axis=0)
    return float(sum(((g.mean(axis=0) - mu) ** 2).sum() for g in mats.values()))


def _loss_grad(ws: Workspace, codes, weights: LossWeights):
    """Total loss and per-term breakdown of the batch in ``ws``, leaving the
    weighted dL/dfused in ``ws.d_fused``."""
    l_task = l_cluster = l_scale = 0.0
    if weights.lambda_task > 0:
        l_task = _task_term(ws, weights)
    else:
        ws.d_fused.fill(0.0)
    if weights.lambda_cluster > 0 or weights.lambda_scale > 0:
        l_cluster, l_scale = _group_terms(ws, codes, weights)
    total = (weights.lambda_task * l_task + weights.lambda_cluster * l_cluster
             + weights.lambda_scale * l_scale)
    breakdown = {"L_task": float(l_task), "L_cluster": float(l_cluster),
                 "L_scale": float(l_scale), "L_total": float(total)}
    return float(total), breakdown


def _loss_workspace(fused, anchors, weights: LossWeights) -> Workspace:
    fused = np.asarray(fused, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    if fused.ndim != 2 or anchors.shape != fused.shape:
        raise DimMismatch(f"anchors {anchors.shape} do not pair with fused rows {fused.shape}")
    ws = Workspace(fused.shape[0], fused.shape[1], weights=weights)
    ws.fused[...] = fused
    ws.anchors[...] = anchors
    return ws


def batch_losses(fused, anchors, modalities, weights: LossWeights):
    """Total loss and per-term breakdown for one batch (no gradients)."""
    return _loss_grad(_loss_workspace(fused, anchors, weights),
                      modality_codes(modalities), weights)


def backward(model: ProjectionModel, inputs, anchors, modalities, weights: LossWeights,
             workspace: Workspace | None = None):
    """Analytic gradients of the total loss w.r.t. all layer parameters.

    ``modalities`` holds one tag per row, or their ``modality_codes``.
    Returns (grad_weights, grad_biases, breakdown). Without ``workspace``
    the step runs in a fresh one; with it (sized for this batch, ``model``
    and ``weights``), the gradients returned are its arrays, which the next
    call overwrites. Rows already in its ``x`` and ``anchors`` are not copied.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    anchors = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    if inputs.shape[1] != model.input_dim:
        raise DimMismatch(f"input dim {inputs.shape[1]} != model input {model.input_dim}")
    if anchors.shape != (inputs.shape[0], model.output_dim):
        raise DimMismatch(f"anchors {anchors.shape} do not pair with {inputs.shape[0]} "
                          f"inputs of output dim {model.output_dim}")
    ws = workspace
    if ws is None:
        ws = Workspace(inputs.shape[0], model.output_dim, model, weights)
    if ws.x.shape != inputs.shape:
        raise DimMismatch(f"workspace is sized for {ws.x.shape} inputs, not {inputs.shape}")
    if inputs is not ws.x:
        ws.x[...] = inputs
    if anchors is not ws.anchors:
        ws.anchors[...] = anchors
    activations = _forward(model, ws, ws.x)
    _, breakdown = _loss_grad(ws, modality_codes(modalities), weights)

    # through row-wise normalization: u = raw / |raw|
    fused, delta, tmp = ws.fused, ws.delta[-1], ws.scratch
    np.multiply(fused, ws.d_fused, out=tmp)
    inner = tmp.sum(axis=1, keepdims=True)
    np.multiply(fused, inner, out=tmp)
    np.subtract(ws.d_fused, tmp, out=delta)
    delta /= ws.norms

    for layer in range(model.layer_count - 1, -1, -1):
        np.matmul(delta.T, activations[layer], out=ws.grad_w[layer])
        np.sum(delta, axis=0, out=ws.grad_b[layer])
        if layer > 0:
            prev = np.matmul(delta, model.weights[layer], out=ws.delta[layer - 1])
            # sigmoid(z) = max(e, sign z) / (1 + e) with e = e^-|z| from the
            # forward pass: 1 / (1 + e) for z >= 0 (e = 1 at 0), e / (1 + e)
            # below. That layer's activations have fed grad_w above, so they
            # hold 1 + e, and e becomes the sigmoid itself.
            e, denom = ws.exp_neg[layer - 1], activations[layer]
            np.add(e, 1.0, out=denom)
            np.maximum(e, ws.sign[layer - 1], out=e)
            e /= denom
            prev *= e
            delta = prev
    return ws.grad_w, ws.grad_b, breakdown


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

class _Optimizer:
    """Adam: p -= lr * (m / c1) / (sqrt(v / c2) + eps), c1 and c2 the bias corrections."""

    def __init__(self, lr, shapes):
        self.lr = lr
        self.step_no = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.tmp = [(np.empty(s), np.empty(s)) for s in shapes]  # per-step temporaries

    def update(self, params, grads):
        self.step_no += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** self.step_no
        c2 = 1.0 - b2 ** self.step_no
        for p, g, m, v, (t, u) in zip(params, grads, self.m, self.v, self.tmp):
            m *= b1
            m += np.multiply(g, 1 - b1, out=t)
            v *= b2
            np.multiply(g, 1 - b2, out=t)
            t *= g
            v += t
            np.divide(v, c2, out=t)
            np.sqrt(t, out=t)
            t += eps
            np.divide(m, c1, out=u)
            u *= self.lr
            u /= t
            p -= u


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

    Adam over shuffled epochs: each epoch is a fresh permutation of the rows,
    drawn from the config seed, so a run is deterministic for a fixed seed.
    Anchors are never modified. Raises NonFiniteLoss at the first step whose
    loss or gradient is not finite. Every step runs in one Workspace built
    for the run. Returns (trained model, per-step loss log).
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
    opt = _Optimizer(train_config.learning_rate, [p.shape for p in params])
    ws = Workspace(batch, model.output_dim, model, weights)
    rng = np.random.Generator(np.random.PCG64(train_config.seed))
    cursor = n  # force an epoch boundary on the first step
    log = []
    for step in range(train_config.step_count):
        if cursor + batch > n:
            order, cursor = rng.permutation(n), 0
        take = order[cursor:cursor + batch]
        cursor += batch
        _gather(inputs, take, ws.x)
        _gather(anchors, take, ws.anchors)
        grad_w, grad_b, breakdown = backward(
            model, ws.x, ws.anchors, codes[take], weights, ws)
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
