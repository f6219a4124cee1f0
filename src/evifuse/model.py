"""Multi-view evidential classifier with small dense evidence heads.

One head per view maps that view's features through tanh hidden layers to a
softplus output, so evidence is nonnegative for every input. Heads are
trained jointly by Adam on the overall evidential objective; gradients flow
through the closed-form evidence fusion back into every head.

All parameters of a model live in one flat vector. Heads that share an input
dimension form a stack, whose layers are (G, out, in) weight and (G, out)
bias views into that vector, so training and evaluation make one batched
matmul per layer per stack on (G, N, d) features, and Adam updates the whole
vector at once. Everything is seeded and reductions are ordered, so a config
plus data determines the trained model bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .data import MultiViewDataset, MultiViewSample, read_json
from .dirichlet import BaseRate, DirichletParams, EvidenceVector, _integer, _numeric, _real, combined_evidence
from .losses import LossConfig, _one_hot, _overall, annealed_lambda
from .metrics import check_unit_interval
from .opinions import dirichlet_from_evidence, opinion_from_dirichlet

CHECKPOINT_FORMAT = "evifuse-model"
CHECKPOINT_VERSION = 1

# Row-block size of the per-epoch evaluation, in special-function arguments.
# A loss-only call over r rows hands specfun's kernel (V+1) * r * (K + 3)
# values (S, alpha_label, the masked alphas and their sum), and the kernel
# holds about a dozen temporaries of that length, so a block needs about
# 400 KB whatever the dataset size. A block's features are views into the
# stacked (G, N, d) arrays, so blocking copies no input.
_EVAL_BLOCK = 4096


def _integers(values, name) -> tuple:
    """A list of integers as a tuple of ints, each entry read by `_integer`."""
    arr = _numeric(values, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a list of integers")
    return tuple(_integer(x, f"{name} entry") for x in arr.tolist())


class TrainingDiverged(RuntimeError):
    """Raised when the objective stops being finite."""


class NonFiniteEvidence(RuntimeError):
    """Raised when a sample's combined evidence overflows at evaluation."""


@dataclass(frozen=True)
class ModelConfig:
    """Shape and optimization settings for an evidential model."""

    num_classes: int
    num_views: int
    view_dims: tuple
    hidden: tuple = (32,)
    prior_weight: float | None = None  # W; defaults to num_classes
    learning_rate: float = 1e-4
    epochs: int = 200
    batch_size: int = 32
    anneal_epochs: int | None = None  # defaults to epochs
    seed: int = 0

    def __post_init__(self):
        k, v = _integer(self.num_classes, "num_classes"), _integer(self.num_views, "num_views")
        if k < 2:
            raise ValueError("need at least two classes")
        if v < 2:
            raise ValueError("need at least two views")
        dims = _integers(self.view_dims, "view_dims")
        if len(dims) != v or any(d < 1 for d in dims):
            raise ValueError("view_dims must list one positive dimension per view")
        hidden = _integers(self.hidden, "hidden")
        if any(h < 1 for h in hidden):
            raise ValueError("hidden layer sizes must be positive")
        w = _real(self.prior_weight, "prior_weight") if self.prior_weight is not None else float(k)
        if not np.isfinite(w) or w <= 0.0:
            raise ValueError("prior weight must be positive")
        lr = _real(self.learning_rate, "learning_rate")
        if not np.isfinite(lr) or lr < 0.0:
            raise ValueError(f"learning rate must be finite and nonnegative, not {lr}")
        epochs, batch_size = _integer(self.epochs, "epochs"), _integer(self.batch_size, "batch_size")
        if epochs < 0 or batch_size < 1:
            raise ValueError("bad epochs/batch_size")
        anneal = _integer(self.anneal_epochs, "anneal_epochs") if self.anneal_epochs is not None else max(1, epochs)
        if anneal < 1:
            raise ValueError("anneal_epochs must be at least 1")
        object.__setattr__(self, "num_classes", k)
        object.__setattr__(self, "num_views", v)
        object.__setattr__(self, "view_dims", dims)
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "prior_weight", w)
        object.__setattr__(self, "learning_rate", lr)
        object.__setattr__(self, "epochs", epochs)
        object.__setattr__(self, "batch_size", batch_size)
        object.__setattr__(self, "anneal_epochs", anneal)
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        """The config a `to_dict` record describes; an absent optional key takes its default.

        A key that names no field, or a missing key of a field without a
        default, is a ValueError naming it.
        """
        declared = {f.name: f for f in fields(cls)}
        for key in obj:
            if key not in declared:
                raise ValueError(f"unknown config key {key!r}")
        for name, f in declared.items():
            if name not in obj and f.default is MISSING:
                raise ValueError(f"missing key {name!r}")
        return cls(**obj)


def _softplus(z: np.ndarray) -> np.ndarray:
    # logaddexp(0, z) by its own formula, max(z, 0) + log1p(e^-|z|), in
    # numpy's vectorised exp and log1p; exp never overflows
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so exp never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _layer_sizes(in_dim: int, hidden, num_classes: int) -> list:
    """(fan_in, fan_out) of each layer of a head."""
    sizes = [int(in_dim), *(int(h) for h in hidden), int(num_classes)]
    return list(zip(sizes[:-1], sizes[1:]))


def _affine(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """h @ w^T + b as one new array, for a head or, with a leading axis on all three, a stack."""
    z = h @ np.swapaxes(w, -1, -2)
    z += b if b.ndim == 1 else b[:, None, :]
    return z


class EvidenceHead:
    """Dense map from one view's features to nonnegative class evidence.

    A head holds (out, in) weights and (out,) biases per layer. A stack of G
    heads of one input dimension holds (G, out, in) and (G, out) instead and
    maps (G, N, d) features to (G, N, K) evidence; every method serves both.
    """

    def __init__(self, weights, biases):
        # np.asarray keeps a float64 array as it is, so a head over views of
        # a model's parameter vector stays a view
        self.weights = [np.asarray(_numeric(w, f"layer {i} weights"), float) for i, w in enumerate(weights)]
        self.biases = [np.asarray(_numeric(b, f"layer {i} bias"), float) for i, b in enumerate(biases)]
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("inconsistent head layers")

    @classmethod
    def initialize(cls, in_dim: int, hidden, num_classes: int, rng) -> "EvidenceHead":
        weights, biases = [], []
        for fan_in, fan_out in _layer_sizes(in_dim, hidden, num_classes):
            r = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-r, r, size=(fan_out, fan_in)))
            biases.append(rng.uniform(-r, r, size=fan_out))
        return cls(weights, biases)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evidence for (N, d) features as (N, K); a 1-d input gives (K,)."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping activations for backward()."""
        x = np.asarray(x, dtype=float)
        acts = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = _affine(h, w, b)
            np.tanh(h, out=h)
            acts.append(h)
        z_out = _affine(h, self.weights[-1], self.biases[-1])
        return _softplus(z_out), (acts, z_out)

    def backward(self, cache, grad_evidence: np.ndarray, out=None):
        """Parameter gradients for an upstream d loss / d evidence.

        With (N, K) upstream gradients, or (G, N, K) for a stack, the
        parameter gradients are summed over the N samples. `out`, a
        (weights, biases) pair of array lists shaped like the parameters,
        receives the gradients in place and is returned.
        """
        acts, z_out = cache
        acts = [np.atleast_2d(a) for a in acts]
        delta = np.atleast_2d(grad_evidence * _sigmoid(z_out))
        layers = len(self.weights)
        grads_w, grads_b = out if out is not None else ([None] * layers, [None] * layers)
        for layer in range(layers - 1, -1, -1):
            grads_w[layer] = np.matmul(np.swapaxes(delta, -1, -2), acts[layer], out=grads_w[layer])
            grads_b[layer] = np.sum(delta, axis=-2, out=grads_b[layer])
            if layer:
                delta = delta @ self.weights[layer]
                delta *= 1.0 - acts[layer] ** 2
        return grads_w, grads_b

    def parameters(self):
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b


class EvidentialModel:
    """V evidence heads plus the training base rate and config.

    The model owns its parameters: the constructor checks the given heads
    against the config and copies their values into one flat vector, laid
    out stack by stack (see the module docstring). `heads[v]` is view v's
    slot in its stack, a 2-D EvidenceHead whose arrays are views into that
    vector, so an in-place edit through it reaches every pass of the model.
    """

    def __init__(self, heads, base_rate: BaseRate, config: ModelConfig):
        if len(heads) != config.num_views:
            raise ValueError(f"head count {len(heads)} is not one head per view ({config.num_views})")
        if base_rate.num_classes != config.num_classes:
            raise ValueError("base rate and config disagree on the number of classes")
        if base_rate.weight != config.prior_weight:
            raise ValueError("base rate weight and config prior_weight disagree")
        self.base_rate = base_rate
        self.config = config
        groups = {}
        for v, dim in enumerate(config.view_dims):
            groups.setdefault(dim, []).append(v)
        self._groups = list(groups.values())
        self._params = np.zeros(sum(
            fan_out * (fan_in + 1)
            for dim in config.view_dims
            for fan_in, fan_out in _layer_sizes(dim, config.hidden, config.num_classes)
        ))
        self._stacks = [EvidenceHead(w, b) for w, b in self._stack_arrays(self._params)]
        self.heads = [None] * config.num_views
        for stack, group in zip(self._stacks, self._groups):
            for g, v in enumerate(group):
                self.heads[v] = EvidenceHead([w[g] for w in stack.weights], [b[g] for b in stack.biases])
        for v, (own, given) in enumerate(zip(self.heads, heads)):
            if len(given.weights) != len(own.weights):
                raise ValueError(f"head {v}: a head needs {len(own.weights)} layers")
            for i, (w, b, own_w, own_b) in enumerate(zip(given.weights, given.biases, own.weights, own.biases)):
                if w.shape != own_w.shape or b.shape != own_b.shape:
                    raise ValueError(
                        f"head {v}: layer {i} has weights {w.shape} and bias {b.shape},"
                        f" the config needs {own_w.shape} and {own_b.shape}"
                    )
                if not (np.isfinite(w).all() and np.isfinite(b).all()):
                    raise ValueError(f"head {v}: layer {i} holds non-finite values")
                own_w[...] = w
                own_b[...] = b

    def _stack_arrays(self, flat: np.ndarray) -> list:
        """Per stack, (weights, biases) lists of views into a vector of the parameters' layout."""
        cfg = self.config
        arrays, offset = [], 0
        for group in self._groups:
            g = len(group)
            weights, biases = [], []
            for fan_in, fan_out in _layer_sizes(cfg.view_dims[group[0]], cfg.hidden, cfg.num_classes):
                weights.append(flat[offset : offset + g * fan_out * fan_in].reshape(g, fan_out, fan_in))
                offset += g * fan_out * fan_in
                biases.append(flat[offset : offset + g * fan_out].reshape(g, fan_out))
                offset += g * fan_out
            arrays.append((weights, biases))
        return arrays

    @classmethod
    def initialize(cls, config: ModelConfig, base_rate: BaseRate) -> "EvidentialModel":
        rng = np.random.default_rng(config.seed)
        heads = [
            EvidenceHead.initialize(dim, config.hidden, config.num_classes, rng)
            for dim in config.view_dims
        ]
        return cls(heads, base_rate, config)

    def parameters(self):
        for head in self.heads:
            yield from head.parameters()


def compute_base_rate(labels, num_classes: int, weight: float | None = None) -> BaseRate:
    """Class frequencies of the training labels; weight defaults to K."""
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise ValueError("no labels")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("label outside the configured class range")
    counts = np.bincount(labels, minlength=num_classes)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"class {missing} absent from the labels; its base rate would be 0")
    return BaseRate(counts / counts.sum(), weight)


def _dataset(model: EvidentialModel, data) -> MultiViewDataset:
    """`data` as a dataset of the model's class count and view shapes.

    A plain sequence of samples is stacked into a dataset once, so every
    scoring path reads the same (N, d) arrays. This is the one check of a
    dataset against a model, for training and scoring alike.
    """
    cfg = model.config
    if not isinstance(data, MultiViewDataset):
        samples = tuple(data)
        if not samples:
            raise ValueError("no samples to evaluate")
        data = MultiViewDataset(samples, cfg.num_classes, cfg.view_dims)
    if data.num_classes != cfg.num_classes or data.view_dims != cfg.view_dims:
        raise ValueError(
            f"dataset of {data.num_classes} classes and view shapes {data.view_dims} does not match"
            f" the model's {cfg.num_classes} classes and view shapes {cfg.view_dims}"
        )
    return data


def _stacked(model: EvidentialModel, views) -> list:
    """Per stack, its views' (N, d) features as one (G, N, d) array."""
    return [np.stack([views[v] for v in group]) for group in model._groups]


def _by_view(model: EvidentialModel, outputs) -> np.ndarray:
    """Per-stack (G, N, K) outputs as one (V, N, K) array in view order."""
    out = np.empty((model.config.num_views, *outputs[0].shape[1:]))
    for group, e in zip(model._groups, outputs):
        out[group] = e
    return out


def _view_evidences(model: EvidentialModel, stacked) -> np.ndarray:
    """(V, N, K) evidence from stacked features, one head pass per stack."""
    return _by_view(model, [stack.forward(x) for stack, x in zip(model._stacks, stacked)])


def forward(model: EvidentialModel, sample: MultiViewSample):
    """Evidence, per-view opinions, combined opinion, combined Dirichlet."""
    stacked = _stacked(model, _dataset(model, [sample]).views)
    base = model.base_rate
    evidences = [EvidenceVector(e[0]) for e in _view_evidences(model, stacked)]
    view_opinions = [
        opinion_from_dirichlet(dirichlet_from_evidence(e, base), base) for e in evidences
    ]
    fused = EvidenceVector(combined_evidence([e.evidence for e in evidences], base.weight))
    alpha = dirichlet_from_evidence(fused, base)
    return evidences, view_opinions, opinion_from_dirichlet(alpha, base), alpha


# Overflowing evidence is found from the row sums and raised as
# NonFiniteEvidence, so numpy's warnings on the way there would only be noise.
@np.errstate(over="ignore", invalid="ignore")
def evaluate(model: EvidentialModel, data, override: BaseRate | None = None):
    """(predicted classes, combined uncertainties, expected probabilities).

    Scores a dataset, or any sequence of samples, in one batched pass and
    returns arrays of shapes (N,), (N,) and (N, K). With an override the
    combined evidence is re-anchored to the override's class rates at the
    model's weight W, alpha = e + a'*W, before reading off probabilities; the
    override's weight is not read. Uncertainty is an evidence-only quantity
    and is the same with or without an override. Raises NonFiniteEvidence,
    naming the first such sample, if a sample's combined evidence is not
    finite.
    """
    base = model.base_rate
    anchor = base if override is None else override
    if anchor.num_classes != base.num_classes:
        raise ValueError("base rate override and model disagree on the number of classes")
    ds = _dataset(model, data)
    fused = combined_evidence(_view_evidences(model, _stacked(model, ds.views)), base.weight)
    strength = fused.sum(axis=1)
    alpha = fused + anchor.rates * base.weight
    total = alpha.sum(axis=1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(strength) & np.isfinite(total[:, 0])))
    if bad.size:
        raise NonFiniteEvidence(f"non-finite combined evidence for sample {ds.ids[bad[0]]}")
    return np.argmax(alpha, axis=1), base.weight / (base.weight + strength), alpha / total


def score(model: EvidentialModel, data, override: BaseRate | None = None):
    """(predicted classes, their expected probabilities, combined uncertainties)
    of data; uncertainties are checked to lie in [0, 1]."""
    predicted, uncertainty, probs = evaluate(model, data, override)
    check_unit_interval("uncertainty", uncertainty)
    return predicted, probs[np.arange(predicted.size), predicted], uncertainty


def predict(model: EvidentialModel, sample: MultiViewSample, base_rate_override: BaseRate | None = None):
    """(predicted class, combined uncertainty, expected probabilities) of one sample."""
    classes, uncertainty, probs = evaluate(model, [sample], base_rate_override)
    return int(classes[0]), float(uncertainty[0]), probs[0]


@dataclass(frozen=True)
class TrainingReport:
    """Per-epoch curves; epoch i is measured after update i+1 completes.

    `skipped` is kept for the shape of the `train` output: evidence-space
    fusion never meets total conflict, so every entry is 0.
    """

    train_loss: tuple
    train_acc: tuple
    valid_loss: tuple
    valid_acc: tuple
    skipped: tuple

    def to_dict(self) -> dict:
        return {f.name: list(getattr(self, f.name)) for f in fields(self)}

    @property
    def final_valid_acc(self) -> float:
        return self.valid_acc[-1] if self.valid_acc else float("nan")


def _dataset_eval(model: EvidentialModel, stacked, labels, hot, loss_cfg: LossConfig):
    """Mean overall loss and accuracy on per-stack (G, N, d) features.

    Takes the (N,) labels and their (N, K) one-hot mask. Scores row blocks
    whose loss-only core call passes at most _EVAL_BLOCK values to specfun,
    so peak memory does not grow with the dataset.
    """
    cfg = model.config
    rows = max(1, _EVAL_BLOCK // ((cfg.num_views + 1) * (cfg.num_classes + 3)))
    total, correct = 0.0, 0
    for start in range(0, labels.size, rows):
        block = slice(start, start + rows)
        evidences = _view_evidences(model, [x[:, block] for x in stacked])
        losses, alpha = _overall(evidences, hot[block], model.base_rate, loss_cfg, grad=False)
        total += losses.sum()
        correct += int(np.count_nonzero(np.argmax(alpha, axis=1) == labels[block]))
    return float(total / labels.size), correct / labels.size


# Divergence is found from the losses and raised as TrainingDiverged, so the
# overflow and inf-arithmetic warnings on the way there would only be noise.
@np.errstate(over="ignore", invalid="ignore")
def fit(model: EvidentialModel, train: MultiViewDataset, valid: MultiViewDataset) -> TrainingReport:
    """Adam on the overall objective with a linearly annealed balance factor.

    Batches are drawn by a seeded permutation each epoch; each batch runs as
    one forward and one backward pass per stack of heads around one call of
    the loss core on the batch's (V, B, K) evidence, and Adam steps the flat
    parameter vector along the batch-mean gradient. Raises TrainingDiverged,
    naming the epoch and the first sample, if the objective stops being
    finite.
    """
    cfg = model.config
    train, valid = _dataset(model, train), _dataset(model, valid)
    base = model.base_rate
    beta = DirichletParams(base.rates * base.weight)
    train_x, train_labels = _stacked(model, train.views), train.labels()
    valid_x, valid_labels = _stacked(model, valid.views), valid.labels()
    train_hot, valid_hot = _one_hot(train_labels, cfg.num_classes), _one_hot(valid_labels, cfg.num_classes)
    rng = np.random.default_rng(cfg.seed + 1)  # decouple batch order from init
    params = model._params
    grads = np.zeros_like(params)
    grad_stacks = model._stack_arrays(grads)
    adam_m, adam_v = np.zeros_like(params), np.zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    curves = {"train_loss": [], "train_acc": [], "valid_loss": [], "valid_acc": []}
    for epoch in range(cfg.epochs):
        lam = annealed_lambda(epoch, cfg.anneal_epochs)
        loss_cfg = LossConfig(lam, beta)
        order = rng.permutation(len(train))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            results = [
                stack.forward_cached(np.take(x, batch, axis=1))
                for stack, x in zip(model._stacks, train_x)
            ]
            evidences = _by_view(model, [e for e, _ in results])
            losses, _, ev_grads = _overall(evidences, train_hot[batch], base, loss_cfg)
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, sample {train.ids[batch[bad[0]]]}"
                )
            for stack, group, (_, cache), out in zip(model._stacks, model._groups, results, grad_stacks):
                stack.backward(cache, ev_grads[group], out=out)
            step += 1
            lr_t = cfg.learning_rate * np.sqrt(1.0 - beta2**step) / (1.0 - beta1**step)
            grads /= batch.size
            adam_m *= beta1
            adam_m += (1.0 - beta1) * grads
            adam_v *= beta2
            adam_v += (1.0 - beta2) * grads * grads
            params -= lr_t * adam_m / (np.sqrt(adam_v) + eps)

        tr_loss, tr_acc = _dataset_eval(model, train_x, train_labels, train_hot, loss_cfg)
        va_loss, va_acc = _dataset_eval(model, valid_x, valid_labels, valid_hot, loss_cfg)
        if not (np.isfinite(tr_loss) and np.isfinite(va_loss)):
            raise TrainingDiverged(f"non-finite epoch loss at epoch {epoch}")
        curves["train_loss"].append(tr_loss)
        curves["train_acc"].append(tr_acc)
        curves["valid_loss"].append(va_loss)
        curves["valid_acc"].append(va_acc)

    return TrainingReport(**{name: tuple(c) for name, c in curves.items()}, skipped=(0,) * cfg.epochs)


def save_checkpoint(model: EvidentialModel, path) -> None:
    """Versioned JSON checkpoint; floats keep full round-trip precision.

    The document is written to a temporary file next to `path` and moved
    into place, so `path` holds either the old checkpoint or the new one.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "base_rate": model.base_rate.to_dict(),
        "heads": [
            {
                "layers": [
                    {"weights": w.tolist(), "bias": b.tolist()}
                    for w, b in zip(head.weights, head.biases)
                ]
            }
            for head in model.heads
        ],
    }
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _head_from_doc(head_doc) -> EvidenceHead:
    """A checkpoint's JSON head as arrays; the model's constructor checks them."""
    layers = head_doc.get("layers") if isinstance(head_doc, dict) else None
    if not (isinstance(layers, list) and layers and all(isinstance(layer, dict) for layer in layers)):
        raise ValueError("a head needs a nonempty list of layer objects")
    return EvidenceHead([layer.get("weights") for layer in layers], [layer.get("bias") for layer in layers])


def _model_from_doc(doc: dict) -> EvidentialModel:
    for key in ("config", "base_rate", "heads"):
        if key not in doc:
            raise ValueError(f"missing {key!r}")
    if not isinstance(doc["config"], dict):
        raise ValueError("'config' is not an object")
    config = ModelConfig.from_dict(doc["config"])
    base = BaseRate.from_dict(doc["base_rate"])
    if not isinstance(doc["heads"], list):
        raise ValueError("'heads' is not a list")
    heads = []
    for v, head_doc in enumerate(doc["heads"]):
        try:
            heads.append(_head_from_doc(head_doc))
        except ValueError as exc:
            raise ValueError(f"head {v}: {exc}") from exc
    return EvidentialModel(heads, base, config)


def load_checkpoint(path) -> EvidentialModel:
    """Read a checkpoint, checking its schema and every layer's shape.

    Raises ValueError, naming the path, for anything that is not a
    well-formed checkpoint of this format and version.
    """
    doc = read_json(path, "checkpoint")
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not an evidential model checkpoint")
    if _integer(doc.get("version"), f"{path}: checkpoint version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    try:
        return _model_from_doc(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from exc
