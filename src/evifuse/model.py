"""Multi-view evidential classifier with small dense evidence heads.

One head per view maps that view's features through tanh hidden layers to a
softplus output, so evidence is nonnegative for every input. Heads are
trained jointly by Adam on the overall evidential objective; gradients flow
through the closed-form evidence fusion back into every head. Training and
evaluation run on whole (N, d) feature matrices, one matmul per layer.
Everything is seeded and reductions are ordered, so a config plus data
determines the trained model bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .data import MultiViewDataset, MultiViewSample, read_json
from .dirichlet import BaseRate, DirichletParams, EvidenceVector, combined_evidence
from .losses import LossConfig, annealed_lambda, overall_loss_and_grad, overall_loss_rows
from .opinions import dirichlet_from_evidence, opinion_from_dirichlet

CHECKPOINT_FORMAT = "evifuse-model"
CHECKPOINT_VERSION = 1

# Row-block size of the per-epoch evaluation, in special-function arguments.
# A loss-only call over r rows hands specfun's kernel (V+1) * r * (K + 3)
# values (S, alpha_label, the masked alphas and their sum), and the kernel
# holds about a dozen temporaries of that length, so a block needs about
# 400 KB whatever the dataset size.
_EVAL_BLOCK = 4096


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
        k, v = int(self.num_classes), int(self.num_views)
        if k < 2:
            raise ValueError("need at least two classes")
        if v < 2:
            raise ValueError("need at least two views")
        dims = tuple(int(d) for d in self.view_dims)
        if len(dims) != v or any(d < 1 for d in dims):
            raise ValueError("view_dims must list one positive dimension per view")
        hidden = tuple(int(h) for h in self.hidden)
        if any(h < 1 for h in hidden):
            raise ValueError("hidden layer sizes must be positive")
        w = float(self.prior_weight) if self.prior_weight is not None else float(k)
        if not np.isfinite(w) or w <= 0.0:
            raise ValueError("prior weight must be positive")
        lr = float(self.learning_rate)
        if not np.isfinite(lr) or lr < 0.0:
            raise ValueError(f"learning rate must be finite and nonnegative, not {lr}")
        if int(self.epochs) < 0 or int(self.batch_size) < 1:
            raise ValueError("bad epochs/batch_size")
        anneal = int(self.anneal_epochs) if self.anneal_epochs is not None else max(1, int(self.epochs))
        if anneal < 1:
            raise ValueError("anneal_epochs must be at least 1")
        object.__setattr__(self, "num_classes", k)
        object.__setattr__(self, "num_views", v)
        object.__setattr__(self, "view_dims", dims)
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "prior_weight", w)
        object.__setattr__(self, "learning_rate", lr)
        object.__setattr__(self, "epochs", int(self.epochs))
        object.__setattr__(self, "batch_size", int(self.batch_size))
        object.__setattr__(self, "anneal_epochs", anneal)
        object.__setattr__(self, "seed", int(self.seed))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        """The config a `to_dict` record describes; an absent optional key takes its default.

        A key that names no field is a ValueError; a missing key of a field
        without a default is a KeyError naming it.
        """
        declared = {f.name: f for f in fields(cls)}
        for key in obj:
            if key not in declared:
                raise ValueError(f"unknown config key {key!r}")
        for name, f in declared.items():
            if name not in obj and f.default is MISSING:
                raise KeyError(name)
        return cls(**obj)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class EvidenceHead:
    """Dense map from one view's features to nonnegative class evidence."""

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("inconsistent head layers")

    @classmethod
    def initialize(cls, in_dim: int, hidden, num_classes: int, rng) -> "EvidenceHead":
        sizes = [int(in_dim), *(int(h) for h in hidden), int(num_classes)]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
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
            h = np.tanh(h @ w.T + b)
            acts.append(h)
        z_out = h @ self.weights[-1].T + self.biases[-1]
        return _softplus(z_out), (acts, z_out)

    def backward(self, cache, grad_evidence: np.ndarray):
        """Parameter gradients for an upstream d loss / d evidence.

        With (N, K) upstream gradients the parameter gradients are summed
        over the N samples.
        """
        acts, z_out = cache
        acts = [np.atleast_2d(a) for a in acts]
        delta = np.atleast_2d(grad_evidence * _sigmoid(z_out))
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = delta.T @ acts[layer]
            grads_b[layer] = delta.sum(axis=0)
            if layer:
                delta = (delta @ self.weights[layer]) * (1.0 - acts[layer] ** 2)
        return grads_w, grads_b

    def parameters(self):
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b


class EvidentialModel:
    """V evidence heads plus the training base rate and config."""

    def __init__(self, heads, base_rate: BaseRate, config: ModelConfig):
        if len(heads) != config.num_views:
            raise ValueError("head count must equal the number of views")
        if base_rate.num_classes != config.num_classes:
            raise ValueError("base rate and config disagree on the number of classes")
        if base_rate.weight != config.prior_weight:
            raise ValueError("base rate weight and config prior_weight disagree")
        self.heads = list(heads)
        self.base_rate = base_rate
        self.config = config

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
    """`data` as a dataset of the model's view shapes.

    A plain sequence of samples is stacked into a dataset once, so every
    scoring path reads the same (N, d) arrays.
    """
    cfg = model.config
    if not isinstance(data, MultiViewDataset):
        samples = tuple(data)
        if not samples:
            raise ValueError("no samples to evaluate")
        data = MultiViewDataset(samples, cfg.num_classes, cfg.view_dims)
    if data.view_dims != cfg.view_dims:
        raise ValueError(f"dataset view shapes {data.view_dims} do not match the model's {cfg.view_dims}")
    return data


def _view_evidences(model: EvidentialModel, views) -> list:
    return [head.forward(x) for head, x in zip(model.heads, views)]


def forward(model: EvidentialModel, sample: MultiViewSample):
    """Evidence, per-view opinions, combined opinion, combined Dirichlet."""
    views = _dataset(model, [sample]).views
    base = model.base_rate
    evidences = [EvidenceVector(e[0]) for e in _view_evidences(model, views)]
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
    combined evidence is re-anchored to the new base rate before reading off
    probabilities; uncertainty is an evidence-only quantity and keeps the
    training base rate's weight. Raises NonFiniteEvidence, naming the first
    such sample, if a sample's combined evidence is not finite.
    """
    base = model.base_rate
    anchor = base if override is None else override
    if anchor.num_classes != base.num_classes:
        raise ValueError("base rate override and model disagree on the number of classes")
    ds = _dataset(model, data)
    fused = combined_evidence(_view_evidences(model, ds.views), base.weight)
    strength = fused.sum(axis=1)
    alpha = fused * (anchor.weight / base.weight) + anchor.rates * anchor.weight
    total = alpha.sum(axis=1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(strength) & np.isfinite(total[:, 0])))
    if bad.size:
        raise NonFiniteEvidence(f"non-finite combined evidence for sample {ds.ids[bad[0]]}")
    return np.argmax(alpha, axis=1), base.weight / (base.weight + strength), alpha / total


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


def _dataset_eval(model: EvidentialModel, views, labels, loss_cfg: LossConfig):
    """Mean overall loss and accuracy on stacked per-view features.

    Scores row blocks whose loss-only call passes at most _EVAL_BLOCK values
    to specfun, so peak memory does not grow with the dataset.
    """
    cfg = model.config
    rows = max(1, _EVAL_BLOCK // ((cfg.num_views + 1) * (cfg.num_classes + 3)))
    total, correct = 0.0, 0
    for start in range(0, labels.size, rows):
        block = slice(start, start + rows)
        evidences = _view_evidences(model, [x[block] for x in views])
        losses, alpha = overall_loss_rows(evidences, model.base_rate, labels[block], loss_cfg)
        total += losses.sum()
        correct += int(np.count_nonzero(np.argmax(alpha, axis=1) == labels[block]))
    return float(total / labels.size), correct / labels.size


# Divergence is found from the losses and raised as TrainingDiverged, so the
# overflow and inf-arithmetic warnings on the way there would only be noise.
@np.errstate(over="ignore", invalid="ignore")
def fit(model: EvidentialModel, train: MultiViewDataset, valid: MultiViewDataset) -> TrainingReport:
    """Adam on the overall objective with a linearly annealed balance factor.

    Batches are drawn by a seeded permutation each epoch; each batch runs as
    one forward, loss+gradient and backward pass, and the parameter gradient
    is the batch mean. Raises TrainingDiverged, naming the epoch and the
    first sample, if the objective stops being finite.
    """
    cfg = model.config
    for ds in (train, valid):
        if ds.num_classes != cfg.num_classes or ds.view_dims != cfg.view_dims:
            raise ValueError("dataset shape does not match the model config")
    base = model.base_rate
    beta = DirichletParams(base.rates * base.weight)
    train_views, train_labels = train.views, train.labels()
    valid_views, valid_labels = valid.views, valid.labels()
    rng = np.random.default_rng(cfg.seed + 1)  # decouple batch order from init
    params = list(model.parameters())
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    curves = {"train_loss": [], "train_acc": [], "valid_loss": [], "valid_acc": []}
    for epoch in range(cfg.epochs):
        lam = annealed_lambda(epoch, cfg.anneal_epochs)
        loss_cfg = LossConfig(lam, beta)
        order = rng.permutation(len(train))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            results = [h.forward_cached(x[batch]) for h, x in zip(model.heads, train_views)]
            losses, ev_grads = overall_loss_and_grad(
                [e for e, _ in results], base, train_labels[batch], loss_cfg
            )
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, sample {train.ids[batch[bad[0]]]}"
                )
            grads = []
            for head, (_, cache), g_e in zip(model.heads, results, ev_grads):
                grads_w, grads_b = head.backward(cache, g_e)
                for gw, gb in zip(grads_w, grads_b):
                    grads += [gw, gb]
            step += 1
            lr_t = cfg.learning_rate * np.sqrt(1.0 - beta2**step) / (1.0 - beta1**step)
            for p, g, m, v in zip(params, grads, adam_m, adam_v):
                g /= batch.size
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * g * g
                p -= lr_t * m / (np.sqrt(v) + eps)

        tr_loss, tr_acc = _dataset_eval(model, train_views, train_labels, loss_cfg)
        va_loss, va_acc = _dataset_eval(model, valid_views, valid_labels, loss_cfg)
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
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _head_from_doc(head_doc, sizes) -> EvidenceHead:
    layers = head_doc.get("layers") if isinstance(head_doc, dict) else None
    if not isinstance(layers, list) or len(layers) != len(sizes) - 1:
        raise ValueError(f"a head needs {len(sizes) - 1} layers")
    weights, biases = [], []
    for i, (layer, fan_in, fan_out) in enumerate(zip(layers, sizes[:-1], sizes[1:])):
        if not isinstance(layer, dict):
            raise ValueError(f"layer {i} is not an object")
        w = np.array(layer.get("weights"), dtype=float)
        b = np.array(layer.get("bias"), dtype=float)
        if w.shape != (fan_out, fan_in) or b.shape != (fan_out,):
            raise ValueError(
                f"layer {i} has weights {w.shape} and bias {b.shape},"
                f" the config needs {(fan_out, fan_in)} and {(fan_out,)}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError(f"layer {i} holds non-finite values")
        weights.append(w)
        biases.append(b)
    return EvidenceHead(weights, biases)


def _model_from_doc(doc: dict) -> EvidentialModel:
    for key in ("config", "base_rate", "heads"):
        if key not in doc:
            raise ValueError(f"missing {key!r}")
    if not isinstance(doc["config"], dict):
        raise ValueError("'config' is not an object")
    config = ModelConfig.from_dict(doc["config"])
    base = BaseRate.from_dict(doc["base_rate"])
    heads_doc = doc["heads"]
    if not isinstance(heads_doc, list) or len(heads_doc) != config.num_views:
        raise ValueError(f"need one head per view ({config.num_views})")
    heads = []
    for v, (head_doc, dim) in enumerate(zip(heads_doc, config.view_dims)):
        try:
            heads.append(_head_from_doc(head_doc, [dim, *config.hidden, config.num_classes]))
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
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    try:
        return _model_from_doc(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: malformed checkpoint: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from exc
