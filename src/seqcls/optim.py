"""Optimizers and the supervised training loop.

One ``Optimizer`` class runs three first-order methods: AdamW (decoupled
weight decay), NAdam (Nesterov first moment), and RMSprop.  A run sets
only the method, the learning rate and the weight decay, and
``OptimizerConfig`` is the one check of them: a known method, and a
finite learning rate and weight decay, each >= 0.  The moment decay
rates (BETA1 and BETA2 for AdamW and NAdam, RHO for RMSprop) and the
denominator guard EPS are module constants.  Each parameter's
moment arrays (two under AdamW and NAdam, one under RMSprop) are
updated in place, and a step checks every gradient before it touches
anything, so a step that raises on a non-finite gradient changes
nothing.  Weight decay, when on, applies to every trained tensor alike,
biases and layer-norm gains included: there is no exclusion list.

The training loop runs seeded-shuffle mini-batches: each batch is one
``forward_example`` call (the encoder per sample, the head once over
the batch) and one backward pass on its own tape.  A frozen encoder is
a feature extractor: each train and validation line is encoded once,
in inference mode, and the head trains on those rows as it trains on
imported embeddings.  The loop scores the validation split each epoch,
EVAL_CHUNK samples per head call, and keeps the parameters from the
best-validation-accuracy epoch (earliest wins ties).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics as mt
from .encoder import encoder_forward
from .errors import DataError, NumericError, ParameterError
from .heads import average_losses, predict
from .model import Example, ModelBundle, forward_example
from .rng import RandomSource
from .tensor import Tape

OPTIMIZERS = ("adamw", "nadam", "rmsprop")

BETA1 = 0.9
BETA2 = 0.999
RHO = 0.9
EPS = 1e-8

# Samples per head call in ``evaluate``.
EVAL_CHUNK = 16


@dataclass
class OptimizerConfig:
    algorithm: str = "adamw"
    lr: float = 1e-4
    weight_decay: float | None = None

    def __post_init__(self):
        if self.algorithm not in OPTIMIZERS:
            raise ParameterError(f"unknown optimizer {self.algorithm!r}")
        if self.weight_decay is None:
            self.weight_decay = 0.01 if self.algorithm == "adamw" else 0.0
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ParameterError(f"{name} must be finite and >= 0, got {value}")


class Optimizer:
    """The configured method's update, applied to each named parameter;
    ``moments`` holds each one's moments, aligned with ``params``: (first,
    second) under AdamW and NAdam, (second,) under RMSprop."""

    def __init__(self, config: OptimizerConfig, named_params):
        self.config = config
        self.params = list(named_params)
        self.step_count = 0
        count = 1 if config.algorithm == "rmsprop" else 2
        self.moments = [tuple(np.zeros_like(p.data) for _ in range(count))
                        for _, p in self.params]

    def step(self) -> None:
        grads = [tensor.grad for _, tensor in self.params]
        for (name, _), g in zip(self.params, grads):
            if g is not None and not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        c, t = self.config, self.step_count
        for (_, tensor), g, moments in zip(self.params, grads, self.moments):
            if g is None:
                g = np.zeros_like(tensor.data)
            if c.algorithm == "rmsprop":
                v, = moments
                v *= RHO
                v += (1 - RHO) * g * g
                update = c.lr * g / (np.sqrt(v) + EPS)
            else:
                m, v = moments
                m *= BETA1
                m += (1 - BETA1) * g
                v *= BETA2
                v += (1 - BETA2) * g * g
                m_hat = m / (1.0 - BETA1 ** t)
                if c.algorithm == "nadam":
                    m_hat = BETA1 * m_hat + (1 - BETA1) / (1.0 - BETA1 ** t) * g
                update = c.lr * m_hat / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)
            if c.weight_decay > 0.0:
                update = update + c.lr * c.weight_decay * tensor.data
            tensor.data = tensor.data - update

    def zero_grad(self) -> None:
        for _, tensor in self.params:
            tensor.zero_grad()


def make_optimizer(config: OptimizerConfig, named_params) -> Optimizer:
    return Optimizer(config, named_params)


@dataclass
class TrainConfig:
    lr: float = OptimizerConfig.lr
    epochs: int = 5
    batch_size: int = 32
    optimizer: str = OptimizerConfig.algorithm
    seed: int = 0
    weight_decay: float | None = OptimizerConfig.weight_decay
    freeze_encoder: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch size must be >= 1")
        self.optimizer_config()  # raises on a bad method, lr or weight decay

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(algorithm=self.optimizer, lr=self.lr,
                               weight_decay=self.weight_decay)


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_accuracy: float
    val_f1_weighted: float
    wall_seconds: float

    def as_tsv(self) -> str:
        return (f"{self.epoch}\t{self.train_loss:.6f}\t{self.val_accuracy:.6f}"
                f"\t{self.val_f1_weighted:.6f}\t{self.wall_seconds:.3f}")


LOG_HEADER = "epoch\ttrain_loss\tval_accuracy\tval_f1_weighted\twall_seconds"


@dataclass
class TrainResult:
    log: list[EpochLog] = field(default_factory=list)
    best_epoch: int = 0
    best_val_accuracy: float = 0.0


def write_log(path, result: TrainResult) -> None:
    lines = [LOG_HEADER] + [row.as_tsv() for row in result.log]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def evaluate(bundle: ModelBundle, examples: list[Example],
             n_classes: int) -> mt.MetricsReport:
    """Forward-only pass, EVAL_CHUNK samples per head call; returns the
    metric report for the split."""
    if not examples:
        raise DataError("cannot evaluate an empty split")
    y = [ex.label for ex in examples]
    y_hat = []
    for lo in range(0, len(examples), EVAL_CHUNK):
        probs = forward_example(bundle, examples[lo:lo + EVAL_CHUNK])[0]
        y_hat.extend(predict(row) for row in probs.data)
    return mt.report(y, y_hat, n_classes)


def _encoded(bundle: ModelBundle, examples: list[Example]) -> list[Example]:
    """Each token example as its encoder's output rows, computed outside
    any tape and without dropout; a matrix example as it is."""
    return [example if example.tokens is None else
            Example(label=example.label,
                    matrix=encoder_forward(bundle.encoder, example.tokens).data)
            for example in examples]


def train(bundle: ModelBundle, train_examples: list[Example],
          val_examples: list[Example], config: TrainConfig,
          clock=time.perf_counter) -> TrainResult:
    """Epoch loop with seeded shuffling and best-accuracy model retention.

    Each mini-batch is one ``forward_example`` call on one tape.  With a
    frozen encoder, each train and validation line is encoded once, in
    inference mode, before the first epoch.  The bundle is left holding
    the parameters of the best epoch.  ``clock`` exists so
    reproducibility harnesses can inject a deterministic timer.
    """
    if not train_examples or not val_examples:
        raise DataError("training needs non-empty train and validation splits")
    if config.freeze_encoder:
        train_examples = _encoded(bundle, train_examples)
        val_examples = _encoded(bundle, val_examples)
    named = list(bundle.named_parameters(freeze_encoder=config.freeze_encoder))
    optimizer = make_optimizer(config.optimizer_config(), named)
    n_classes = bundle.config.n_classes
    root = RandomSource(config.seed)
    result = TrainResult(best_epoch=0, best_val_accuracy=-1.0)

    for epoch in range(1, config.epochs + 1):
        start = clock()
        shuffle_rng = root.derive(f"shuffle-epoch{epoch}")
        dropout_rng = root.derive(f"dropout-epoch{epoch}")
        order = [train_examples[i] for i in shuffle_rng.permutation(len(train_examples))]
        epoch_loss = 0.0
        for lo in range(0, len(order), config.batch_size):
            optimizer.zero_grad()
            with Tape() as tape:
                losses = forward_example(bundle, order[lo:lo + config.batch_size],
                                         dropout_rng, with_loss=True)[1]
                tape.backward(average_losses(losses))
            epoch_loss += sum(losses.data.tolist())
            optimizer.step()
        val_report = evaluate(bundle, val_examples, n_classes)
        result.log.append(EpochLog(
            epoch=epoch,
            train_loss=epoch_loss / len(order),
            val_accuracy=val_report.accuracy,
            val_f1_weighted=val_report.f1_weighted,
            wall_seconds=clock() - start,
        ))
        # the first epoch always beats -1.0, so it takes the first snapshot
        if val_report.accuracy > result.best_val_accuracy:
            result.best_val_accuracy = val_report.accuracy
            result.best_epoch = epoch
            best_state = [p.data.copy() for _, p in named]

    # the snapshot's arrays are held nowhere else: no copy needed
    for (_, p), data in zip(named, best_state):
        p.data = data
    return result
