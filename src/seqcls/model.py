"""Model bundle: configuration, initialization, forward paths, checkpoints.

A bundle ties together the optional internal encoder, the bridge, the
recurrent (or mean-pooling) head, and the classifier, and exposes the
parameters as an ordered (name, tensor) sequence.  Checkpoints store a
versioned header, the JSON-encoded configuration, and the named tensors
as little-endian 32-bit floats, so two identical models produce
byte-identical files.  Version 2 stores each fused op's weights in the
layout the op runs: one Q/K/V matrix per attention layer and one
stacked P, Q and b per scan direction.  A version-1 file, which kept
them per head and per gate, is refused.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import heads as hd
from . import tensor as tt
from .binfile import BinaryReader, replacing
from .bpe import TokenSequence
from .encoder import (EncoderConfig, EncoderParams, dropout_masks,
                      encoder_forward, init_encoder)
from .errors import DataError, DimensionError, ParameterError
from .rng import RandomSource
from .tensor import Tensor

_CHECKPOINT_MAGIC = b"SQCK"
_CHECKPOINT_VERSION = 2
HEAD_KINDS = ("rnn", "mean")
RNN_VARIANTS = ("vanilla", "lstm", "bilstm", "gru", "bigru")


@dataclass
class ModelConfig:
    """The bundle's shape.  ``encoder`` None means imported embeddings,
    each row ``input_dim`` wide; with an encoder, ``input_dim`` is its
    ``d_model``.  A "bi" ``rnn_variant`` runs its cell both ways."""

    n_classes: int
    encoder: EncoderConfig | None = field(default_factory=EncoderConfig)
    input_dim: int | None = None
    head_kind: str = "rnn"
    rnn_variant: str = "gru"
    hidden_units: int = 32
    d_rnn: int = 32
    dense_units: int = 32
    dropout: float = 0.1

    def __post_init__(self):
        if self.encoder is not None:
            if self.input_dim is None:
                self.input_dim = self.encoder.d_model
            if self.input_dim != self.encoder.d_model:
                raise DimensionError(
                    f"bridge input {self.input_dim} differs from encoder "
                    f"width {self.encoder.d_model}")
        elif self.input_dim is None:
            raise ParameterError("imported embeddings need input_dim")
        if self.head_kind not in HEAD_KINDS:
            raise ParameterError(f"unknown head kind {self.head_kind!r}")
        if self.head_kind == "rnn" and self.rnn_variant not in RNN_VARIANTS:
            raise ParameterError(f"unknown rnn variant {self.rnn_variant!r}")
        if self.n_classes < 2:
            raise ParameterError(f"need >= 2 classes, got {self.n_classes}")
        if min(self.hidden_units, self.d_rnn, self.dense_units) < 1:
            raise ParameterError("layer widths must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def summary_dim(self) -> int:
        if self.head_kind == "mean":
            return self.d_rnn
        return self.hidden_units * (2 if self.rnn_variant.startswith("bi") else 1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        payload = dict(payload)
        if payload.get("encoder") is not None:
            payload["encoder"] = EncoderConfig(**payload["encoder"])
        return cls(**payload)


@dataclass
class ModelBundle:
    config: ModelConfig
    encoder: EncoderParams | None
    bridge: hd.BridgeParams
    cell: hd.RnnCellParams | hd.BiRnnParams | None
    head: hd.ClassifierParams

    def named_parameters(self, freeze_encoder: bool = False):
        if self.encoder is not None and not freeze_encoder:
            yield from self.encoder.named_parameters("encoder.")
        yield from self.bridge.named_parameters("bridge.")
        if self.cell is not None:
            yield from self.cell.named_parameters("cell.")
        yield from self.head.named_parameters("head.")

    def all_named_parameters(self):
        return self.named_parameters(freeze_encoder=False)


def init_model(config: ModelConfig, seed: int) -> ModelBundle:
    return _build_model(config, RandomSource(seed))


class _Unfilled:
    """A stand-in random source whose draws are uninitialized arrays, for
    a bundle whose every tensor is about to be overwritten."""

    def derive(self, tag: str) -> "_Unfilled":
        return self

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return np.empty(shape)


def _build_model(config: ModelConfig, rng) -> ModelBundle:
    encoder = None
    if config.encoder is not None:
        encoder = init_encoder(config.encoder, rng.derive("encoder"))
    bridge = hd.init_bridge(config.input_dim, config.d_rnn, rng.derive("bridge"))
    cell = None
    if config.head_kind == "rnn":
        variant = config.rnn_variant
        maker = hd.init_bicell if variant.startswith("bi") else hd.init_cell
        cell = maker(variant.removeprefix("bi"), config.d_rnn,
                     config.hidden_units, rng.derive("cell"))
    head = hd.init_classifier(config.summary_dim, config.dense_units,
                              config.n_classes, config.dropout,
                              rng.derive("classifier"))
    return ModelBundle(config=config, encoder=encoder, bridge=bridge,
                       cell=cell, head=head)


@dataclass(frozen=True)
class Example:
    """One classification instance: token ids for the internal encoder,
    or a precomputed embedding matrix for the imported path."""

    label: int
    tokens: TokenSequence | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if (self.tokens is None) == (self.matrix is None):
            raise ParameterError("example needs exactly one of tokens or matrix")


def draw_masks(bundle: ModelBundle, example: Example,
               rng: RandomSource | None):
    """One sample's dropout masks in the shape applied, the one place their
    order and the padded height they are drawn at are fixed.

    Drawn from ``rng`` at the padded height of the sample's token ids (an
    imported matrix: its rows), in this order: per encoder layer the
    attention then the FFN mask (``dropout_masks``), then the bridge
    input, then the classifier input (every state row, or the mean head's
    one pooled row).  Returns (encoder masks, ``hd.HeadMasks``): the
    bridge mask cut to the sample's real rows, the classifier mask to the
    summary's entries, picked at the rows ``hd.summary_rows`` names.  The
    encoder masks are None for an imported matrix, and the head masks
    None, like every encoder mask, where nothing is dropped: with ``rng``
    None (no dropout) or a zero rate.
    """
    config = bundle.config
    encoder_masks = None
    if example.tokens is None:
        rows = length = len(example.matrix)
    else:
        rows, length = len(example.tokens.input_ids), example.tokens.length
        encoder_masks = dropout_masks(config.encoder, example.tokens, rng)
    p, width = bundle.head.dropout, config.summary_dim
    # the mean head has one pooled row, which its summary reads
    state_rows, last = (1, 1) if bundle.cell is None else (rows, length)
    bridge = tt.dropout_mask(rng, p, (rows, config.input_dim))
    classifier = tt.dropout_mask(rng, p, (state_rows, width))
    if bridge is None:
        return encoder_masks, None
    read = hd.summary_rows([last], width,
                           isinstance(bundle.cell, hd.BiRnnParams))[0]
    return encoder_masks, hd.HeadMasks(
        bridge=bridge[:length].copy(),
        classifier=classifier[read, np.arange(width)])


def forward_example(bundle: ModelBundle, examples,
                    rng: RandomSource | None = None, *,
                    with_loss: bool = False):
    """Encoder (or the imported matrix) per sample, then the bundle's head
    once over the batch; returns (probs, losses), the losses None unless
    ``with_loss``.  A random source ``rng`` means training-mode dropout;
    None runs without dropout.

    ``examples`` is a list: probs is (B, k) and losses (B,).  A single
    :class:`Example` is the batch of one: probs is its (k,) row and the
    loss a scalar.  Each sample draws its ``draw_masks`` before the next.
    """
    single = isinstance(examples, Example)
    batch = [examples] if single else list(examples)
    sequences, head_masks = [], []
    for example in batch:
        if example.tokens is not None and bundle.encoder is None:
            raise ParameterError("model has no encoder; feed embeddings instead")
        encoder_masks, masks = draw_masks(bundle, example, rng)
        if example.tokens is None:
            sequences.append(Tensor(example.matrix))
        else:
            sequences.append(encoder_forward(bundle.encoder, example.tokens,
                                             encoder_masks))
        head_masks.append(masks)
    if None in head_masks:  # the head drops nothing
        head_masks = None
    labels = [example.label for example in batch] if with_loss else None
    probs, losses = hd.pipeline_forward(sequences, bundle.bridge, bundle.cell,
                                        bundle.head, head_masks, labels)
    if single:
        return (tt.row(probs, 0),
                None if losses is None else hd.average_losses(losses))
    return probs, losses


def save_checkpoint(path, bundle: ModelBundle) -> None:
    config_blob = json.dumps(bundle.config.to_dict(), sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
    named = list(bundle.all_named_parameters())
    with replacing(path) as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", _CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(named)))
        for name, tensor in named:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", tensor.data.ndim))
            for dim in tensor.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())


def load_checkpoint(path) -> ModelBundle:
    reader = BinaryReader(path, _CHECKPOINT_MAGIC, "checkpoint")
    (version,) = reader.take("<I")
    if version != _CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    (config_len,) = reader.take("<I")
    config_text = reader.text(config_len)
    try:
        # the count and name checks below make the file overwrite every
        # tensor, so the bundle is built without drawing its weights
        bundle = _build_model(ModelConfig.from_dict(json.loads(config_text)),
                              _Unfilled())
    except (ValueError, TypeError) as exc:
        raise DataError(f"bad checkpoint config: {exc}") from exc
    expected = dict(bundle.all_named_parameters())
    (count,) = reader.take("<I")
    if count != len(expected):
        raise DataError(
            f"checkpoint holds {count} tensors, model needs {len(expected)}")
    for _ in range(count):
        (name_len,) = reader.take("<H")
        name = reader.text(name_len)
        (ndim,) = reader.take("<B")
        shape = reader.take(f"<{ndim}I")
        # popping makes a repeated name fail like an unknown one
        tensor = expected.pop(name, None)
        if tensor is None:
            raise DataError(
                f"checkpoint tensor {name!r} unknown to the model or repeated")
        if shape != tensor.shape:
            raise DimensionError(
                f"checkpoint tensor {name!r} shape {shape} vs model {tensor.shape}")
        tensor.data = reader.floats(shape)
    reader.finish()
    return bundle
