"""Model bundle: configuration, initialization, forward paths, checkpoints.

A bundle ties together the optional internal encoder, the bridge, the
recurrent (or mean-pooling) head, and the classifier, and exposes the
parameters as an ordered (name, tensor) sequence.  Checkpoints store a
versioned header, the JSON-encoded configuration, and the named tensors
as little-endian 32-bit floats, so two identical models produce
byte-identical files.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import heads as hd
from .binfile import BinaryReader, replacing
from .bpe import TokenSequence
from .encoder import (EncoderConfig, EncoderParams, encoder_forward,
                      init_encoder)
from .errors import DataError, DimensionError, ParameterError
from .rng import RandomSource
from .tensor import Tensor

_CHECKPOINT_MAGIC = b"SQCK"
_CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    n_classes: int
    embedding_source: str = "internal"
    encoder: EncoderConfig | None = None
    input_dim: int | None = None
    head_kind: str = "rnn"
    rnn_variant: str = "gru"
    bidirectional: bool = False
    hidden_units: int = 32
    d_rnn: int = 32
    dense_units: int = 32
    dropout: float = 0.1

    def __post_init__(self):
        if self.embedding_source not in ("internal", "imported"):
            raise ParameterError(
                f"unknown embedding source {self.embedding_source!r}")
        if self.embedding_source == "internal":
            if self.encoder is None:
                self.encoder = EncoderConfig()
            if self.input_dim is None:
                self.input_dim = self.encoder.d_model
            if self.input_dim != self.encoder.d_model:
                raise DimensionError(
                    f"bridge input {self.input_dim} differs from encoder "
                    f"width {self.encoder.d_model}")
        else:
            if self.encoder is not None:
                raise ParameterError("imported embeddings cannot carry an encoder")
            if self.input_dim is None:
                raise ParameterError("imported embeddings need input_dim")
        if self.head_kind not in ("rnn", "mean"):
            raise ParameterError(f"unknown head kind {self.head_kind!r}")
        if self.head_kind == "rnn" and self.rnn_variant not in hd.VARIANT_GATES:
            raise ParameterError(f"unknown rnn variant {self.rnn_variant!r}")
        if self.n_classes < 2:
            raise ParameterError(f"need >= 2 classes, got {self.n_classes}")
        if min(self.hidden_units, self.d_rnn, self.dense_units) < 1:
            raise ParameterError("layer widths must be >= 1")

    @property
    def summary_dim(self) -> int:
        if self.head_kind == "mean":
            return self.d_rnn
        return 2 * self.hidden_units if self.bidirectional else self.hidden_units

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
    rng = RandomSource(seed)
    encoder = None
    if config.embedding_source == "internal":
        encoder = init_encoder(config.encoder, rng.derive("encoder"))
    bridge = hd.init_bridge(config.input_dim, config.d_rnn, rng.derive("bridge"))
    cell = None
    if config.head_kind == "rnn":
        maker = hd.init_bicell if config.bidirectional else hd.init_cell
        cell = maker(config.rnn_variant, config.d_rnn, config.hidden_units,
                     rng.derive("cell"))
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


def forward_example(bundle: ModelBundle, example: Example,
                    rng: RandomSource | None = None, training: bool = False,
                    with_loss: bool = False):
    """Encoder (or the imported matrix), then the bundle's head; returns
    (probs, loss), the loss None unless ``with_loss``.  Token input draws
    the head's dropout masks at the padded height, as the encoder does."""
    label = example.label if with_loss else None
    if example.tokens is not None:
        if bundle.encoder is None:
            raise ParameterError("model has no encoder; feed embeddings instead")
        embeddings = encoder_forward(bundle.encoder, example.tokens, rng,
                                     training)
        rows = len(example.tokens.input_ids)
    else:
        embeddings, rows = Tensor(example.matrix), None
    if bundle.config.head_kind == "mean":
        return hd.mean_pool_forward(embeddings, bundle.bridge, bundle.head,
                                    rng, training, label, rows)
    return hd.pipeline_forward(embeddings, bundle.bridge, bundle.cell,
                               bundle.head, rng, training, label, rows)


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


def round_to_checkpoint(bundle: ModelBundle) -> None:
    """Round every parameter in place to the float32 value a checkpoint
    stores, so the bundle predicts exactly as its saved checkpoint will."""
    for _, tensor in bundle.all_named_parameters():
        tensor.data = tensor.data.astype(np.float32).astype(np.float64)


def load_checkpoint(path) -> ModelBundle:
    reader = BinaryReader(path, _CHECKPOINT_MAGIC, "checkpoint")
    (version,) = reader.take("<I")
    if version != _CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    (config_len,) = reader.take("<I")
    config_text = reader.text(config_len)
    try:
        config = ModelConfig.from_dict(json.loads(config_text))
    except (ValueError, TypeError) as exc:
        raise DataError(f"bad checkpoint config: {exc}") from exc
    bundle = init_model(config, seed=0)
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
