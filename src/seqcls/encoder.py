"""Transformer encoder over token ids.

Builds contextual embeddings from token embeddings plus a sinusoidal
positional table, refined by stacked layers of multi-head self-attention
and a position-wise feed-forward network, each wrapped in residual add
and layer normalization (post-norm by default, pre-norm behind a flag).
The stack runs over the real tokens only, one output row each, and a
causal variant restricts each position to its prefix via an additive
mask.  ``encoder_forward`` is one tape op per call.  Its forward runs
array-level rules, each with one copy here or in ``tensor``: the
embedding lookup (``tt.gather_rows_rule``) plus positions, then per
layer multi-head attention (one Q/K/V projection GEMM over one stored
d_model x 3 d_model matrix, a (heads, T, T) score array), the
feed-forward network, and each sublayer's dropout-masked residual add
with its layer norm (``tt.layer_norm_rule``).  Its one backward rule runs
the rules' backward halves in reverse and keeps only the arrays they
read; no intermediate gradient outlives the rule that reads it.
``multi_head_attention`` and ``feed_forward`` are the same rules as
single tape ops.

Also provides span masking and a denoising loss for toy pretraining:
the masked positions' rows go through a vocabulary projection tied to
the input embedding matrix, then the classifier's softmax, per-row
cross-entropy and mean from ``heads``, six tape ops however many
positions are masked.  A small binary format imports precomputed
per-token embeddings produced by any external encoder.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import heads as hd
from . import tensor as tt
from .binfile import BinaryReader, replacing
from .bpe import MASK_ID, TokenSequence
from .errors import DataError, DimensionError, ParameterError
from .rng import RandomSource
from .tensor import Tensor

NEG_INF = float("-inf")
_EMBEDDING_MAGIC = b"SQF1"


@dataclass
class EncoderConfig:
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    vocab_size: int = 512
    max_len: int = 64
    dropout: float = 0.1
    causal: bool = False
    pre_norm: bool = False

    def __post_init__(self):
        if min(self.d_model, self.n_heads, self.vocab_size, self.max_len) < 1:
            raise ParameterError("encoder sizes must be >= 1")
        if self.n_layers < 0:
            raise ParameterError(f"layer count must be >= 0, got {self.n_layers}")
        if self.d_model % self.n_heads != 0:
            raise ParameterError(
                f"d_model {self.d_model} not divisible by {self.n_heads} heads"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def ffn_inner(self) -> int:
        return 4 * self.d_model


@dataclass
class AttentionParams:
    """The Q/K/V projections of every head as one (d_in x 3 width) matrix,
    columns [Q heads | K heads | V heads] with width / n_heads per head,
    plus W_O (width x d_out)."""

    w_qkv: Tensor
    wo: Tensor
    n_heads: int

    def __post_init__(self):
        shape = self.w_qkv.shape
        if (self.n_heads < 1 or len(shape) != 2 or shape[1] % (3 * self.n_heads)
                or self.wo.data.ndim != 2 or self.wo.shape[0] != shape[1] // 3):
            raise DimensionError(
                f"Q/K/V matrix {shape} and W_O {self.wo.shape} do not fit "
                f"{self.n_heads} heads")

    def named_parameters(self, prefix: str = ""):
        yield f"{prefix}w_qkv", self.w_qkv
        yield f"{prefix}wo", self.wo


@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named_parameters(self, prefix: str = ""):
        yield f"{prefix}w1", self.w1
        yield f"{prefix}b1", self.b1
        yield f"{prefix}w2", self.w2
        yield f"{prefix}b2", self.b2


@dataclass
class EncoderLayerParams:
    attn: AttentionParams
    ffn: FeedForwardParams
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    def named_parameters(self, prefix: str = ""):
        yield from self.attn.named_parameters(prefix + "attn.")
        yield from self.ffn.named_parameters(prefix + "ffn.")
        yield f"{prefix}ln1.gain", self.ln1_gain
        yield f"{prefix}ln1.bias", self.ln1_bias
        yield f"{prefix}ln2.gain", self.ln2_gain
        yield f"{prefix}ln2.bias", self.ln2_bias


@dataclass
class EncoderParams:
    config: EncoderConfig
    embedding: Tensor
    positional: np.ndarray
    layers: list[EncoderLayerParams] = field(default_factory=list)

    def named_parameters(self, prefix: str = "encoder."):
        yield f"{prefix}embedding", self.embedding
        for i, layer in enumerate(self.layers):
            yield from layer.named_parameters(f"{prefix}layer{i}.")


def positional_table(max_len: int, d_model: int) -> np.ndarray:
    """Sinusoidal table: P[pos, 2i] = sin(pos/10000^(2i/d)), odd dims cos."""
    positions = np.arange(max_len, dtype=np.float64)[:, None]
    even = np.arange(0, d_model, 2, dtype=np.float64)
    angles = positions / np.power(10000.0, even / d_model)
    table = np.zeros((max_len, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return table


def additive_mask(n: int, valid_len: int | None = None,
                  causal: bool = False) -> np.ndarray:
    """0 where attention is allowed, -inf where it is blocked.

    Rows left with no allowed position are redirected to position 0 so
    the downstream softmax stays well defined.
    """
    mask = np.zeros((n, n), dtype=np.float64)
    if causal:
        rows, cols = np.indices((n, n))
        mask[cols > rows] = NEG_INF
    if valid_len is not None:
        if not 0 <= valid_len <= n:
            raise ParameterError(f"valid length {valid_len} outside [0, {n}]")
        mask[:, valid_len:] = NEG_INF
    dead = np.all(mask == NEG_INF, axis=1)
    mask[dead, 0] = 0.0
    return mask


def multi_head_attention_rule(params: AttentionParams, x: np.ndarray,
                              mask: np.ndarray | None = None):
    """All heads of softmax(QK^T/sqrt(d_k) + M)V over the rows of the array
    ``x``, concatenated, then W_O: one x @ [Wq|Wk|Wv] GEMM, and the scores
    of every head form one (heads, T, T) array.

    Returns the output and ``backward(g, wants_input)``, which accumulates
    the W_QKV and W_O gradients and returns the gradient of ``x`` when
    ``wants_input`` is true, else None.
    """
    w_qkv, wo = params.w_qkv, params.wo
    if x.shape[1] != w_qkv.shape[0]:
        raise DimensionError(
            f"input width {x.shape} vs projection {w_qkv.shape}"
        )
    n = x.shape[0]
    if mask is not None and mask.shape != (n, n):
        raise DimensionError(f"mask {mask.shape} vs scores {(n, n)}")
    heads, width = params.n_heads, w_qkv.shape[1] // 3
    d_k = width // heads
    w = w_qkv.data
    # (3, heads, n, d_k): queries, keys and values of every head
    q, k, v = (x @ w).reshape(n, 3, heads, d_k).transpose(1, 2, 0, 3)
    scale = 1.0 / np.sqrt(d_k)
    scores = (q @ k.transpose(0, 2, 1)) * scale
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    joined = (weights @ v).transpose(1, 0, 2).reshape(n, width)

    def backward(g, wants_input):
        if wo.requires_grad:
            wo.accumulate_grad(joined.T @ g)
        d_context = (g @ wo.data.T).reshape(n, heads, d_k).transpose(1, 0, 2)
        d_weights = d_context @ v.transpose(0, 2, 1)
        dot = (d_weights * weights).sum(axis=-1, keepdims=True)
        d_scores = weights * (d_weights - dot) * scale
        d_qkv = np.stack((d_scores @ k,
                          d_scores.transpose(0, 2, 1) @ q,
                          weights.transpose(0, 2, 1) @ d_context))
        d_proj = d_qkv.transpose(2, 0, 1, 3).reshape(n, 3 * width)
        if w_qkv.requires_grad:
            w_qkv.accumulate_grad(x.T @ d_proj)
        return d_proj @ w.T if wants_input else None

    return joined @ wo.data, backward


def multi_head_attention(params: AttentionParams, x: Tensor,
                         mask: np.ndarray | None = None) -> Tensor:
    """``multi_head_attention_rule`` over the rows of ``x`` as one tape op."""
    data, rule = multi_head_attention_rule(params, x.data, mask)
    return tt.from_rule(data, rule, x, (params.w_qkv, params.wo))


def feed_forward_rule(params: FeedForwardParams, x: np.ndarray):
    """relu(x @ W1 + b1) @ W2 + b2 over the rows of the array ``x``.

    Returns the output and ``backward(g, wants_input)``, which keeps only
    the ReLU output, accumulates the weight and bias gradients and returns
    the gradient of ``x`` when ``wants_input`` is true, else None.
    """
    w1, b1, w2, b2 = params.w1, params.b1, params.w2, params.b2
    d_in, d_inner = w1.shape
    if (x.ndim != 2 or x.shape[1] != d_in or b1.shape != (d_inner,)
            or w2.shape[0] != d_inner or b2.shape != w2.shape[1:]):
        raise DimensionError(
            f"feed-forward shapes incompatible: {x.shape} @ {w1.shape} + "
            f"{b1.shape}, @ {w2.shape} + {b2.shape}")
    inner = np.maximum(x @ w1.data + b1.data, 0.0)

    def backward(g, wants_input):
        if w2.requires_grad:
            w2.accumulate_grad(inner.T @ g)
        if b2.requires_grad:
            b2.accumulate_grad(g.sum(axis=0))
        d_inner = (g @ w2.data.T) * (inner > 0.0)
        if w1.requires_grad:
            w1.accumulate_grad(x.T @ d_inner)
        if b1.requires_grad:
            b1.accumulate_grad(d_inner.sum(axis=0))
        return d_inner @ w1.data.T if wants_input else None

    return inner @ w2.data + b2.data, backward


def feed_forward(params: FeedForwardParams, x: Tensor) -> Tensor:
    """``feed_forward_rule`` over the rows of ``x`` as one tape op."""
    data, rule = feed_forward_rule(params, x.data)
    return tt.from_rule(data, rule, x, (params.w1, params.b1, params.w2,
                                        params.b2))


def _sublayer(rule, x: np.ndarray, keep: np.ndarray | None,
              norm: tuple[Tensor, Tensor], pre_norm: bool, steps: list | None):
    """One residual sublayer over the array ``x``: ``LN(x + keep * F(x))``
    post-norm, ``x + keep * F(LN(x))`` pre-norm, with F the array rule
    ``rule`` and LN the layer norm of ``norm`` = (gain, bias).

    ``keep`` is a ``tt.dropout_mask`` fitted by ``tt.fit_mask``; None drops
    nothing.  Returns the output.  Unless ``steps`` is None, appends the
    sublayer's ``backward(g)``, which returns the gradient of ``x``: the
    residual's plus the sublayer's.  With ``steps`` None each rule's
    saved arrays go once the next rule has run.
    """
    if keep is not None:
        keep = tt.fit_mask(keep, x.shape)
    inner, pre_backward = x, None
    if pre_norm:
        inner, pre_backward = tt.layer_norm_rule(x, *norm)
    a, rule_backward = rule(inner)
    z = x + a if keep is None else x + a * keep
    out, post_backward = z, None
    if not pre_norm:
        out, post_backward = tt.layer_norm_rule(z, *norm)

    def backward(g):
        if post_backward is not None:
            g = post_backward(g, True)
        dx = rule_backward(g if keep is None else g * keep, True)
        if pre_backward is not None:
            dx = pre_backward(dx, True)
        dx += g  # a sum of two terms rounds alike in either order
        return dx

    if steps is not None:
        steps.append(backward)
    return out


def dropout_masks(config: EncoderConfig, rows: int, rng: RandomSource | None,
                  training: bool) -> list:
    """Per layer, the (attention, FFN) ``tt.dropout_mask`` pair for a
    sequence of ``rows`` ids, padding included, drawn in that order."""
    shape = (rows, config.d_model)
    return [(tt.dropout_mask(rng, config.dropout, shape, training),
             tt.dropout_mask(rng, config.dropout, shape, training))
            for _ in range(config.n_layers)]


def encoder_forward(model: EncoderParams, tokens: TokenSequence,
                    masks: list | None = None) -> Tensor:
    """Embed, add positions, then run the layer stack over the real tokens,
    one output row each.  ``masks`` are the ``dropout_masks`` pairs, drawn
    at the padded height; None runs without dropout.

    One tape op over every encoder parameter.  Its backward rule runs the
    sublayers' rules in reverse, passing each layer's input gradient on as
    a local array, and ends with the embedding's.
    """
    config = model.config
    ids = list(tokens.input_ids)
    for tid in ids:
        if not 0 <= tid < config.vocab_size:
            raise DataError(f"token id {tid} outside vocabulary of {config.vocab_size}")
    n, length = len(ids), tokens.length
    if n > config.max_len:
        raise DimensionError(f"sequence length {n} exceeds max {config.max_len}")
    if not 1 <= length <= n:
        raise ParameterError(f"sequence length {length} outside [1, {n}]")
    if masks is None:
        masks = [(None, None)] * config.n_layers
    params = [t for _, t in model.named_parameters()]
    steps = [] if tt.recording(params) else None
    x, embed_backward = tt.gather_rows_rule(model.embedding, ids[:length])
    x += model.positional[:length]
    mask = additive_mask(length, causal=True) if config.causal else None
    for layer, (keep_attn, keep_ffn) in zip(model.layers, masks):
        x = _sublayer(
            lambda h: multi_head_attention_rule(layer.attn, h, mask), x,
            keep_attn, (layer.ln1_gain, layer.ln1_bias), config.pre_norm, steps)
        x = _sublayer(lambda h: feed_forward_rule(layer.ffn, h), x, keep_ffn,
                      (layer.ln2_gain, layer.ln2_bias), config.pre_norm, steps)

    def backward(g):
        for step in reversed(steps):
            g = step(g)
        embed_backward(g)

    return tt.make_output(x, params, backward)


def init_encoder(config: EncoderConfig, rng: RandomSource) -> EncoderParams:
    """Uniform [-0.1, 0.1] embeddings; +-sqrt(6/(fan_in+fan_out)) weights."""

    def weight(fan_in: int, fan_out: int, parts: int = 1) -> Tensor:
        """``parts`` draws of (fan_in x fan_out), joined column-wise."""
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return Tensor(np.concatenate(
            [rng.uniform(-limit, limit, (fan_in, fan_out)) for _ in range(parts)],
            axis=1), requires_grad=True)

    embedding = Tensor(rng.uniform(-0.1, 0.1, (config.vocab_size, config.d_model)),
                       requires_grad=True)
    layers = []
    for _ in range(config.n_layers):
        attn = AttentionParams(
            # one draw per head block, in column order: [Q heads | K | V]
            w_qkv=weight(config.d_model, config.head_dim, 3 * config.n_heads),
            wo=weight(config.d_model, config.d_model),
            n_heads=config.n_heads,
        )
        ffn = FeedForwardParams(
            w1=weight(config.d_model, config.ffn_inner),
            b1=Tensor(np.zeros(config.ffn_inner), requires_grad=True),
            w2=weight(config.ffn_inner, config.d_model),
            b2=Tensor(np.zeros(config.d_model), requires_grad=True),
        )
        layers.append(EncoderLayerParams(
            attn=attn,
            ffn=ffn,
            ln1_gain=Tensor(np.ones(config.d_model), requires_grad=True),
            ln1_bias=Tensor(np.zeros(config.d_model), requires_grad=True),
            ln2_gain=Tensor(np.ones(config.d_model), requires_grad=True),
            ln2_bias=Tensor(np.zeros(config.d_model), requires_grad=True),
        ))
    return EncoderParams(
        config=config,
        embedding=embedding,
        positional=positional_table(config.max_len, config.d_model),
        layers=layers,
    )


def span_mask(tokens: TokenSequence, rng: RandomSource, mask_rate: float,
              mean_span: float = 3.0):
    """Corrupt ~mask_rate of the real tokens with non-overlapping MASK spans.

    Span lengths are geometric with the given mean; the total number of
    masked positions is exactly round(mask_rate * valid_len).  Returns
    the corrupted sequence and (position, original id) targets.
    """
    if not 0.0 <= mask_rate < 1.0:
        raise ParameterError(f"mask rate must be in [0, 1), got {mask_rate}")
    if mean_span < 1.0:
        raise ParameterError(f"mean span must be >= 1, got {mean_span}")
    valid = tokens.length
    budget = int(round(mask_rate * valid))
    ids = list(tokens.input_ids)
    chosen: set[int] = set()
    attempts = 0
    while len(chosen) < budget and attempts < 20 * valid:
        attempts += 1
        length = min(rng.geometric(1.0 / mean_span), budget - len(chosen))
        start = int(rng.integers(0, valid))
        span = range(start, min(start + length, valid))
        if any(pos in chosen for pos in span):
            continue
        chosen.update(span)
    for pos in range(valid):
        if len(chosen) >= budget:
            break
        chosen.add(pos)
    targets = [(pos, ids[pos]) for pos in sorted(chosen)]
    for pos, _ in targets:
        ids[pos] = MASK_ID
    return TokenSequence(ids, valid), targets


def denoising_loss(model: EncoderParams, corrupted: TokenSequence, targets,
                   rng: RandomSource | None = None,
                   training: bool = False) -> Tensor:
    """Mean NLL of the original ids at masked positions: the masked rows
    through the projection tied to the embedding, then the classifier's
    row-wise softmax, cross-entropy and mean; a fixed number of tape ops
    however many positions are masked."""
    targets = list(targets)
    if not targets:
        raise ParameterError("denoising loss needs at least one masked position")
    positions, ids = zip(*targets)
    for pos in positions:
        if not 0 <= pos < corrupted.length:
            raise ParameterError(
                f"masked position {pos} outside the {corrupted.length} real tokens")
    masks = dropout_masks(model.config, len(corrupted.input_ids), rng, training)
    states = encoder_forward(model, corrupted, masks)
    rows = tt.gather_rows(states, positions)
    no_bias = Tensor(np.zeros(model.config.vocab_size))
    probs = tt.softmax(tt.linear(rows, model.embedding, no_bias), axis=-1)
    return hd.average_losses(hd.cross_entropy_loss(probs, ids))


def save_embeddings(path, samples) -> None:
    """Write (matrix, label) pairs: magic 'SQF1', u32 count, then per sample
    u32 n, u32 d, n*d little-endian f32 row-major, u32 label."""
    samples = list(samples)
    with replacing(path) as fh:
        fh.write(_EMBEDDING_MAGIC)
        fh.write(struct.pack("<I", len(samples)))
        for matrix, label in samples:
            arr = np.ascontiguousarray(matrix, dtype="<f4")
            if arr.ndim != 2:
                raise DimensionError(f"embedding matrix must be 2-D, got {arr.shape}")
            fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            fh.write(arr.tobytes())
            fh.write(struct.pack("<I", int(label)))


def load_embeddings(path) -> list[tuple[np.ndarray, int]]:
    reader = BinaryReader(path, _EMBEDDING_MAGIC, "embedding file")
    (count,) = reader.take("<I")
    samples = []
    for _ in range(count):
        matrix = reader.floats(reader.take("<II"))
        (label,) = reader.take("<I")
        samples.append((matrix, label))
    reader.finish()
    return samples
