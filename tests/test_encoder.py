"""Tests for the transformer encoder stack and its pretraining utilities."""

import contextlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from seqcls import encoder as enc
from seqcls import heads as hd
from seqcls import tensor as tt
from seqcls.bpe import MASK_ID, PAD_ID, TokenSequence
from seqcls.errors import DataError, DimensionError, ParameterError
from seqcls.rng import RandomSource
from seqcls.tensor import Tensor
from test_heads import PADDED_RECURRENCES, summary_of
from test_tensor import (add, clip_min, fit_mask, log, matvec, neg, pick,
                         scale, separate_masks)

NEG_INF = float("-inf")


def make_tokens(ids, valid_len):
    return TokenSequence(list(ids), valid_len)


def mean_of(x):
    return scale(tt.sum_all(x), 1.0 / x.size)


def small_config(**overrides):
    defaults = dict(d_model=4, n_heads=2, n_layers=1, vocab_size=16,
                    max_len=6, dropout=0.0)
    defaults.update(overrides)
    return enc.EncoderConfig(**defaults)


@pytest.fixture(params=["post-norm"])
def norm_placement(request):
    """The encoder's one layer-norm placement. Cases that once ran per
    placement keep it as the first part of their ids, so a second
    placement comes back as a second param without renaming them."""
    return request.param


def transpose(x):
    """2-D transpose as a tape op; only the reference attention uses it."""
    if x.data.ndim != 2:
        raise DimensionError(f"transpose needs a 2-D tensor, got {x.shape}")

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g.T)

    return tt.make_output(x.data.T, (x,), backward)


def slice_rows(x, start, stop):
    """Rows [start, stop) of a 2-D tensor as a tape op."""
    if x.data.ndim != 2:
        raise DimensionError(f"slice_rows needs a 2-D tensor, got {x.shape}")

    def backward(g):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            dx[start:stop] = g
            x.accumulate_grad(dx)

    return tt.make_output(x.data[start:stop].copy(), (x,), backward)


def reference_attention(q, k, v, mask=None):
    """Scaled dot-product attention, softmax(QK^T/sqrt(d_k) + M)V, as a
    graph of elementary tape ops: the oracle for the fused op."""
    if q.shape[1] != k.shape[1]:
        raise DimensionError(f"query width {q.shape} vs key width {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise DimensionError(f"key rows {k.shape} vs value rows {v.shape}")
    d_k = q.shape[1]
    scores = scale(tt.matmul(q, transpose(k)), 1.0 / np.sqrt(d_k))
    if mask is not None:
        if mask.shape != scores.shape:
            raise DimensionError(f"mask {mask.shape} vs scores {scores.shape}")
        scores = add(scores, Tensor(mask))
    weights = tt.softmax(scores, axis=-1)
    return tt.matmul(weights, v)


def head_projections(params):
    """Each head's (Wq, Wk, Wv), column blocks of the stacked Q/K/V
    matrix read out through ``transpose`` and ``slice_rows``."""
    width = params.w_qkv.shape[1] // 3
    d_k = width // params.n_heads
    columns = transpose(params.w_qkv)
    return [[transpose(slice_rows(columns, start, start + d_k))
             for start in (i * d_k, width + i * d_k, 2 * width + i * d_k)]
            for i in range(params.n_heads)]


def reference_multi_head_attention(params, x, mask=None):
    """The per-head composition the fused ``multi_head_attention`` replaced."""
    heads = [reference_attention(tt.matmul(x, wq), tt.matmul(x, wk),
                                 tt.matmul(x, wv), mask)
             for wq, wk, wv in head_projections(params)]
    joined = heads[0]
    for head in heads[1:]:
        joined = tt.concat(joined, head, axis=1)
    return tt.matmul(joined, params.wo)


def reference_feed_forward(params, x):
    """relu(x @ W1 + b1) @ W2 + b2 as a graph of elementary tape ops: the
    oracle for the fused ``feed_forward``."""
    inner = tt.relu(add(tt.matmul(x, params.w1), params.b1))
    return add(tt.matmul(inner, params.w2), params.b2)


def out_of_place_attention_rule(params, x, mask=None):
    """``enc.multi_head_attention_rule`` as it was before it ran in place
    and recomputed its weights: the backward holds the (heads, T, T)
    weights and the joined head outputs."""
    w_qkv, wo = params.w_qkv, params.wo
    n = x.shape[0]
    heads, width = params.n_heads, w_qkv.shape[1] // 3
    d_k = width // heads
    w = w_qkv.data
    q, k, v = (x @ w).reshape(n, 3, heads, d_k).transpose(1, 2, 0, 3)
    scale = 1.0 / np.sqrt(d_k)
    scores = (q @ k.transpose(0, 2, 1)) * scale
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    joined = (weights @ v).transpose(1, 0, 2).reshape(n, width)

    def backward(g):
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
        return d_proj @ w.T

    return joined @ wo.data, backward


def out_of_place_feed_forward_rule(params, x):
    """``enc.feed_forward_rule`` as it was before it ran in place and
    recomputed its ReLU output: its backward holds that output."""
    w1, b1, w2, b2 = params.w1, params.b1, params.w2, params.b2
    inner = np.maximum(x @ w1.data + b1.data, 0.0)

    def backward(g):
        if w2.requires_grad:
            w2.accumulate_grad(inner.T @ g)
        if b2.requires_grad:
            b2.accumulate_grad(g.sum(axis=0))
        d_inner = (g @ w2.data.T) * (inner > 0.0)
        if w1.requires_grad:
            w1.accumulate_grad(x.T @ d_inner)
        if b1.requires_grad:
            b1.accumulate_grad(d_inner.sum(axis=0))
        return d_inner @ w1.data.T

    return inner @ w2.data + b2.data, backward


def out_of_place_layer_norm_rule(z, gain, bias):
    """``tt.layer_norm_rule`` as it was before it ran in place."""
    d = z.shape[-1]
    c = z - z.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((c * c).sum(axis=-1, keepdims=True) / d + 1e-5)
    xhat = c * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        gx = g * gain.data
        m1 = gx.sum(axis=-1, keepdims=True) / d
        m2 = (gx * xhat).sum(axis=-1, keepdims=True) / d
        return inv * (gx - m1 - xhat * m2)

    return data, backward


def out_of_place_sublayer(rule, x, keep, norm):
    """``enc._sublayer`` over the out-of-place layer norm, with its masked
    residual out of place; returns the output and ``backward(g)``."""
    a, rule_backward = rule(x)
    z = x + a if keep is None else x + a * keep
    out, norm_backward = out_of_place_layer_norm_rule(z, *norm)

    def backward(g):
        g = norm_backward(g)
        dx = rule_backward(g if keep is None else g * keep)
        dx += g
        return dx

    return out, backward


def handed_input(rule):
    """An out-of-place rule, whose backward holds its input, called as the
    in-place rules are: its ``backward(g, x)`` is handed the input too,
    and ignores it."""

    def handed(*args):
        out, backward = rule(*args)
        return out, lambda g, _: backward(g)

    return handed


def out_of_place_bridge_forward(bridge, sequences, keeps=None):
    """``hd.bridge_forward`` as it was before its backward held masks as
    bytes: it holds the float masks and the masked, zero-padded input."""
    w, b = bridge.w, bridge.b
    d_in, d_rnn = w.shape
    lengths = [len(s.data) for s in sequences]
    x = np.zeros((len(sequences), max(lengths), d_in))
    for i, s in enumerate(sequences):
        x[i, :lengths[i]] = s.data if keeps is None else s.data * keeps[i]
    flat = x.reshape(-1, d_in)
    data = (flat @ w.data).reshape(*x.shape[:2], d_rnn) + b.data

    def backward(g):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 1)))
        g2 = g.reshape(-1, d_rnn)
        dx = (g2 @ w.data.T).reshape(x.shape)
        for i, s in enumerate(sequences):
            if s.requires_grad:
                rows = dx[i, :lengths[i]]
                s.accumulate_grad(rows if keeps is None else rows * keeps[i])
        if w.requires_grad:
            w.accumulate_grad(flat.T @ g2)

    return tt.make_output(data, (*sequences, w, b), backward)


def out_of_place_scan(cell, sequences, lengths, reverse):
    """``hd._scan`` as it was before its backward gathered the input rows
    again: it holds them.  It runs the padded-grid recurrences of
    ``tests/test_heads.py``."""
    lengths = np.asarray(lengths, dtype=np.intp)
    p, q, b = cell.p.data, cell.q.data, cell.b.data
    batch, hidden = len(lengths), cell.hidden
    order = np.argsort(-lengths, kind="stable")
    step, slot = np.nonzero(np.arange(lengths.max())[:, None] < lengths[order])
    sample = order[slot]
    row = lengths[sample] - 1 - step if reverse else step
    running = np.bincount(step)
    x = sequences.data[sample, row]
    gx = np.zeros((len(running), batch, len(b)))
    gx[step, slot] = x @ p.T + b
    recur, recur_backward = PADDED_RECURRENCES[cell.variant]
    hs, saved = recur(gx, q, running)
    data = np.zeros((*sequences.shape[:2], hidden))
    data[sample, row] = hs[step + 1, slot]

    def backward(g):
        dh = np.zeros((len(running), batch, hidden))
        dh[step, slot] = g[sample, row]
        da, dq = recur_backward(dh, q, hs, saved, running)
        da = da[step, slot]
        for param, grad in ((cell.p, da.T @ x), (cell.q, dq),
                            (cell.b, da.sum(axis=0))):
            if param.requires_grad:
                param.accumulate_grad(grad)
        if sequences.requires_grad:
            dx = np.zeros(sequences.shape)
            dx[sample, row] = da @ p
            sequences.accumulate_grad(dx)

    return tt.make_output(data, (sequences, cell.p, cell.q, cell.b), backward)


def reference_layer_forward(layer, x, mask, keep_attn, keep_ffn):
    """The layer the fused sublayers replaced: one tape op per residual
    add, dropout, layer norm and FFN step, 12 per layer."""
    a = tt.dropout(enc.multi_head_attention(layer.attn, x, mask), keep_attn)
    x = tt.layer_norm(add(x, a), layer.ln1_gain, layer.ln1_bias)
    f = tt.dropout(reference_feed_forward(layer.ffn, x), keep_ffn)
    return tt.layer_norm(add(x, f), layer.ln2_gain, layer.ln2_bias)


def add_norm(x, a, keep, norm):
    """A sublayer's residual tail as one tape op: the layer norm of
    ``x + keep * a`` with ``norm`` = (gain, bias).  ``keep`` is a
    ``tt.dropout_mask``, a taller one applying its top rows
    (``fit_mask``); None drops nothing.
    The rule hands ``x`` its gradient before ``a``, the order the unfused
    residual add used."""
    if a.shape != x.shape:
        raise DimensionError(f"residual shapes incompatible: {x.shape} + {a.shape}")
    if keep is None:
        z = x.data + a.data
    else:
        keep = fit_mask(keep, a.shape)
        z = x.data + a.data * keep
    data, norm_backward, _ = tt.layer_norm_rule(z, *norm)

    def backward(g):
        g = norm_backward(g)
        if x.requires_grad:
            x.accumulate_grad(g)
        if a.requires_grad:
            a.accumulate_grad(g if keep is None else g * keep)

    return tt.make_output(data, (x, a, *norm), backward)


def layer_forward(layer, x, mask, keep_attn, keep_ffn):
    """The layer as a graph of tape ops, the one-op encoder's oracle:
    attention, add-norm, FFN and add-norm, 4 ops."""
    ln1 = (layer.ln1_gain, layer.ln1_bias)
    ln2 = (layer.ln2_gain, layer.ln2_bias)
    x = add_norm(x, enc.multi_head_attention(layer.attn, x, mask), keep_attn,
                 ln1)
    return add_norm(x, enc.feed_forward(layer.ffn, x), keep_ffn, ln2)


def graph_encoder_forward(model, tokens, masks=None, layer=layer_forward):
    """``encoder_forward`` as a graph of tape ops: the embedding lookup and
    position add, then ``layer`` per layer, over the real tokens.  Masks
    drawn at the padded height (``padded_masks``) apply their top rows."""
    config, length = model.config, tokens.length
    if masks is None:
        masks = [(None, None)] * config.n_layers
    x = add(tt.gather_rows(model.embedding, list(tokens.input_ids[:length])),
            Tensor(model.positional[:length]))
    mask = enc.additive_mask(length, causal=True) if config.causal else None
    for params, keep in zip(model.layers, masks):
        x = layer(params, x, mask, *keep)
    return x


def reference_encoder_forward(model, tokens, rng=None):
    """The padded forward ``encoder_forward`` replaced: every id, PADs
    included, is embedded, the PAD columns are masked out of attention,
    and the layers are the unfused ones, dropping out when given ``rng``;
    returns all ``len(tokens.input_ids)`` rows."""
    config = model.config
    n = len(tokens.input_ids)
    x = add(tt.gather_rows(model.embedding, list(tokens.input_ids)),
            Tensor(model.positional[:n]))
    mask = enc.additive_mask(n, valid_len=tokens.length, causal=config.causal)
    for layer in model.layers:
        keep = [None, None]
        if rng is not None and config.dropout > 0.0:
            keep = separate_masks(rng, config.dropout, [(n, config.d_model)] * 2)
        x = reference_layer_forward(layer, x, mask, *keep)
    return x


def padded_masks(config, tokens, rng):
    """Per layer, the (attention, FFN) masks ``enc.dropout_masks`` draws,
    in its order and at the padded height, uncut: the oracles' masks."""
    shape = (len(tokens.input_ids), config.d_model)
    return [(tt.dropout_mask(rng, config.dropout, shape),
             tt.dropout_mask(rng, config.dropout, shape))
            for _ in range(config.n_layers)]


def trimmed_forward(model, tokens, rng=None):
    """``encoder_forward`` with its masks drawn as the model draws them."""
    masks = enc.dropout_masks(model.config, tokens, rng)
    return enc.encoder_forward(model, tokens, masks)


def reference_denoising_loss(model, corrupted, targets):
    """The per-position loop ``denoising_loss`` replaced: each masked row
    through one tied-embedding matvec, softmax and floored log, the
    negated terms summed and scaled by the target count."""
    states = enc.encoder_forward(model, corrupted)
    total = None
    for pos, original_id in targets:
        logits = matvec(model.embedding, tt.row(states, pos))
        probs = tt.softmax(logits, axis=-1)
        nll = neg(log(clip_min(pick(probs, original_id), hd.LOSS_FLOOR)))
        total = nll if total is None else add(total, nll)
    return scale(total, 1.0 / len(targets))


def masked(ids, valid_len, positions):
    """``ids`` with MASK at ``positions``, and the (position, original id)
    targets ``span_mask`` would return for them."""
    corrupted = [MASK_ID if i in positions else t for i, t in enumerate(ids)]
    return (make_tokens(corrupted, valid_len),
            [(pos, ids[pos]) for pos in sorted(positions)])


class TestPositionalEncoding:
    def test_position_zero_alternates_zero_one(self):
        vec = enc.positional_table(6, 4)[0]
        assert np.array_equal(vec, [0.0, 1.0, 0.0, 1.0])

    def test_position_one_d4_reference_values(self):
        vec = enc.positional_table(6, 4)[1]
        expected = [0.841471, 0.540302, 0.010000, 0.999950]
        assert np.allclose(vec, expected, atol=1e-5)

    def test_all_entries_within_unit_interval(self):
        table = enc.positional_table(50, 16)
        assert table.min() >= -1.0 and table.max() <= 1.0


def index_mask(n, valid_len=None, causal=False):
    """``additive_mask`` as it was built from two ``np.indices`` arrays: the
    oracle for the ``np.triu`` causal part."""
    mask = np.zeros((n, n))
    if causal:
        rows, cols = np.indices((n, n))
        mask[cols > rows] = NEG_INF
    if valid_len is not None:
        mask[:, valid_len:] = NEG_INF
    mask[np.all(mask == NEG_INF, axis=1), 0] = 0.0
    return mask


class TestAdditiveMask:
    @pytest.mark.parametrize("n, valid_len", [
        (n, valid_len) for n in (1, 2, 3, 7)
        for valid_len in (None, *range(n + 1))])
    def test_causal_matches_index_oracle(self, n, valid_len):
        mask = enc.additive_mask(n, valid_len, causal=True)
        # the bytes compare the sign bits of the zeros too
        assert mask.tobytes() == index_mask(n, valid_len, True).tobytes()
        if (n, valid_len) == (3, None):
            assert np.array_equal(mask, [[0.0, NEG_INF, NEG_INF],
                                         [0.0, 0.0, NEG_INF],
                                         [0.0, 0.0, 0.0]])

    def test_pad_columns_blocked(self):
        mask = enc.additive_mask(3, valid_len=2)
        assert np.array_equal(mask[:, 2], [NEG_INF] * 3)
        assert np.array_equal(mask[:, :2], np.zeros((3, 2)))

    def test_fully_padded_rows_redirect_to_position_zero(self):
        mask = enc.additive_mask(3, valid_len=0)
        for i in range(3):
            assert mask[i, 0] == 0.0
            assert np.array_equal(mask[i, 1:], [NEG_INF, NEG_INF])

    def test_bad_valid_len_rejected(self):
        with pytest.raises(ParameterError):
            enc.additive_mask(3, valid_len=4)


class TestAttention:
    def test_single_position_returns_value_row(self):
        q = Tensor([[1.0, 2.0]])
        k = Tensor([[0.3, -0.7]])
        v = Tensor([[5.0, -1.0]])
        out = reference_attention(q, k, v)
        assert np.allclose(out.data, v.data)

    def test_identical_keys_average_values(self):
        rng = RandomSource(5)
        q = Tensor(rng.uniform(-1, 1, (3, 2)))
        k = Tensor(np.ones((3, 2)) * 0.4)
        v = Tensor(rng.uniform(-1, 1, (3, 2)))
        out = reference_attention(q, k, v)
        expected = np.tile(v.data.mean(axis=0), (3, 1))
        assert np.allclose(out.data, expected)

    def test_all_masked_rows_attend_position_zero(self):
        rng = RandomSource(6)
        q = Tensor(rng.uniform(-1, 1, (3, 2)))
        k = Tensor(rng.uniform(-1, 1, (3, 2)))
        v = Tensor(rng.uniform(-1, 1, (3, 2)))
        out = reference_attention(q, k, v, enc.additive_mask(3, valid_len=0))
        assert np.allclose(out.data, np.tile(v.data[0], (3, 1)))

    def test_causal_mask_blocks_future_values(self):
        rng = RandomSource(7)
        q = Tensor(rng.uniform(-1, 1, (3, 2)))
        k = Tensor(rng.uniform(-1, 1, (3, 2)))
        base_v = rng.uniform(-1, 1, (3, 2))
        mask = enc.additive_mask(3, causal=True)
        out1 = reference_attention(q, k, Tensor(base_v), mask).data.copy()
        perturbed = base_v.copy()
        perturbed[2] += 10.0
        out2 = reference_attention(q, k, Tensor(perturbed), mask).data
        assert np.array_equal(out1[:2], out2[:2])

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            reference_attention(Tensor([[1.0, 2.0]]), Tensor([[1.0]]), Tensor([[1.0]]))

    def test_mask_shape_mismatch_rejected(self):
        x = Tensor([[1.0, 2.0]])
        with pytest.raises(DimensionError):
            reference_attention(x, x, x, np.zeros((2, 2)))

    def test_gradients_match_finite_differences(self):
        for seed in range(5):
            rng = RandomSource(100 + seed)
            q = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
            k = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
            v = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
            mask = enc.additive_mask(3, causal=(seed % 2 == 0))

            def loss():
                return mean_of(reference_attention(q, k, v, mask))

            assert tt.check_gradients(loss, [q, k, v]) < 1e-4

    def test_transpose_scale_slice(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)

        def loss():
            return tt.sum_all(slice_rows(scale(transpose(x), 0.5), 1, 3))

        assert tt.check_gradients(loss, [x]) < 1e-4


class TestMultiHeadAttention:
    def test_single_head_identity_projections_fix_point(self):
        eye = np.eye(2)
        params = enc.AttentionParams(
            w_qkv=Tensor(np.hstack([eye] * 3)), wo=Tensor(eye), n_heads=1)
        x = Tensor([[0.3, -1.2]])
        out = enc.multi_head_attention(params, x)
        assert np.allclose(out.data, x.data)

    @pytest.mark.parametrize("w_qkv, wo, n_heads", [
        ((4, 10), (4, 4), 2), ((4, 12), (5, 4), 2), ((4, 12), (4, 4), 3),
        ((12,), (4, 4), 2), ((4, 12), (4, 4), 0),
    ], ids=["width-not-three-blocks", "wo-rows", "heads-do-not-divide",
            "not-a-matrix", "no-heads"])
    def test_unstackable_shapes_rejected_at_construction(self, w_qkv, wo,
                                                         n_heads):
        with pytest.raises(DimensionError, match="Q/K/V matrix"):
            enc.AttentionParams(w_qkv=Tensor(np.zeros(w_qkv)),
                                wo=Tensor(np.zeros(wo)), n_heads=n_heads)

    def test_output_shape_is_input_shape(self):
        config = small_config(d_model=8, n_heads=4, n_layers=1)
        model = enc.init_encoder(config, RandomSource(3))
        x = Tensor(RandomSource(4).uniform(-1, 1, (5, 8)))
        out = enc.multi_head_attention(model.layers[0].attn, x)
        assert out.shape == (5, 8)

    def test_heads_decompose_into_single_head_calls(self):
        config = small_config(d_model=4, n_heads=2, n_layers=1)
        model = enc.init_encoder(config, RandomSource(9))
        params = model.layers[0].attn
        x = Tensor(RandomSource(10).uniform(-1, 1, (3, 4)))
        mask = enc.additive_mask(3, valid_len=2)
        combined = enc.multi_head_attention(params, x, mask)
        parts = []
        for wq, wk, wv in head_projections(params):
            head = reference_attention(tt.matmul(x, wq), tt.matmul(x, wk),
                                       tt.matmul(x, wv), mask)
            parts.append(head.data)
        manual = np.concatenate(parts, axis=1) @ params.wo.data
        assert np.allclose(combined.data, manual, atol=1e-12)

    def test_width_mismatch_rejected(self):
        config = small_config(d_model=4, n_heads=2, n_layers=1)
        model = enc.init_encoder(config, RandomSource(2))
        with pytest.raises(DimensionError):
            enc.multi_head_attention(model.layers[0].attn, Tensor(np.ones((2, 3))))

    def test_gradients_match_finite_differences(self):
        config = small_config(d_model=4, n_heads=2, n_layers=1)
        model = enc.init_encoder(config, RandomSource(21))
        params = model.layers[0].attn
        x = Tensor(RandomSource(22).uniform(-1, 1, (3, 4)), requires_grad=True)
        names_and_tensors = list(params.named_parameters())
        tensors = [t for _, t in names_and_tensors] + [x]

        def loss():
            return mean_of(enc.multi_head_attention(params, x))

        assert tt.check_gradients(loss, tensors) < 1e-4


class TestFusedAttention:
    MASKS = {
        "none": lambda n: None,
        "pad": lambda n: enc.additive_mask(n, valid_len=n - 2),
        "causal": lambda n: enc.additive_mask(n, causal=True),
        "dead rows": lambda n: enc.additive_mask(n, valid_len=0),
    }

    @pytest.mark.parametrize("mask_kind", sorted(MASKS))
    def test_matches_per_head_reference(self, mask_kind):
        for seed in range(3):
            rng = RandomSource(200 + seed)
            config = small_config(d_model=8, n_heads=4)
            params = enc.init_encoder(config, rng.derive("enc")).layers[0].attn
            x = Tensor(rng.uniform(-1, 1, (5, 8)), requires_grad=True)
            mask = self.MASKS[mask_kind](5)
            probe = Tensor(rng.uniform(-1, 1, (5, 8)))
            tensors = [t for _, t in params.named_parameters()] + [x]
            results = []
            for attend in (enc.multi_head_attention,
                           reference_multi_head_attention):
                for t in tensors:
                    t.zero_grad()
                with tt.Tape() as tape:
                    out = attend(params, x, mask)
                    tape.backward(tt.sum_all(tt.mul(out, probe)))
                results.append((out.data, [t.grad.copy() for t in tensors]))
            (out, grads), (ref_out, ref_grads) = results
            assert np.abs(out - ref_out).max() <= 1e-10
            for g, ref in zip(grads, ref_grads):
                assert np.abs(g - ref).max() <= 1e-10

    @pytest.mark.parametrize("mask_kind", sorted(MASKS))
    def test_gradients_match_finite_differences(self, mask_kind):
        rng = RandomSource(210)
        params = enc.init_encoder(small_config(), rng.derive("enc")).layers[0].attn
        x = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        mask = self.MASKS[mask_kind](4)
        probe = Tensor(rng.uniform(-1, 1, (4, 4)))
        tensors = [t for _, t in params.named_parameters()] + [x]

        def loss():
            return tt.sum_all(tt.mul(enc.multi_head_attention(params, x, mask),
                                     probe))

        assert tt.check_gradients(loss, tensors) < 1e-4

    def test_one_tape_record(self):
        params = enc.init_encoder(small_config(), RandomSource(211)).layers[0].attn
        with tt.Tape() as tape:
            enc.multi_head_attention(params, Tensor(np.ones((3, 4))))
        assert len(tape) == 1

    def test_mask_shape_mismatch_rejected(self):
        params = enc.init_encoder(small_config(), RandomSource(212)).layers[0].attn
        with pytest.raises(DimensionError):
            enc.multi_head_attention(params, Tensor(np.ones((3, 4))),
                                     np.zeros((2, 2)))


class TestFeedForward:
    def test_inner_width_is_four_d_model(self):
        config = small_config(d_model=4)
        assert config.ffn_inner == 16
        model = enc.init_encoder(config, RandomSource(1))
        assert model.layers[0].ffn.w1.shape == (4, 16)
        assert model.layers[0].ffn.w2.shape == (16, 4)

    def test_zero_weights_yield_bias(self):
        params = enc.FeedForwardParams(
            w1=Tensor(np.zeros((2, 8))), b1=Tensor(np.zeros(8)),
            w2=Tensor(np.zeros((8, 2))), b2=Tensor([0.5, -0.25]))
        out = enc.feed_forward(params, Tensor(np.ones((3, 2))))
        assert np.allclose(out.data, np.tile([0.5, -0.25], (3, 1)))

    def test_gradients_match_finite_differences(self):
        config = small_config(d_model=4, n_heads=1)
        model = enc.init_encoder(config, RandomSource(31))
        ffn = model.layers[0].ffn
        x = Tensor(RandomSource(32).uniform(-1, 1, (2, 4)), requires_grad=True)
        tensors = [t for _, t in ffn.named_parameters()] + [x]
        inner = x.data @ ffn.w1.data + ffn.b1.data
        assert (inner > 0).any() and (inner < 0).any()  # both ReLU branches

        def loss():
            return mean_of(enc.feed_forward(ffn, x))

        assert tt.check_gradients(loss, tensors) < 1e-4

    def test_matches_unfused_graph_bit_for_bit(self):
        rng = RandomSource(34)
        ffn = enc.init_encoder(small_config(d_model=8, n_heads=2),
                               rng.derive("enc")).layers[0].ffn
        for _, t in ffn.named_parameters():
            t.data += rng.uniform(-0.1, 0.1, t.shape)
        x = Tensor(rng.uniform(-1, 1, (5, 8)), requires_grad=True)
        probe = Tensor(rng.uniform(-1, 1, (5, 8)))
        tensors = [t for _, t in ffn.named_parameters()] + [x]
        results = []
        for forward in (enc.feed_forward, reference_feed_forward):
            for t in tensors:
                t.zero_grad()
            with tt.Tape() as tape:
                out = forward(ffn, x)
                tape.backward(tt.sum_all(tt.mul(out, probe)))
            results.append([out.data] + [t.grad.copy() for t in tensors])
        for fused, ref in zip(*results):
            assert np.array_equal(fused, ref)

    def test_width_mismatch_rejected(self):
        ffn = enc.init_encoder(small_config(), RandomSource(36)).layers[0].ffn
        for x in (np.ones((3, 5)), np.ones(4), np.ones((2, 3, 4))):
            with pytest.raises(DimensionError):
                enc.feed_forward(ffn, Tensor(x))


class TestAddNorm:
    """The fused residual tail, ``LN(x + keep * a)``, against the unfused
    graph."""

    @staticmethod
    def operands(seed):
        """x and a (3 x 4), the (gain, bias) pair, a keep mask drawn at a
        padded height of 5 and cut to its top 3 rows, and a probe for the
        loss."""
        rng = RandomSource(seed)
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        gain = Tensor(1.0 + rng.uniform(-0.2, 0.2, 4), requires_grad=True)
        bias = Tensor(rng.uniform(-0.1, 0.1, 4), requires_grad=True)
        keep = tt.dropout_mask(rng, 0.4, (5, 4))[:3]
        probe = Tensor(rng.uniform(-1, 1, (3, 4)))
        return x, a, (gain, bias), keep, probe

    @pytest.mark.usefixtures("norm_placement")
    @pytest.mark.parametrize("dropped", [False, True], ids=["no-keep", "keep"])
    def test_gradients_match_finite_differences(self, dropped):
        x, a, norm, keep, probe = self.operands(400)
        keep = keep if dropped else None
        tensors = [x, a, *norm]

        def loss():
            return tt.sum_all(tt.mul(add_norm(x, a, keep, norm), probe))

        assert tt.check_gradients(loss, tensors) < 1e-4

    @pytest.mark.usefixtures("norm_placement")
    @pytest.mark.parametrize("dropped", [False, True], ids=["no-keep", "keep"])
    def test_matches_unfused_graph_bit_for_bit(self, dropped):
        x, a, norm, keep, probe = self.operands(401)
        keep = keep if dropped else None
        tensors = [x, a, *norm]

        def unfused(x, a, keep, norm):
            return tt.layer_norm(add(x, tt.dropout(a, keep)), *norm)

        results = []
        for forward in (add_norm, unfused):
            for t in tensors:
                t.zero_grad()
            with tt.Tape() as tape:
                out = forward(x, a, keep, norm)
                tape.backward(tt.sum_all(tt.mul(out, probe)))
            results.append([out.data] + [t.grad.copy() for t in tensors])
        for fused, ref in zip(*results):
            assert np.array_equal(fused, ref)

    @staticmethod
    def cut_and_padded(config, tokens, seed):
        """``enc.dropout_masks`` in training, and ``padded_masks`` from the
        same seed; asserts each cut mask is a copy of its padded draw's
        top rows and that both streams end at the same place."""
        rng, replay = RandomSource(seed), RandomSource(seed)
        cut = enc.dropout_masks(config, tokens, rng)
        padded = padded_masks(config, tokens, replay)
        for pair, padded_pair in zip(cut, padded):
            for keep, full in zip(pair, padded_pair):
                assert np.array_equal(keep, full[:tokens.length])
                assert keep.base is None
        assert np.array_equal(rng.uniform(0, 1, 3), replay.uniform(0, 1, 3))
        return cut, padded

    @pytest.mark.usefixtures("norm_placement")
    def test_padded_mask_applies_its_top_rows(self):
        """``enc.dropout_masks`` cuts each mask to the 3 real rows, and the
        encoder applies the cut masks as the layer graph applies the
        padded ones."""
        config = small_config(n_layers=2, dropout=0.4)
        tokens = make_tokens([3, 1, 4, PAD_ID, PAD_ID], 3)
        cut, padded = self.cut_and_padded(config, tokens, 402)
        model = enc.init_encoder(config, RandomSource(403))
        assert np.array_equal(enc.encoder_forward(model, tokens, cut).data,
                              graph_encoder_forward(model, tokens, padded).data)

    def test_padded_mask_is_freed(self, monkeypatch):
        """No padded draw outlives ``enc.dropout_masks``."""
        draws = []
        dropout_mask = tt.dropout_mask

        def watched(*args):
            keep = dropout_mask(*args)
            draws.append(weakref.ref(keep))
            return keep

        monkeypatch.setattr(tt, "dropout_mask", watched)
        tokens = make_tokens([3, 1, 4, 1, PAD_ID, PAD_ID], 4)
        self.cut_and_padded(small_config(n_layers=2, dropout=0.4), tokens, 404)
        # the first four draws are dropout_masks'; the oracle's follow
        assert len(draws) == 8 and all(ref() is None for ref in draws[:4])

    @pytest.mark.usefixtures("norm_placement")
    def test_mask_of_wrong_width_rejected(self):
        x, a, norm, _, _ = self.operands(404)
        for shape in ((5, 5), (3, 3), (2, 4)):
            with pytest.raises(DimensionError, match="dropout mask"):
                add_norm(x, a, np.ones(shape), norm)

    def test_residual_shape_mismatch_rejected(self):
        x, _, norm, _, _ = self.operands(405)
        with pytest.raises(DimensionError, match="residual"):
            add_norm(x, Tensor(np.ones((2, 4))), None, norm)


class TestFusedLayer:
    """``layer_forward``, the layer graph the one-op encoder is checked
    against, against ``reference_layer_forward``, the unfused layer:
    outputs and every parameter gradient bit for bit."""

    @pytest.mark.usefixtures("norm_placement")
    @pytest.mark.parametrize("training", [False, True],
                             ids=["no-masks", "masks"])
    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    def test_matches_unfused_layer_bit_for_bit(self, causal, training):
        config = small_config(d_model=8, n_heads=2, n_layers=2, max_len=8,
                              dropout=0.3, causal=causal)
        rng = RandomSource(500)
        model = enc.init_encoder(config, rng.derive("enc"))
        for _, t in model.named_parameters():
            t.data += rng.uniform(-0.1, 0.1, t.shape)
        tokens = make_tokens([int(i) for i in rng.integers(0, 16, 8)], 5)
        probe = Tensor(rng.uniform(-1, 1, (5, 8)))
        tensors = [t for _, t in model.named_parameters()]
        results = []
        for layer in (layer_forward, reference_layer_forward):
            masks = enc.dropout_masks(config, tokens,
                                      RandomSource(7) if training else None)
            for t in tensors:
                t.zero_grad()
            with tt.Tape() as tape:
                out = graph_encoder_forward(model, tokens, masks, layer)
                tape.backward(tt.sum_all(tt.mul(out, probe)))
            results.append([out.data] + [t.grad.copy() for t in tensors])
        for fused, ref in zip(*results):
            assert np.array_equal(fused, ref)

    @pytest.mark.usefixtures("norm_placement")
    @pytest.mark.parametrize("training", [False, True],
                             ids=["no-masks", "masks"])
    @pytest.mark.parametrize("n_layers", [0, 1, 3])
    def test_records_per_layer(self, n_layers, training):
        """Embedding and positions, then attention, add-norm, FFN and
        add-norm per layer."""
        config = small_config(n_layers=n_layers, dropout=0.3)
        model = enc.init_encoder(config, RandomSource(501))
        tokens = make_tokens([3, 1, 4, 1, 5, PAD_ID], 5)
        masks = enc.dropout_masks(config, tokens,
                                  RandomSource(502) if training else None)
        with tt.Tape() as tape:
            graph_encoder_forward(model, tokens, masks)
        assert len(tape) == 2 + 4 * n_layers


class TestEncoderOp:
    """``encoder_forward``, one tape op, against ``graph_encoder_forward``,
    the layer graph it replaced: outputs and every parameter gradient bit
    for bit."""

    @staticmethod
    def perturbed_model(seed, **overrides):
        config = small_config(d_model=8, n_heads=2, max_len=8, dropout=0.3,
                              **overrides)
        rng = RandomSource(seed)
        model = enc.init_encoder(config, rng.derive("enc"))
        for _, t in model.named_parameters():
            t.data += rng.uniform(-0.1, 0.1, t.shape)
        return model, rng

    @staticmethod
    def outputs_and_gradients(forward, model, tokens, probe, training):
        """The op draws its masks cut to shape, the layer graph at the
        padded height, both from one seed."""
        tensors = [t for _, t in model.named_parameters()]
        draw = (enc.dropout_masks if forward is enc.encoder_forward
                else padded_masks)
        masks = draw(model.config, tokens,
                     RandomSource(7) if training else None)
        for t in tensors:
            t.zero_grad()
        with tt.Tape() as tape:
            out = forward(model, tokens, masks)
            tape.backward(tt.sum_all(tt.mul(out, probe)))
        return [out.data] + [None if t.grad is None else t.grad.copy()
                             for t in tensors]

    @pytest.mark.usefixtures("norm_placement")
    @pytest.mark.parametrize("n_layers", [0, 1, 3])
    @pytest.mark.parametrize("training", [False, True],
                             ids=["no-masks", "masks"])
    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    def test_matches_layer_graph_bit_for_bit(self, causal, training, n_layers):
        model, rng = self.perturbed_model(510 + n_layers, n_layers=n_layers,
                                          causal=causal)
        # a repeated id sums two rows into one embedding gradient row
        tokens = make_tokens([3, 9, 3, 14, 1, 7, PAD_ID, PAD_ID], 6)
        probe = Tensor(rng.uniform(-1, 1, (6, 8)))
        op, graph = (self.outputs_and_gradients(forward, model, tokens, probe,
                                                training)
                     for forward in (enc.encoder_forward,
                                     graph_encoder_forward))
        for fused, ref in zip(op, graph):
            assert np.array_equal(fused, ref)

    @pytest.mark.parametrize("frozen", ["embedding", "layer0", "attention"])
    def test_partly_frozen_matches_layer_graph(self, frozen):
        model, rng = self.perturbed_model(520, n_layers=2)
        names = {"embedding": ("encoder.embedding",),
                 "layer0": tuple(name for name, _ in model.named_parameters()
                                 if not name.startswith("encoder.layer1")),
                 "attention": ("encoder.layer1.attn.w_qkv",
                               "encoder.layer1.attn.wo")}[frozen]
        for name, t in model.named_parameters():
            t.requires_grad = name not in names
        tokens = make_tokens([3, 9, 3, 14, 1], 5)
        probe = Tensor(rng.uniform(-1, 1, (5, 8)))
        op, graph = (self.outputs_and_gradients(forward, model, tokens, probe,
                                                True)
                     for forward in (enc.encoder_forward,
                                     graph_encoder_forward))
        for (name, _), fused, ref in zip(model.named_parameters(), op[1:],
                                         graph[1:]):
            assert (fused is None, ref is None) == (name in names,) * 2
            if fused is not None:
                assert np.array_equal(fused, ref)

    @pytest.mark.usefixtures("norm_placement")
    def test_gradients_match_finite_differences(self):
        """Every parameter, the embedding included, through two layers with
        fixed dropout masks and a causal mask."""
        config = small_config(d_model=4, n_heads=2, n_layers=2, vocab_size=8,
                              max_len=5, dropout=0.3, causal=True)
        rng = RandomSource(530)
        model = enc.init_encoder(config, rng.derive("enc"))
        for _, t in model.named_parameters():
            t.data += rng.uniform(-0.2, 0.2, t.shape)
        tokens = make_tokens([1, 5, 2, 5, PAD_ID], 4)
        masks = enc.dropout_masks(config, tokens, rng.derive("masks"))
        probe = Tensor(rng.uniform(-1, 1, (4, 4)))
        tensors = [t for _, t in model.named_parameters()]

        def loss():
            return tt.sum_all(tt.mul(enc.encoder_forward(model, tokens, masks),
                                     probe))

        assert tt.check_gradients(loss, tensors) < 1e-4

    @pytest.mark.usefixtures("norm_placement")
    @pytest.mark.parametrize("trains", ["all", "embedding", "one-gain"])
    def test_one_record_per_call(self, trains):
        model, _ = self.perturbed_model(540, n_layers=3)
        keep = {"all": None, "embedding": "encoder.embedding",
                "one-gain": "encoder.layer2.ln1.gain"}[trains]
        for name, t in model.named_parameters():
            t.requires_grad = keep is None or name == keep
        tokens = make_tokens([3, 1, 4, 1, 5, 9], 5)
        masks = enc.dropout_masks(model.config, tokens, RandomSource(541))
        with tt.Tape() as tape:
            out = enc.encoder_forward(model, tokens, masks)
        assert len(tape) == 1 and out.requires_grad

    @pytest.mark.parametrize("recording", [False, True],
                             ids=["no-tape", "tape"])
    def test_saved_arrays_go_when_nothing_records(self, monkeypatch,
                                                  recording):
        """Without a tape, each attention rule's backward (and the arrays
        it saved) is gone by the time the FFN rule after it runs."""
        model, _ = self.perturbed_model(543, n_layers=2)
        attention, feed_forward = (enc.multi_head_attention_rule,
                                   enc.feed_forward_rule)
        saved, alive = [], []

        def watched_attention(*args):
            out, backward = attention(*args)
            saved.append(weakref.ref(backward))
            return out, backward

        def watched_feed_forward(*args):
            alive.append(sum(ref() is not None for ref in saved))
            return feed_forward(*args)

        monkeypatch.setattr(enc, "multi_head_attention_rule", watched_attention)
        monkeypatch.setattr(enc, "feed_forward_rule", watched_feed_forward)
        with tt.Tape() if recording else contextlib.nullcontext():
            enc.encoder_forward(model, make_tokens([3, 1, 4, 1], 4))
        assert alive == ([1, 2] if recording else [0, 0])

    def test_no_record_when_frozen(self):
        model, _ = self.perturbed_model(542, n_layers=2)
        for _, t in model.named_parameters():
            t.requires_grad = False
        with tt.Tape() as tape:
            out = enc.encoder_forward(model, make_tokens([3, 1, 4], 3))
        assert len(tape) == 0 and not out.requires_grad


class TestInPlaceRules:
    """The encoder's array rules, which run in place, are handed their
    input again at backward time and recompute Q, K, V and the attention
    weights there, and the bridge and scan, which rebuild their inputs in
    the backward, against their out-of-place copies: outputs and every
    gradient bit for bit, and no array a rule was given (input, gradient,
    mask or parameter) written to."""

    @staticmethod
    def perturbed_layer(seed):
        rng = RandomSource(seed)
        model = enc.init_encoder(small_config(d_model=8, n_heads=4),
                                 rng.derive("enc"))
        for _, t in model.named_parameters():
            t.data += rng.uniform(-0.1, 0.1, t.shape)
        return model.layers[0], rng

    @staticmethod
    def run(forward, backward_args, given, tensors):
        """``forward()`` -> (output, backward); then ``backward(*backward_args)``.
        Returns the output, the backward's result and every gradient, and
        asserts that the ``given`` arrays and the tensors' data are
        unchanged after the forward and after the backward."""
        before = [a.copy() for a in given] + [t.data.copy() for t in tensors]

        def untouched():
            now = list(given) + [t.data for t in tensors]
            return all(np.array_equal(a, b) for a, b in zip(now, before))

        for t in tensors:
            t.zero_grad()
        out, backward = forward()
        assert untouched()
        result = backward(*backward_args)
        assert untouched()
        return [out, result] + [t.grad for t in tensors]

    @staticmethod
    def assert_all_equal(results, ref_results):
        for got, ref in zip(results, ref_results):
            assert (got is None) == (ref is None)
            if got is not None:
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("mask_kind", sorted(TestFusedAttention.MASKS))
    def test_attention_matches_out_of_place(self, mask_kind):
        layer, rng = self.perturbed_layer(600)
        x = rng.uniform(-1, 1, (5, 8))
        g = rng.uniform(-1, 1, (5, 8))
        mask = TestFusedAttention.MASKS[mask_kind](5)
        given = [x, g] + ([] if mask is None else [mask])
        tensors = [t for _, t in layer.attn.named_parameters()]
        results = [self.run(lambda: rule(layer.attn, x, mask),
                            (g, x), given, tensors)
                   for rule in (enc.multi_head_attention_rule,
                                handed_input(out_of_place_attention_rule))]
        self.assert_all_equal(*results)

    def test_feed_forward_matches_out_of_place(self):
        layer, rng = self.perturbed_layer(601)
        x = rng.uniform(-1, 1, (5, 8))
        g = rng.uniform(-1, 1, (5, 8))
        tensors = [t for _, t in layer.ffn.named_parameters()]
        results = [self.run(lambda: rule(layer.ffn, x), (g, x), [x, g],
                            tensors)
                   for rule in (enc.feed_forward_rule,
                                handed_input(out_of_place_feed_forward_rule))]
        self.assert_all_equal(*results)

    @pytest.mark.parametrize("shape", [(5, 8), (2, 3, 8)], ids=["2d", "3d"])
    def test_layer_norm_matches_out_of_place(self, shape):
        layer, rng = self.perturbed_layer(602)
        z = rng.uniform(-1, 1, shape)
        g = rng.uniform(-1, 1, shape)
        tensors = [layer.ln1_gain, layer.ln1_bias]
        results = [self.run(lambda: rule(z, *tensors)[:2], (g,), [z, g],
                            tensors)
                   for rule in (tt.layer_norm_rule,
                                out_of_place_layer_norm_rule)]
        self.assert_all_equal(*results)

    def test_layer_norm_output_rebuilds_its_output(self):
        layer, rng = self.perturbed_layer(605)
        z = rng.uniform(-1, 1, (5, 8))
        out, _, output = tt.layer_norm_rule(z, layer.ln1_gain, layer.ln1_bias)
        again = output()
        assert again is not out and np.array_equal(again, out)

    @pytest.mark.usefixtures("norm_placement")
    @pytest.mark.parametrize("dropped", [False, True], ids=["no-keep", "keep"])
    @pytest.mark.parametrize("sublayer",
                             ["attention", "unmasked-attention", "ffn"])
    def test_sublayer_matches_out_of_place(self, sublayer, dropped):
        """The sublayer hands its rule the input at backward time, rebuilt
        (here a copy of ``x``); "attention" attends through the causal
        mask."""
        layer, rng = self.perturbed_layer(603)
        x = rng.uniform(-1, 1, (5, 8))
        g = rng.uniform(-1, 1, (5, 8))
        keep = tt.dropout_mask(rng if dropped else None, 0.4, (5, 8))
        mask = (enc.additive_mask(5, causal=True) if sublayer == "attention"
                else None)
        norm = (layer.ln1_gain, layer.ln1_bias)
        params = layer.ffn if sublayer == "ffn" else layer.attn
        if sublayer == "ffn":
            rule = lambda h: enc.feed_forward_rule(params, h)
            ref_rule = lambda h: out_of_place_feed_forward_rule(params, h)
        else:
            rule = lambda h: enc.multi_head_attention_rule(params, h, mask)
            ref_rule = lambda h: out_of_place_attention_rule(params, h, mask)
        rebuilds = []

        def in_place():
            steps = []
            out, rebuild = enc._sublayer(rule, x, lambda: x.copy(), keep, norm,
                                         steps)
            rebuilds.append(rebuild)
            return out, steps[0]

        given = [x, g] + [a for a in (mask, keep) if a is not None]
        tensors = [t for _, t in params.named_parameters()] + list(norm)
        results = [self.run(forward, (g,), given, tensors) for forward in (
            in_place,
            lambda: out_of_place_sublayer(ref_rule, x, keep, norm))]
        self.assert_all_equal(*results)
        # the next sublayer's input is rebuilt from this layer norm
        rebuild, = rebuilds
        assert np.array_equal(rebuild(), results[0][0])

    @pytest.mark.parametrize("keep_kind", ["drawn", "all-dropped", "all-kept"])
    def test_held_mask_gives_the_bits_of_the_mask_product(self, keep_kind):
        """``(g * kept) * scale`` against ``g * keep``, sign and NaN bits
        included, on kept and dropped entries of -0.0, +-inf and NaN."""
        rng = RandomSource(606)
        keep = tt.dropout_mask(rng, 0.4, (8, 6))
        if keep_kind != "drawn":
            keep = np.where(keep_kind == "all-kept", 1.0 / 0.6, 0.0 * keep)
        g = rng.uniform(-1, 1, (8, 6))
        specials = np.array([-0.0, np.inf, -np.inf, np.nan, -np.nan])
        which = (np.arange(8)[:, None] + np.arange(5)) % 5
        g[:, :5] = specials[which]
        if keep_kind == "drawn":  # every special value meets both mask values
            for k in range(5):
                assert len(set(keep[:, :5][which == k] == 0)) == 2
        given = [keep.copy(), g.copy()]
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN, on purpose
            got = tt.held_mask(keep)(g)
            ref = g * keep
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(keep, given[0]) and np.array_equal(
            g.view(np.uint64), given[1].view(np.uint64))
        assert tt.held_mask(None) is None

    @pytest.mark.parametrize("dropped", [False, True], ids=["no-keep", "keep"])
    @pytest.mark.parametrize("bidirectional", [False, True], ids=["uni", "bi"])
    @pytest.mark.parametrize("variant", sorted(hd.VARIANT_GATES))
    def test_bridge_and_scan_match_out_of_place(self, variant, bidirectional,
                                                dropped):
        """A masked bridge into a scan: the bridge rebuilds its padded
        input and the scan gathers its rows again in the backward.  The
        out-of-place scan's states are read at the summary rows."""
        rng = RandomSource(607)
        bridge = hd.init_bridge(8, 5, rng.derive("bridge"))
        maker = hd.init_bicell if bidirectional else hd.init_cell
        cell = maker(variant, 5, 3, rng.derive("cell"))
        for _, t in [*bridge.named_parameters(), *cell.named_parameters()]:
            t.data += rng.uniform(-0.3, 0.3, t.shape)
        lengths = [4, 6, 2, 4]
        sequences = [Tensor(rng.uniform(-1, 1, (n, 8)), requires_grad=True)
                     for n in lengths]
        keeps = None
        if dropped:
            keeps = [tt.dropout_mask(rng, 0.4, s.shape)
                     for s in sequences]
        cells = (cell.fw, cell.bw) if bidirectional else (cell,)
        probe = Tensor(rng.uniform(-1, 1, (4, 3 * len(cells))))
        tensors = [*sequences, bridge.w, bridge.b,
                   *(t for _, t in cell.named_parameters())]
        given = [s.data for s in sequences] + list(keeps or ())

        def fused(z):
            summaries = [hd._scan(c, z, lengths, reverse) for c, reverse in
                         zip(cells, (False, True))]
            return tt.concat(*summaries, axis=1) if bidirectional else summaries[0]

        def out_of_place(z):
            states = [out_of_place_scan(c, z, lengths, reverse)
                      for c, reverse in zip(cells, (False, True))]
            return summary_of(tt.concat(*states, axis=2) if bidirectional
                              else states[0], lengths, bidirectional)

        results = []
        for bridge_op, scan in ((hd.bridge_forward, fused),
                                (out_of_place_bridge_forward, out_of_place)):
            before = [a.copy() for a in given]
            for t in tensors:
                t.zero_grad()
            with tt.Tape() as tape:
                summary = scan(bridge_op(bridge, sequences, keeps))
                tape.backward(tt.sum_all(tt.mul(summary, probe)))
            assert all(np.array_equal(a, b) for a, b in zip(given, before))
            results.append([summary.data] + [t.grad.copy() for t in tensors])
        self.assert_all_equal(*results)

    def test_recorded_op_holds_no_weights(self):
        """One recorded ``encoder_forward`` at T = 256 holds less than one
        (heads, T, T) float64 array: no layer keeps its attention weights
        for the backward."""
        config = enc.EncoderConfig(d_model=16, n_heads=4, n_layers=2,
                                   vocab_size=64, max_len=256, dropout=0.1)
        rng = RandomSource(604)
        model = enc.init_encoder(config, rng.derive("enc"))
        tokens = make_tokens([int(i) for i in rng.integers(0, 64, 256)], 256)
        masks = enc.dropout_masks(config, tokens, rng.derive("masks"))
        weights_bytes = config.n_heads * 256 * 256 * 8
        tracemalloc.start()
        try:
            with tt.Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = enc.encoder_forward(model, tokens, masks)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and out.shape == (256, 16)
        assert held < weights_bytes

    @pytest.mark.usefixtures("norm_placement")
    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    def test_recorded_op_holds_each_array_once(self, causal):
        """One recorded ``encoder_forward`` at T = 256 holds, per layer, two
        layer norms' ``xhat`` and two 1-byte dropout masks, besides its
        output and the layer norms' (T, 1) statistics: no Q, K or V, no
        ReLU output, no rule input, no float mask and, causal, no (T, T)
        mask.  Its output and gradients stay those of the layer graph,
        which builds the mask on every call."""
        t, d = 256, 16
        config = enc.EncoderConfig(d_model=d, n_heads=4, n_layers=2,
                                   vocab_size=64, max_len=t, dropout=0.1,
                                   causal=causal)
        rng = RandomSource(608)
        model = enc.init_encoder(config, rng.derive("enc"))
        tokens = make_tokens([int(i) for i in rng.integers(0, 64, t)], t)
        masks = enc.dropout_masks(config, tokens, rng.derive("masks"))
        probe = Tensor(rng.uniform(-1, 1, (t, d)))
        per_layer = 2 * t * d * 8 + 2 * t * d
        budget = (config.n_layers * (per_layer + 2 * t * 8) + t * d * 8
                  + 32 * 1024)  # Python objects: closures, lists, tensors
        tensors = [p for _, p in model.named_parameters()]
        results = []
        for forward in (enc.encoder_forward, graph_encoder_forward):
            for p in tensors:
                p.zero_grad()
            tracemalloc.start()
            try:
                with tt.Tape() as tape:
                    before = tracemalloc.get_traced_memory()[0]
                    out = forward(model, tokens, masks)
                    held = tracemalloc.get_traced_memory()[0] - before
                    tape.backward(tt.sum_all(tt.mul(out, probe)))
            finally:
                tracemalloc.stop()
            if forward is enc.encoder_forward:
                assert held <= budget < t * t * 8
            results.append([out.data] + [p.grad for p in tensors])
        self.assert_all_equal(*results)

    def test_backward_frees_what_the_records_held(self):
        """After the backward of a tape that recorded two ``encoder_forward``
        calls at T = 256, one of them unread by the loss, only the read
        output, its gradient and the parameter gradients are left: the
        layer norms' rows and the masks both records held are freed."""
        t, d = 256, 16
        config = enc.EncoderConfig(d_model=d, n_heads=4, n_layers=2,
                                   vocab_size=64, max_len=t, dropout=0.1)
        rng = RandomSource(610)
        model = enc.init_encoder(config, rng.derive("enc"))
        tokens = make_tokens([int(i) for i in rng.integers(0, 64, t)], t)
        masks = enc.dropout_masks(config, tokens, rng.derive("masks"))
        probe = Tensor(rng.uniform(-1, 1, (t, d)))
        held_per_call = config.n_layers * (2 * t * d * 8 + 2 * t * d)
        tracemalloc.start()
        try:
            with tt.Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                enc.encoder_forward(model, tokens, masks)
                out = enc.encoder_forward(model, tokens, masks)
                recorded = tracemalloc.get_traced_memory()[0] - before
                tape.backward(tt.sum_all(tt.mul(out, probe)))
                left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        grads = sum(p.grad.nbytes for _, p in model.named_parameters())
        assert len(tape) == 4
        assert recorded > 2 * held_per_call
        assert left - grads - out.data.nbytes - out.grad.nbytes < 32 * 1024


class TestEncoderForward:
    def test_zero_layers_is_embedding_plus_positions(self):
        config = small_config(n_layers=0)
        model = enc.init_encoder(config, RandomSource(11))
        tokens = make_tokens([5, 7, 3, PAD_ID], 3)
        out = enc.encoder_forward(model, tokens)
        expected = model.embedding.data[[5, 7, 3]] + model.positional[:3]
        assert np.array_equal(out.data, expected)

    def test_output_shape_is_rows_by_d_model(self):
        config = small_config(d_model=8, n_heads=2, n_layers=2)
        model = enc.init_encoder(config, RandomSource(12))
        out = enc.encoder_forward(model, make_tokens([1, 2, 3, 0, 0], 3))
        assert out.shape == (3, 8)

    @pytest.mark.parametrize("length", [0, -1, 4])
    def test_length_outside_ids_rejected(self, length):
        model = enc.init_encoder(small_config(), RandomSource(12))
        with pytest.raises(ParameterError):
            enc.encoder_forward(model, make_tokens([1, 2, 3], length))

    def test_pad_identity_never_leaks_into_real_positions(self):
        config = small_config(n_layers=2)
        model = enc.init_encoder(config, RandomSource(13))
        base = make_tokens([5, 7, 3, PAD_ID, PAD_ID, PAD_ID], 3)
        swapped = make_tokens([5, 7, 3, 9, 14, 2], 3)
        out_base = enc.encoder_forward(model, base).data
        out_swapped = enc.encoder_forward(model, swapped).data
        assert np.array_equal(out_base[:3], out_swapped[:3])

    def test_token_id_out_of_range_rejected(self):
        model = enc.init_encoder(small_config(vocab_size=8), RandomSource(14))
        # ids past the length are never embedded but are still checked
        for ids in ([1, 8], [1, 2, 8]):
            with pytest.raises(DataError):
                enc.encoder_forward(model, make_tokens(ids, 2))

    def test_sequence_longer_than_table_rejected(self):
        model = enc.init_encoder(small_config(max_len=3), RandomSource(15))
        with pytest.raises(DimensionError):
            enc.encoder_forward(model, make_tokens([1, 2, 3, 4], 4))

    def test_mask_at_the_padded_height_rejected(self):
        config = small_config(dropout=0.5)
        model = enc.init_encoder(config, RandomSource(16))
        tokens = make_tokens([1, 2, 3, PAD_ID], 3)
        masks = padded_masks(config, tokens, RandomSource(17))
        with pytest.raises(DimensionError, match=r"dropout mask \(4, 4\)"):
            enc.encoder_forward(model, tokens, masks)

    @pytest.mark.parametrize("pairs", [0, 1, 3])
    def test_mask_pair_per_layer_required(self, pairs):
        """A mask list that does not have one pair per layer is refused,
        never zipped short."""
        model = enc.init_encoder(small_config(n_layers=2), RandomSource(16))
        with pytest.raises(DimensionError, match=f"{pairs} dropout mask pairs "
                                                 "for 2 layers"):
            enc.encoder_forward(model, make_tokens([1, 2, 3], 3),
                                [(None, None)] * pairs)

    def test_dropout_active_only_in_training(self):
        model = enc.init_encoder(small_config(dropout=0.5), RandomSource(17))
        tokens = make_tokens([1, 2, 3], 3)
        eval_a = enc.encoder_forward(model, tokens).data
        eval_b = enc.encoder_forward(model, tokens).data
        trained = trimmed_forward(model, tokens, rng=RandomSource(18)).data
        assert np.array_equal(eval_a, eval_b)
        assert not np.allclose(eval_a, trained)

    def test_causal_stack_ignores_future_tokens(self):
        config = small_config(n_layers=2, causal=True)
        model = enc.init_encoder(config, RandomSource(19))
        rng = RandomSource(20)
        for _ in range(20):
            ids = [int(i) for i in rng.integers(0, 16, 5)]
            i = int(rng.integers(1, 5))
            out_full = enc.encoder_forward(model, make_tokens(ids, 5)).data
            altered = list(ids)
            for j in range(i, 5):
                altered[j] = (altered[j] + 1 + int(rng.integers(0, 15))) % 16
            out_alt = enc.encoder_forward(model, make_tokens(altered, 5)).data
            assert np.array_equal(out_full[:i], out_alt[:i])

    def test_non_causal_stack_adds_no_mask(self, monkeypatch):
        """No mask is built, and the result is bit-equal to adding an
        all-zero mask to every head's scores."""
        model = enc.init_encoder(small_config(n_layers=2), RandomSource(24))
        tokens = make_tokens([7, 2, 11, 4, 0, 0], 4)
        x = add(tt.gather_rows(model.embedding, [7, 2, 11, 4]),
                Tensor(model.positional[:4]))
        for layer in model.layers:
            x = layer_forward(layer, x, np.zeros((4, 4)), None, None)

        def fail(*args, **kwargs):
            raise AssertionError("built a mask for a non-causal encoder")

        monkeypatch.setattr(enc, "additive_mask", fail)
        assert np.array_equal(enc.encoder_forward(model, tokens).data, x.data)

    def test_pooled_output_permutation_invariant_only_without_positions(self):
        config = small_config(d_model=4, n_heads=1, n_layers=1, vocab_size=16)
        model = enc.init_encoder(config, RandomSource(23))
        ids = [3, 9, 5, 12]
        permuted = [5, 3, 12, 9]
        with_table = [
            enc.encoder_forward(model, make_tokens(seq, 4)).data.mean(axis=0)
            for seq in (ids, permuted)
        ]
        assert not np.allclose(with_table[0], with_table[1], atol=1e-6)
        model.positional = np.zeros_like(model.positional)
        without_table = [
            enc.encoder_forward(model, make_tokens(seq, 4)).data.mean(axis=0)
            for seq in (ids, permuted)
        ]
        assert np.allclose(without_table[0], without_table[1], atol=1e-12)

    def test_gradients_match_finite_differences(self):
        config = small_config(d_model=4, n_heads=2, n_layers=1, vocab_size=8,
                              max_len=4)
        model = enc.init_encoder(config, RandomSource(25))
        layer = model.layers[0]
        for t in (layer.ln1_gain, layer.ln2_gain):
            t.data += RandomSource(26).uniform(-0.2, 0.2, t.shape)
        tokens = make_tokens([1, 5, 2, PAD_ID], 3)
        tensors = [t for _, t in model.named_parameters()]
        # A plain mean is blind to the layer-norm output (rows of the
        # normalized matrix sum to zero), so project with fixed random
        # weights to make the loss sensitive to every direction.
        probe = Tensor(RandomSource(27).uniform(-1, 1, (4, 4))[:3])

        def loss():
            out = enc.encoder_forward(model, tokens)
            return tt.sum_all(tt.mul(out, probe))

        assert tt.check_gradients(loss, tensors) < 1e-4


class TestTrimmedForward:
    """``encoder_forward`` against the padded oracle: the rows of real
    tokens, and every gradient, agree; the PAD rows are never computed."""

    VARIANTS = {
        "post-norm": {},
        "causal": {"causal": True},
    }

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("length", [1, 3, 6])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_padded_oracle(self, variant, length, training):
        config = small_config(d_model=8, n_heads=2, n_layers=2, max_len=6,
                              dropout=0.3, **self.VARIANTS[variant])
        rng = RandomSource(300 + length)
        model = enc.init_encoder(config, rng.derive("enc"))
        for _, t in model.named_parameters():
            t.data += rng.uniform(-0.1, 0.1, t.shape)
        ids = [int(i) for i in rng.integers(0, 16, 6)]
        tokens = make_tokens(ids, length)
        probe = Tensor(rng.uniform(-1, 1, (length, 8)))
        tensors = [t for _, t in model.named_parameters()]
        results = []
        for forward in (trimmed_forward, reference_encoder_forward):
            for t in tensors:
                t.zero_grad()
            with tt.Tape() as tape:
                rows = forward(model, tokens,
                               RandomSource(7) if training else None)
                out = slice_rows(rows, 0, length)
                tape.backward(tt.sum_all(tt.mul(out, probe)))
            results.append((rows.shape, out.data,
                            [t.grad.copy() for t in tensors]))
        (shape, out, grads), (ref_shape, ref_out, ref_grads) = results
        assert (shape, ref_shape) == ((length, 8), (6, 8))
        assert np.abs(out - ref_out).max() <= 1e-12
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12


class TestSpanMask:
    def test_zero_rate_masks_nothing(self):
        tokens = make_tokens([5, 6, 7, PAD_ID], 3)
        corrupted, targets = enc.span_mask(tokens, RandomSource(1), 0.0)
        assert corrupted.input_ids == tokens.input_ids
        assert targets == []

    def test_all_pad_sequence_unchanged(self):
        tokens = make_tokens([PAD_ID] * 4, 0)
        corrupted, targets = enc.span_mask(tokens, RandomSource(2), 0.5)
        assert corrupted.input_ids == tokens.input_ids
        assert targets == []

    def test_rate_point3_of_ten_masks_exactly_three(self):
        tokens = make_tokens(list(range(5, 15)), 10)
        corrupted, targets = enc.span_mask(tokens, RandomSource(3), 0.3)
        assert len(targets) == 3
        masked = [pos for pos, _ in targets]
        assert all(corrupted.input_ids[p] == MASK_ID for p in masked)
        assert all(p < 10 for p in masked)

    def test_targets_record_original_ids(self):
        tokens = make_tokens(list(range(5, 15)), 10)
        corrupted, targets = enc.span_mask(tokens, RandomSource(4), 0.4)
        restored = list(corrupted.input_ids)
        for pos, original in targets:
            restored[pos] = original
        assert restored == tokens.input_ids

    def test_seeded_runs_reproduce(self):
        tokens = make_tokens(list(range(5, 15)), 10)
        a = enc.span_mask(tokens, RandomSource(5), 0.4)
        b = enc.span_mask(tokens, RandomSource(5), 0.4)
        assert a[0].input_ids == b[0].input_ids
        assert a[1] == b[1]

    def test_budget_exact_across_random_cases(self):
        rng = RandomSource(6)
        for _ in range(25):
            valid = int(rng.integers(1, 12))
            total = valid + int(rng.integers(0, 4))
            rate = float(rng.uniform(0.05, 0.9))
            tokens = make_tokens(
                [int(t) for t in rng.integers(5, 50, total)], valid)
            corrupted, targets = enc.span_mask(tokens, rng.derive("case"),
                                               rate)
            assert len(targets) == max(1, int(round(rate * valid)))
            untouched = set(range(total)) - {pos for pos, _ in targets}
            for pos in untouched:
                assert corrupted.input_ids[pos] == tokens.input_ids[pos]

    @pytest.mark.parametrize("valid", [1, 2, 3])
    def test_short_line_masks_one_token(self, valid):
        """round(0.15 * valid) is 0 for these lengths; one token is
        masked all the same."""
        tokens = make_tokens(list(range(5, 5 + valid)) + [PAD_ID], valid)
        corrupted, targets = enc.span_mask(tokens, RandomSource(8), 0.15)
        assert len(targets) == 1
        pos, original = targets[0]
        assert pos < valid and corrupted.input_ids[pos] == MASK_ID
        assert original == tokens.input_ids[pos]

    def test_bad_rate_rejected(self):
        tokens = make_tokens([5, 6], 2)
        with pytest.raises(ParameterError):
            enc.span_mask(tokens, RandomSource(7), 1.0)


class TestDenoisingLoss:
    def test_zero_embedding_gives_log_vocab_loss(self):
        config = small_config(n_layers=0, vocab_size=16)
        model = enc.init_encoder(config, RandomSource(41))
        model.embedding.data[:] = 0.0
        tokens = make_tokens([MASK_ID, 5, 6], 3)
        loss = enc.denoising_loss(model, tokens, [(0, 9)])
        assert loss.item() == pytest.approx(math.log(16), rel=1e-12)

    def test_certain_prediction_gives_zero_loss(self):
        config = small_config(n_layers=0, vocab_size=16, d_model=4, n_heads=1)
        model = enc.init_encoder(config, RandomSource(42))
        model.embedding.data[:] = 0.0
        target_vec = model.positional[0]
        model.embedding.data[9] = 800.0 * target_vec / np.dot(target_vec, target_vec)
        tokens = make_tokens([MASK_ID, 5, 6], 3)
        loss = enc.denoising_loss(model, tokens, [(0, 9)])
        assert loss.item() == 0.0

    def test_empty_targets_rejected(self):
        model = enc.init_encoder(small_config(), RandomSource(43))
        with pytest.raises(ParameterError):
            enc.denoising_loss(model, make_tokens([1, 2], 2), [])

    def test_gradients_match_finite_differences(self):
        config = small_config(d_model=4, n_heads=2, n_layers=1, vocab_size=8,
                              max_len=4)
        model = enc.init_encoder(config, RandomSource(44))
        corrupted, targets = enc.span_mask(
            make_tokens([1, 5, 2, 7], 4), RandomSource(45), 0.5)
        tensors = [t for _, t in model.named_parameters()]

        def loss():
            return enc.denoising_loss(model, corrupted, targets)

        assert tt.check_gradients(loss, tensors) < 1e-4

    @pytest.mark.parametrize("pos", [-1, 3, 7])
    def test_position_outside_real_tokens_rejected(self, pos):
        """-1 would score the last real token and 3 a PAD row; 7 is past
        the sequence."""
        model = enc.init_encoder(small_config(), RandomSource(46))
        tokens = make_tokens([1, MASK_ID, 2, PAD_ID], 3)
        with pytest.raises(ParameterError, match=rf"position {pos} outside"):
            enc.denoising_loss(model, tokens, [(1, 5), (pos, 5)])

    @pytest.mark.parametrize("original_id", [-1, 16])
    def test_original_id_outside_vocabulary_rejected(self, original_id):
        model = enc.init_encoder(small_config(vocab_size=16), RandomSource(47))
        tokens = make_tokens([1, MASK_ID, 2], 3)
        with pytest.raises(DataError, match="outside 16"):
            enc.denoising_loss(model, tokens, [(1, original_id)])

    @staticmethod
    def loss_and_gradients(loss_fn, model, corrupted, targets):
        tensors = [t for _, t in model.named_parameters()]
        for t in tensors:
            t.zero_grad()
        with tt.Tape() as tape:
            loss = loss_fn(model, corrupted, targets)
            tape.backward(loss)
        return loss.item(), [t.grad for t in tensors]

    @pytest.mark.usefixtures("norm_placement")
    @pytest.mark.parametrize("positions", [
        {4}, {0, 1, 3, 5, 6, 8, 9}, {0, 1, 2, 8, 9},
    ], ids=["one", "many", "shared-ids"])
    @pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
    def test_matches_per_position_loop(self, causal, positions):
        """Loss and every parameter gradient, the tied embedding's included,
        against ``reference_denoising_loss``; the GEMM over the masked rows
        rounds unlike one matvec per row, so they agree to rounding."""
        config = small_config(d_model=8, n_heads=2, n_layers=2, max_len=12,
                              dropout=0.3, causal=causal)
        rng = RandomSource(49)
        model = enc.init_encoder(config, rng.derive("enc"))
        for _, t in model.named_parameters():
            t.data += rng.uniform(-0.3, 0.3, t.shape)
        # positions 0, 2 and 9 share id 3, and 1 and 8 share id 9
        ids = [3, 9, 3, 14, 1, 7, 12, 5, 9, 3, PAD_ID, PAD_ID]
        corrupted, targets = masked(ids, 10, positions)
        loss, grads = self.loss_and_gradients(enc.denoising_loss, model,
                                              corrupted, targets)
        ref_loss, ref_grads = self.loss_and_gradients(
            reference_denoising_loss, model, corrupted, targets)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for grad, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(grad, ref, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("count", [1, 7, 23])
    def test_records_do_not_grow_with_targets(self, count):
        """The encoder op, the row gather, the tied projection, the softmax,
        the cross-entropy and the mean: six records for any count."""
        config = small_config(d_model=8, n_heads=2, n_layers=2, vocab_size=32,
                              max_len=24, dropout=0.3)
        model = enc.init_encoder(config, RandomSource(50))
        ids = [int(t) for t in RandomSource(51).integers(5, 32, 24)]
        positions = set(RandomSource(52).permutation(24)[:count].tolist())
        corrupted, targets = masked(ids, 24, positions)
        with tt.Tape() as tape:
            enc.denoising_loss(model, corrupted, targets)
        assert len(targets) == count and len(tape) == 6


class TestEmbeddingFiles:
    def test_round_trip(self, tmp_path):
        rng = RandomSource(51)
        samples = [
            (rng.uniform(-1, 1, (4, 3)), 0),
            (rng.uniform(-1, 1, (2, 3)), 1),
        ]
        path = tmp_path / "emb.bin"
        enc.save_embeddings(path, samples)
        loaded = enc.load_embeddings(path)
        assert len(loaded) == 2
        for (m0, l0), (m1, l1) in zip(samples, loaded):
            assert l0 == l1
            assert m1.dtype == np.float64
            assert np.allclose(m0, m1, atol=1e-6)

    def test_f32_precision_is_exact_round_trip(self, tmp_path):
        matrix = np.array([[0.5, -0.25], [1.0, 2.0]])
        path = tmp_path / "emb.bin"
        enc.save_embeddings(path, [(matrix, 3)])
        (loaded, label), = enc.load_embeddings(path)
        assert label == 3
        assert np.array_equal(loaded, matrix)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            enc.load_embeddings(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        enc.save_embeddings(path, [(np.ones((3, 2)), 1)])
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DataError):
            enc.load_embeddings(path)

    def test_empty_file_of_zero_samples(self, tmp_path):
        path = tmp_path / "emb.bin"
        enc.save_embeddings(path, [])
        assert enc.load_embeddings(path) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        matrix = np.ones((3, 2))
        matrix[2, 1] = value
        path = tmp_path / "emb.bin"
        enc.save_embeddings(path, [(np.ones((1, 2)), 0), (matrix, 1)])
        with pytest.raises(DataError, match="non-finite"):
            enc.load_embeddings(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        enc.save_embeddings(path, [(np.ones((2, 2)), 1)])
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            enc.load_embeddings(path)

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "emb.sqf1"
        enc.save_embeddings(path, [(np.ones((2, 2)), 1)])
        before = path.read_bytes()
        with pytest.raises(DimensionError):
            enc.save_embeddings(path, [(np.ones((2, 2)), 0), (np.ones(2), 1)])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.sqf1"]
