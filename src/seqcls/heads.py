"""Recurrent classification heads over contextual embeddings.

The head runs once per mini-batch over the batch's sequences, every row
a real token, and their length vector.  ``pipeline_forward`` runs: the
bridge, which stacks, masks and projects the batch into a zero-padded
(B, T, d_rnn) array as one op (one GEMM) -> recurrent scan
(vanilla/LSTM/GRU, unidirectional or bidirectional) -> summary rows ->
dropout -> dense+ReLU -> output layer -> softmax -> cross-entropy, each
once over the batch.  A sequence is summarized by its last hidden state;
bidirectional runs concatenate the forward state at its last row with
the backward state at row 0.  An order-blind variant replaces the scan
with mean pooling over each sequence's rows, as a baseline for
order-sensitivity comparisons.

Each scan direction is one tape op over the batch (Appleyard, Kocisky &
Blunsom, 2016): the gates are stacked in VARIANT_GATES order, the input
projections of every real row are one GEMM, and every step does one
(B, H) recurrent GEMM over the sequences still running (GRU's candidate
keeps its own Q_h (r * h)).  The backward rule runs BPTT in numpy.  Rows
past a sequence's length are zero and take no gradient.  The scan's
transients (the input projections, the gradient on the states, the
backward's per-step factors) cover the real rows only; the arrays its
backward holds and the gate gradient stay on the padded (step, slot)
grid, since Q's gradient sums over that grid and BLAS would round a
shorter sum differently (see ``_scan``).  The tests keep the per-sample
head, a per-step scan built from elementary tape ops and the padded-grid
scan, and check the batched head against them.

Weight layouts: each scan direction stores its gates stacked in
VARIANT_GATES order, one row block of ``hidden`` rows per gate: input
maps P (gates*hidden x d_in), recurrent maps Q (gates*hidden x hidden)
and biases b (gates*hidden,), applied as P x + Q h + b on column
vectors; the bridge applies a (d_in x d_rnn) row-vector map and the
classifier (out x in) maps through ``tt.linear``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as tt
from .errors import DataError, DimensionError, ParameterError
from .rng import RandomSource
from .tensor import Tensor

VARIANT_GATES = {
    "vanilla": ("h",),
    "lstm": ("c", "f", "i", "o"),
    "gru": ("z", "r", "h"),
}

LOSS_FLOOR = 1e-12


@dataclass
class RnnCellParams:
    """One scan direction, its gates stacked in VARIANT_GATES order."""

    variant: str
    p: Tensor
    q: Tensor
    b: Tensor

    def __post_init__(self):
        if self.variant not in VARIANT_GATES:
            raise ParameterError(f"unknown rnn variant {self.variant!r}")
        gates = len(VARIANT_GATES[self.variant])
        if (self.q.data.ndim != 2 or self.p.data.ndim != 2
                or self.q.shape[0] != gates * self.hidden
                or self.p.shape[0] != self.q.shape[0]
                or self.b.shape != self.q.shape[:1]):
            raise DimensionError(
                f"{self.variant} cell shapes p {self.p.shape}, q {self.q.shape}, "
                f"b {self.b.shape} do not stack {gates} gates")

    @property
    def hidden(self) -> int:
        return self.q.shape[1]

    @property
    def input_dim(self) -> int:
        return self.p.shape[1]

    def named_parameters(self, prefix: str = ""):
        yield f"{prefix}p", self.p
        yield f"{prefix}q", self.q
        yield f"{prefix}b", self.b


@dataclass
class BiRnnParams:
    fw: RnnCellParams
    bw: RnnCellParams

    def __post_init__(self):
        if self.fw.variant != self.bw.variant:
            raise ParameterError(
                f"direction variants differ: {self.fw.variant} vs {self.bw.variant}"
            )
        if self.fw.hidden != self.bw.hidden:
            raise DimensionError(
                f"direction hidden sizes differ: {self.fw.hidden} vs {self.bw.hidden}"
            )

    @property
    def variant(self) -> str:
        return self.fw.variant

    @property
    def hidden(self) -> int:
        return self.fw.hidden

    def named_parameters(self, prefix: str = ""):
        yield from self.fw.named_parameters(f"{prefix}fw.")
        yield from self.bw.named_parameters(f"{prefix}bw.")


@dataclass
class BridgeParams:
    w: Tensor
    b: Tensor

    def named_parameters(self, prefix: str = ""):
        yield f"{prefix}w", self.w
        yield f"{prefix}b", self.b


@dataclass
class ClassifierParams:
    w_dense: Tensor
    b_dense: Tensor
    w_out: Tensor
    b_out: Tensor
    dropout: float = 0.0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ParameterError(f"need >= 2 classes, got {self.n_classes}")
        if self.b_out.shape != (self.n_classes,):
            raise DimensionError("output bias width differs from class count")
        if self.w_out.shape[1] != self.w_dense.shape[0]:
            raise DimensionError("output layer width differs from dense layer")

    @property
    def n_classes(self) -> int:
        return self.w_out.shape[0]

    def named_parameters(self, prefix: str = ""):
        yield f"{prefix}w_dense", self.w_dense
        yield f"{prefix}b_dense", self.b_dense
        yield f"{prefix}w_out", self.w_out
        yield f"{prefix}b_out", self.b_out


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """The logistic function on a bare array; exp never overflows."""
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


def _rows(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


# Each recurrence runs time-major.  Its input gx is one block per step of
# the real rows' stacked input projections (gates in VARIANT_GATES order):
# the slots hold the batch sorted by length, so step t's block is the
# running prefix of slots, len(gx[t]) of them.  The forward pass returns
# hs, whose [t + 1, j] is slot j's hidden state after step t (row 0 is the
# zero initial state, rows past a sequence's end stay zero), plus what its
# backward pass needs.  The backward pass takes dh, the gradient on each
# step's block of hs[1:], in the same per-step blocks, and returns da, the
# gradient on every gate pre-activation (zero past each sequence's end),
# and dq.  It computes each step's factors that do not depend on the
# carried gradient from that step's rows, in the loop.  hs, the saved
# arrays and da stay on the padded (step, slot) grid (``_scan`` says why).


def _vanilla_forward(gx: list[np.ndarray], q: np.ndarray):
    hs = np.zeros((len(gx) + 1, len(gx[0]), q.shape[1]))
    q_t = q.T
    for t, x in enumerate(gx):
        n = len(x)
        hs[t + 1, :n] = np.tanh(x + hs[t, :n] @ q_t)
    return hs, ()


def _vanilla_backward(dh: list[np.ndarray], q: np.ndarray, hs: np.ndarray,
                      saved):
    da = np.zeros(hs[1:].shape)
    carry = np.zeros(hs.shape[1:])
    for t in range(len(dh) - 1, -1, -1):
        n = len(dh[t])
        h = hs[t + 1, :n]
        row = da[t, :n] = (dh[t] + carry[:n]) * (1.0 - h * h)
        carry[:n] = row @ q
    return da, _rows(da).T @ _rows(hs[:-1])


def _lstm_forward(gx: list[np.ndarray], q: np.ndarray):
    steps, batch, hidden = len(gx), len(gx[0]), q.shape[1]
    hs = np.zeros((steps + 1, batch, hidden))
    cs = np.zeros((steps + 1, batch, hidden))
    candidates = np.zeros((steps, batch, hidden))
    gates = np.zeros((steps, batch, 3 * hidden))  # forget, update, output
    cell_tanh = np.zeros((steps, batch, hidden))
    q_t = q.T
    for t, x in enumerate(gx):
        n = len(x)
        a = x + hs[t, :n] @ q_t
        candidate = candidates[t, :n] = np.tanh(a[:, :hidden])
        s = gates[t, :n] = _sigmoid(a[:, hidden:])
        c = cs[t + 1, :n] = (s[:, hidden:2 * hidden] * candidate
                             + s[:, :hidden] * cs[t, :n])
        tc = cell_tanh[t, :n] = np.tanh(c)
        hs[t + 1, :n] = s[:, 2 * hidden:] * tc
    return hs, (cs, candidates, gates, cell_tanh)


def _lstm_backward(dh: list[np.ndarray], q: np.ndarray, hs: np.ndarray,
                   saved):
    cs, candidates, gates, cell_tanh = saved
    steps, batch, hidden = candidates.shape
    da = np.zeros((steps, batch, 4 * hidden))
    da_cfi = da[..., :3 * hidden].reshape(steps, batch, 3, hidden)
    da_o = da[..., 3 * hidden:]
    carry_h = np.zeros((batch, hidden))
    carry_c = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        n = len(dh[t])
        candidate, tc = candidates[t, :n], cell_tanh[t, :n]
        forget, update, output = (gates[t, :n, k * hidden:(k + 1) * hidden]
                                  for k in range(3))
        # candidate, forget and update pre-activations per unit of d_c
        per_dc = np.stack((update * (1.0 - candidate * candidate),
                           cs[t, :n] * forget * (1.0 - forget),
                           candidate * update * (1.0 - update)), axis=1)
        per_dh = tc * output * (1.0 - output)
        dc_per_dh = output * (1.0 - tc * tc)
        d_h = dh[t] + carry_h[:n]
        d_c = carry_c[:n] + d_h * dc_per_dh
        da_cfi[t, :n] = per_dc * d_c[:, None]
        da_o[t, :n] = d_h * per_dh
        carry_c[:n] = d_c * forget
        carry_h[:n] = da[t, :n] @ q
    return da, _rows(da).T @ _rows(hs[:-1])


def _gru_forward(gx: list[np.ndarray], q: np.ndarray):
    steps, batch, hidden = len(gx), len(gx[0]), q.shape[1]
    q_zr_t, q_h_t = q[:2 * hidden].T, q[2 * hidden:].T
    hs = np.zeros((steps + 1, batch, hidden))
    gates = np.zeros((steps, batch, 2 * hidden))  # update, reset
    candidates = np.zeros((steps, batch, hidden))
    for t, x in enumerate(gx):
        n = len(x)
        h = hs[t, :n]
        s = gates[t, :n] = _sigmoid(x[:, :2 * hidden] + h @ q_zr_t)
        update = s[:, :hidden]
        candidate = candidates[t, :n] = np.tanh(
            x[:, 2 * hidden:] + (s[:, hidden:] * h) @ q_h_t)
        hs[t + 1, :n] = (1.0 - update) * candidate + update * h
    return hs, (gates, candidates)


def _gru_backward(dh: list[np.ndarray], q: np.ndarray, hs: np.ndarray,
                  saved):
    gates, candidates = saved
    steps, batch, hidden = candidates.shape
    q_zr, q_h = q[:2 * hidden], q[2 * hidden:]
    da = np.zeros((steps, batch, 3 * hidden))
    da_z, da_r = da[..., :hidden], da[..., hidden:2 * hidden]
    da_zr, da_c = da[..., :2 * hidden], da[..., 2 * hidden:]
    carry = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        n = len(dh[t])
        previous, candidate = hs[t, :n], candidates[t, :n]
        update, reset = gates[t, :n, :hidden], gates[t, :n, hidden:]
        # update and candidate pre-activations per unit of d_h; reset per
        # unit of the gradient on reset * previous
        per_dh_z = (previous - candidate) * update * (1.0 - update)
        per_dh_c = (1.0 - update) * (1.0 - candidate * candidate)
        per_drh_r = previous * reset * (1.0 - reset)
        d_h = dh[t] + carry[:n]
        d_c = da_c[t, :n] = d_h * per_dh_c
        d_rh = d_c @ q_h
        da_z[t, :n] = d_h * per_dh_z
        da_r[t, :n] = d_rh * per_drh_r
        carry[:n] = d_h * update + d_rh * reset + da_zr[t, :n] @ q_zr
    previous, reset = hs[:-1], gates[..., hidden:]
    dq = np.concatenate((_rows(da_zr).T @ _rows(previous),
                         _rows(da_c).T @ _rows(reset * previous)))
    return da, dq


_RECURRENCES = {
    "vanilla": (_vanilla_forward, _vanilla_backward),
    "lstm": (_lstm_forward, _lstm_backward),
    "gru": (_gru_forward, _gru_backward),
}


def _check_lengths(sequences: Tensor, lengths) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=np.intp)
    if sequences.data.ndim != 3 or lengths.shape != sequences.shape[:1]:
        raise DimensionError(
            f"need (batch, steps, width) input and one length per sequence, "
            f"got {sequences.shape} and {lengths.shape}")
    if not len(lengths):
        raise ParameterError("need at least one sequence")
    if lengths.min() < 1 or lengths.max() > sequences.shape[1]:
        raise ParameterError(
            f"sequence lengths must be in [1, {sequences.shape[1]}]")
    return lengths


def _scan(cell: RnnCellParams, sequences: Tensor, lengths,
          reverse: bool) -> Tensor:
    """One direction of the recurrence over a (B, T, d) batch, sequence i
    running over its first lengths[i] rows, as a single tape op with a
    hand-written backward pass through time.

    The input projections of every real row are one GEMM over the stacked
    gate weights, and each step does one recurrent GEMM over the sequences
    still running.  Row t of sequence i is its state after consuming row t:
    forward from row 0, reverse from row lengths[i] - 1.  Rows past a
    sequence's length are zero and take no gradient.  The backward keeps
    the hidden states and the gates, not the real rows of the input: it
    gathers them from ``sequences`` again for P's gradient.

    The transients cover the real rows only: the input projections and
    the gradient on the states are (sum(lengths), ·) arrays in step-major
    order, read one step's block at a time, and the backward computes each
    step's factors inside its loop.  What the backward holds (the hidden
    states, the gates, the candidates, LSTM's cells and their tanh) and
    the gate gradient da stay on the padded (step, slot) grid, because
    Q's gradient is a GEMM summed over that grid's rows: with the zero
    rows dropped, BLAS blocks its K dimension differently and dq's last
    bits change.
    """
    lengths = _check_lengths(sequences, lengths)
    if sequences.shape[2] != cell.input_dim:
        raise DimensionError(
            f"input shape {sequences.shape} vs cell input {cell.input_dim}"
        )
    p, q, b = cell.p.data, cell.q.data, cell.b.data
    # slot j scans sequence order[j]; (step, slot) pairs read real rows
    order = np.argsort(-lengths, kind="stable")
    step, slot = np.nonzero(np.arange(lengths.max())[:, None] < lengths[order])
    sample = order[slot]
    row = lengths[sample] - 1 - step if reverse else step
    ends = np.cumsum(np.bincount(step)).tolist()

    def by_step(rows):
        """Step-major real rows as one view per step."""
        return [rows[start:end] for start, end in zip([0] + ends, ends)]

    gx = sequences.data[sample, row] @ p.T
    gx += b
    recur, recur_backward = _RECURRENCES[cell.variant]
    hs, saved = recur(by_step(gx), q)
    data = np.zeros((*sequences.shape[:2], cell.hidden))
    data[sample, row] = hs[step + 1, slot]

    def backward(g):
        # g's real rows are freed as the call returns, before da's are
        # gathered
        da, dq = recur_backward(by_step(g[sample, row]), q, hs, saved)
        da = da[step, slot]
        dp = da.T @ sequences.data[sample, row]
        db = da.sum(axis=0)
        for param, grad in ((cell.p, dp), (cell.q, dq), (cell.b, db)):
            if param.requires_grad:
                param.accumulate_grad(grad)
        if sequences.requires_grad:
            dx = np.zeros(sequences.shape)
            dx[sample, row] = da @ p
            sequences.accumulate_grad(dx)

    return tt.make_output(data, (sequences, cell.p, cell.q, cell.b), backward)


def rnn_forward(cell: RnnCellParams, sequences: Tensor, lengths) -> Tensor:
    """Left-to-right scan of each sequence from the zero state: row t of
    sequence i holds its state after tokens 0..t.  One tape op."""
    return _scan(cell, sequences, lengths, reverse=False)


def birnn_forward(params: BiRnnParams, sequences: Tensor, lengths) -> Tensor:
    """Row t of sequence i holds [forward state after tokens 0..t, backward
    state after tokens L-1..t], L = lengths[i].  One tape op per
    direction."""
    return tt.concat(_scan(params.fw, sequences, lengths, reverse=False),
                     _scan(params.bw, sequences, lengths, reverse=True),
                     axis=2)


def summary_rows(lengths, width: int, bidirectional: bool) -> np.ndarray:
    """(B, width) row that each summary entry reads: the last row, except
    that a bidirectional state's backward half reads row 0."""
    rows = np.repeat(np.asarray(lengths, dtype=np.intp)[:, None] - 1, width,
                     axis=1)
    if bidirectional:
        if width % 2 != 0:
            raise DimensionError(
                f"bidirectional states must have even width, got {width}")
        rows[:, width // 2:] = 0
    return rows


def summarize(states: Tensor, rows: np.ndarray) -> Tensor:
    """Summary entry (i, j) is states[i, rows[i, j], j]; one tape op."""
    batch, width = rows.shape
    if states.data.ndim != 3 or states.shape[::2] != (batch, width):
        raise DimensionError(f"states {states.shape} vs summary rows {rows.shape}")
    index = (np.arange(batch)[:, None], rows, np.arange(width))

    def backward(g):
        if states.requires_grad:
            d_states = np.zeros(states.shape)
            d_states[index] = g
            states.accumulate_grad(d_states)

    return tt.make_output(states.data[index], (states,), backward)


def mean_pool_forward(sequences: Tensor, lengths) -> Tensor:
    """Order-blind summary replacing the scan: the mean of each sequence's
    first lengths[i] rows.  One tape op."""
    lengths = _check_lengths(sequences, lengths)
    valid = (np.arange(sequences.shape[1]) < lengths[:, None])[..., None]
    scale = 1.0 / lengths[:, None]

    def backward(g):
        if sequences.requires_grad:
            sequences.accumulate_grad((g * scale)[:, None] * valid)

    data = (sequences.data * valid).sum(axis=1) * scale
    return tt.make_output(data, (sequences,), backward)


def classify(head: ClassifierParams, summary: Tensor,
             keep: np.ndarray | None = None) -> Tensor:
    """Dropout (``keep``, one mask row per summary), dense+ReLU, output
    layer, softmax: (B, width) summaries to (B, k) probabilities."""
    if summary.data.ndim != 2 or summary.shape[1] != head.w_dense.shape[1]:
        raise DimensionError(
            f"summary shape {summary.shape} vs dense input {head.w_dense.shape[1]}"
        )
    dropped = tt.dropout(summary, keep)
    dense = tt.relu(tt.linear(dropped, head.w_dense, head.b_dense))
    return tt.softmax(tt.linear(dense, head.w_out, head.b_out), axis=-1)


def predict(probabilities) -> int:
    """Argmax class; exact ties go to the lowest index."""
    values = np.asarray(getattr(probabilities, "data", probabilities))
    return int(np.argmax(values))


def cross_entropy_loss(predicted: Tensor, labels) -> Tensor:
    """Per-sample -log predicted[i, labels[i]], floored at 1e-12: (B, k)
    probabilities to (B,) losses, one op."""
    labels = np.asarray(labels, dtype=np.intp)
    batch, k = predicted.shape
    if labels.shape != (batch,):
        raise DimensionError(f"{labels.shape} labels for {batch} predictions")
    if labels.size and not (0 <= labels.min() and labels.max() < k):
        raise DataError(f"label outside {k} classes: {labels.tolist()}")
    index = (np.arange(batch), labels)
    picked = predicted.data[index]
    clipped = np.maximum(picked, LOSS_FLOOR)

    def backward(g):
        if predicted.requires_grad:
            d_predicted = np.zeros(predicted.shape)
            d_predicted[index] = -g / clipped * (picked >= LOSS_FLOOR)
            predicted.accumulate_grad(d_predicted)

    return tt.make_output(-np.log(clipped), (predicted,), backward)


def average_losses(losses: Tensor) -> Tensor:
    """Mean of a (B,) loss vector, summed left to right; one op."""
    if losses.data.ndim != 1 or losses.size == 0:
        raise ParameterError(f"need a non-empty loss vector, got {losses.shape}")
    scale = 1.0 / losses.size

    def backward(g):
        if losses.requires_grad:
            losses.accumulate_grad(np.full(losses.shape, float(g) * scale))

    return tt.make_output(np.cumsum(losses.data)[-1] * scale, (losses,), backward)


def bridge_forward(bridge: BridgeParams, sequences: list[Tensor],
                   keeps: list[np.ndarray] | None = None) -> Tensor:
    """``(x * keep) @ W + b`` over a batch of (rows, d_in) sequences as one
    tape op, returning (B, T, d_rnn).  Each sequence times its bridge mask
    (``keeps`` None drops nothing) is written into one zero-padded
    (B, T, d_in) array, which one GEMM projects; each sequence gets its
    own rows of the input gradient, masked.  The backward keeps each mask
    as a ``tt.held_mask``, not the padded array: it writes that array
    again, bit for bit, for W's gradient."""
    w, b = bridge.w, bridge.b
    d_in, d_rnn = w.shape
    for i, s in enumerate(sequences):
        if s.data.ndim != 2 or s.shape[1] != d_in:
            raise DimensionError(f"bridge input {s.shape} vs weight {w.shape}")
        if keeps is not None and keeps[i].shape != s.shape:
            raise DimensionError(
                f"bridge mask {keeps[i].shape} vs sequence {s.shape}")
    lengths = [len(s.data) for s in sequences]
    times_keep = [None] * len(sequences) if keeps is None else [
        tt.held_mask(keep) for keep in keeps]

    def padded():
        """The masked sequences, zero-padded, as (B * T, d_in) rows."""
        x = np.zeros((len(sequences), max(lengths), d_in))
        for i, s in enumerate(sequences):
            x[i, :lengths[i]] = (s.data if times_keep[i] is None
                                 else times_keep[i](s.data))
        return x.reshape(-1, d_in)

    data = (padded() @ w.data).reshape(len(sequences), -1, d_rnn) + b.data

    def backward(g):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 1)))
        g2 = g.reshape(-1, d_rnn)
        if w.requires_grad:
            w.accumulate_grad(padded().T @ g2)
        if any(s.requires_grad for s in sequences):
            dx = (g2 @ w.data.T).reshape(g.shape[:2] + (d_in,))
            for i, s in enumerate(sequences):
                if s.requires_grad:
                    rows = dx[i, :lengths[i]]
                    s.accumulate_grad(rows if times_keep[i] is None
                                      else times_keep[i](rows))

    return tt.make_output(data, (*sequences, w, b), backward)


class HeadMasks(NamedTuple):
    """One sequence's head dropout masks, in the shape applied."""

    bridge: np.ndarray  # (rows, d_in): one per row of the sequence
    classifier: np.ndarray  # (width,): the sequence's summary row


def pipeline_forward(sequences: list[Tensor], bridge: BridgeParams,
                     cell, head: ClassifierParams,
                     masks: list[HeadMasks] | None = None, labels=None):
    """The full head once over a batch of sequences, one row per real token;
    returns ((B, k) probabilities, (B,) losses or None without ``labels``).

    The bridge stacks, masks and projects the batch as one op into
    (B, T, d_rnn); it, the scan (``cell`` None: mean pooling), summary,
    classifier and loss each run once, with a length vector.  ``masks``
    holds each sequence's :class:`HeadMasks`, in the shape applied, or is
    None for no dropout.
    """
    if not sequences:
        raise ParameterError("need at least one sequence")
    lengths = np.array([len(s.data) for s in sequences], dtype=np.intp)
    bridge_keeps = head_keep = None
    if masks is not None:
        bridge_keeps = [m.bridge for m in masks]
        head_keep = np.stack([m.classifier for m in masks])
    z = bridge_forward(bridge, sequences, bridge_keeps)
    if cell is None:
        summary = mean_pool_forward(z, lengths)
    else:
        bidirectional = isinstance(cell, BiRnnParams)
        scan = birnn_forward if bidirectional else rnn_forward
        states = scan(cell, z, lengths)
        summary = summarize(states, summary_rows(lengths, states.shape[2],
                                                 bidirectional))
    probs = classify(head, summary, head_keep)
    losses = None if labels is None else cross_entropy_loss(probs, labels)
    return probs, losses


def init_bridge(d_in: int, d_rnn: int, rng: RandomSource) -> BridgeParams:
    limit = np.sqrt(6.0 / (d_in + d_rnn))
    return BridgeParams(
        w=Tensor(rng.uniform(-limit, limit, (d_in, d_rnn)), requires_grad=True),
        b=Tensor(np.zeros(d_rnn), requires_grad=True),
    )


def init_cell(variant: str, d_in: int, hidden: int,
              rng: RandomSource) -> RnnCellParams:
    if variant not in VARIANT_GATES:
        raise ParameterError(f"unknown rnn variant {variant!r}")
    p_limit = np.sqrt(6.0 / (d_in + hidden))
    q_limit = np.sqrt(6.0 / (2 * hidden))
    gates = len(VARIANT_GATES[variant])
    # per gate in VARIANT_GATES order, its P block drawn before its Q block
    p, q = zip(*[(rng.uniform(-p_limit, p_limit, (hidden, d_in)),
                  rng.uniform(-q_limit, q_limit, (hidden, hidden)))
                 for _ in range(gates)])
    return RnnCellParams(
        variant=variant,
        p=Tensor(np.concatenate(p), requires_grad=True),
        q=Tensor(np.concatenate(q), requires_grad=True),
        b=Tensor(np.zeros(gates * hidden), requires_grad=True))


def init_bicell(variant: str, d_in: int, hidden: int,
                rng: RandomSource) -> BiRnnParams:
    return BiRnnParams(fw=init_cell(variant, d_in, hidden, rng),
                       bw=init_cell(variant, d_in, hidden, rng))


def init_classifier(in_dim: int, dense_dim: int, n_classes: int,
                    dropout: float, rng: RandomSource) -> ClassifierParams:
    dense_limit = np.sqrt(6.0 / (in_dim + dense_dim))
    out_limit = np.sqrt(6.0 / (dense_dim + n_classes))
    return ClassifierParams(
        w_dense=Tensor(rng.uniform(-dense_limit, dense_limit, (dense_dim, in_dim)),
                       requires_grad=True),
        b_dense=Tensor(np.zeros(dense_dim), requires_grad=True),
        w_out=Tensor(rng.uniform(-out_limit, out_limit, (n_classes, dense_dim)),
                     requires_grad=True),
        b_out=Tensor(np.zeros(n_classes), requires_grad=True),
        dropout=dropout,
    )
