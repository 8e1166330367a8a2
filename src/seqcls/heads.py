"""Recurrent classification heads over contextual embeddings.

The chain: embeddings -> dropout -> linear bridge -> recurrent scan
(vanilla/LSTM/GRU, unidirectional or bidirectional) -> dropout ->
dense+ReLU -> output layer -> softmax.  Every input row is a real token.
Sequences are summarized by the last hidden state; bidirectional runs
concatenate the forward state at the last row with the backward state
at row 0.  An order-blind variant replaces the recurrent scan with mean
pooling over all rows, as a baseline for order-sensitivity comparisons.

Each scan direction is one tape op (Appleyard, Kocisky & Blunsom, 2016):
the gates are stacked in VARIANT_GATES order, the input projections of
all positions are one GEMM, every step does one recurrent matvec
(GRU's candidate keeps its own Q_h (r * h)), and the backward rule runs
BPTT in numpy.  The tests keep a per-step reference built from elementary
tape ops, one graph per step, and check the fused scan against it.

Weight layouts: per-gate input maps P are (hidden x d_in), recurrent
maps Q are (hidden x hidden), applied as P x + Q h + b on column
vectors; the bridge and classifier apply row-vector maps.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class GateParams:
    p: Tensor
    q: Tensor
    b: Tensor

    def named_parameters(self, prefix: str = ""):
        yield f"{prefix}p", self.p
        yield f"{prefix}q", self.q
        yield f"{prefix}b", self.b


@dataclass
class RnnCellParams:
    variant: str
    gates: dict[str, GateParams]

    def __post_init__(self):
        if self.variant not in VARIANT_GATES:
            raise ParameterError(f"unknown rnn variant {self.variant!r}")
        expected = VARIANT_GATES[self.variant]
        if tuple(self.gates) != expected:
            raise ParameterError(
                f"{self.variant} needs gates {expected}, got {tuple(self.gates)}"
            )
        h = self.hidden
        for name, gate in self.gates.items():
            if gate.p.shape[0] != h or gate.q.shape != (h, h) or gate.b.shape != (h,):
                raise DimensionError(f"gate {name!r} shapes inconsistent")

    @property
    def hidden(self) -> int:
        return next(iter(self.gates.values())).q.shape[0]

    @property
    def input_dim(self) -> int:
        return next(iter(self.gates.values())).p.shape[1]

    def named_parameters(self, prefix: str = ""):
        for name, gate in self.gates.items():
            yield from gate.named_parameters(f"{prefix}{name}.")


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
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def n_classes(self) -> int:
        return self.w_out.shape[0]

    def named_parameters(self, prefix: str = ""):
        yield f"{prefix}w_dense", self.w_dense
        yield f"{prefix}b_dense", self.b_dense
        yield f"{prefix}w_out", self.w_out
        yield f"{prefix}b_out", self.b_out


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """``tt.sigmoid``'s values on a bare array: exp never overflows."""
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


# Each recurrence runs over the stacked input projections gx (one row per
# step, gates in VARIANT_GATES order) and the stacked recurrent map q.  The
# forward pass returns hs, whose row t + 1 is the hidden state after step
# t (row 0 is the zero initial state), plus what its backward pass needs.
# The backward pass turns dh, the gradient on hs[1:], into da, the
# gradient on every gate pre-activation (one row per step), and dq.  The
# factors that do not depend on the carried gradient are computed for
# all steps before the loop, which keeps only the recurrence inside it.


def _vanilla_forward(gx: np.ndarray, q: np.ndarray):
    hs = np.zeros((len(gx) + 1, q.shape[1]))
    h = hs[0]
    for t in range(len(gx)):
        h = hs[t + 1] = np.tanh(gx[t] + q @ h)
    return hs, ()


def _vanilla_backward(dh: np.ndarray, q: np.ndarray, hs: np.ndarray, saved):
    slope = 1.0 - hs[1:] * hs[1:]
    q_t = q.T
    da = np.empty_like(dh)
    carry = np.zeros(dh.shape[1])
    for t in range(len(dh) - 1, -1, -1):
        row = da[t] = (dh[t] + carry) * slope[t]
        carry = q_t @ row
    return da, da.T @ hs[:-1]


def _lstm_forward(gx: np.ndarray, q: np.ndarray):
    steps, hidden = len(gx), q.shape[1]
    hs = np.zeros((steps + 1, hidden))
    cs = np.zeros((steps + 1, hidden))
    candidates = np.empty((steps, hidden))
    gates = np.empty((steps, 3 * hidden))  # forget, update, output
    cell_tanh = np.empty((steps, hidden))
    h, c = hs[0], cs[0]
    for t in range(steps):
        a = gx[t] + q @ h
        candidate = candidates[t] = np.tanh(a[:hidden])
        s = gates[t] = _sigmoid(a[hidden:])
        c = cs[t + 1] = s[hidden:2 * hidden] * candidate + s[:hidden] * c
        tc = cell_tanh[t] = np.tanh(c)
        h = hs[t + 1] = s[2 * hidden:] * tc
    return hs, (cs, candidates, gates, cell_tanh)


def _lstm_backward(dh: np.ndarray, q: np.ndarray, hs: np.ndarray, saved):
    cs, candidates, gates, cell_tanh = saved
    steps, hidden = dh.shape
    forget, update, output = (gates[:, k * hidden:(k + 1) * hidden]
                              for k in range(3))
    # candidate, forget and update pre-activations per unit of d_c
    per_dc = np.stack((update * (1.0 - candidates * candidates),
                       cs[:-1] * forget * (1.0 - forget),
                       candidates * update * (1.0 - update)), axis=1)
    per_dh = cell_tanh * output * (1.0 - output)
    dc_per_dh = output * (1.0 - cell_tanh * cell_tanh)
    q_t = q.T
    da = np.empty((steps, 4 * hidden))
    da_cfi = da[:, :3 * hidden].reshape(steps, 3, hidden)
    da_o = da[:, 3 * hidden:]
    carry_h = np.zeros(hidden)
    carry_c = np.zeros(hidden)
    for t in range(steps - 1, -1, -1):
        d_h = dh[t] + carry_h
        d_c = carry_c + d_h * dc_per_dh[t]
        da_cfi[t] = per_dc[t] * d_c
        da_o[t] = d_h * per_dh[t]
        carry_c = d_c * forget[t]
        carry_h = q_t @ da[t]
    return da, da.T @ hs[:-1]


def _gru_forward(gx: np.ndarray, q: np.ndarray):
    steps, hidden = len(gx), q.shape[1]
    q_zr, q_h = q[:2 * hidden], q[2 * hidden:]
    gx_zr, gx_h = gx[:, :2 * hidden], gx[:, 2 * hidden:]
    hs = np.zeros((steps + 1, hidden))
    gates = np.empty((steps, 2 * hidden))  # update, reset
    candidates = np.empty((steps, hidden))
    h = hs[0]
    for t in range(steps):
        s = gates[t] = _sigmoid(gx_zr[t] + q_zr @ h)
        update = s[:hidden]
        candidate = candidates[t] = np.tanh(gx_h[t] + q_h @ (s[hidden:] * h))
        h = hs[t + 1] = (1.0 - update) * candidate + update * h
    return hs, (gates, candidates)


def _gru_backward(dh: np.ndarray, q: np.ndarray, hs: np.ndarray, saved):
    gates, candidates = saved
    steps, hidden = dh.shape
    update, reset = gates[:, :hidden], gates[:, hidden:]
    previous = hs[:-1]
    # update and candidate pre-activations per unit of d_h; reset per unit
    # of the gradient on reset * previous
    per_dh_z = (previous - candidates) * update * (1.0 - update)
    per_dh_c = (1.0 - update) * (1.0 - candidates * candidates)
    per_drh_r = previous * reset * (1.0 - reset)
    q_zr_t, q_h_t = q[:2 * hidden].T, q[2 * hidden:].T
    da = np.empty((steps, 3 * hidden))
    da_z, da_r, da_c = da[:, :hidden], da[:, hidden:2 * hidden], da[:, 2 * hidden:]
    da_zr = da[:, :2 * hidden]
    carry = np.zeros(hidden)
    for t in range(steps - 1, -1, -1):
        d_h = dh[t] + carry
        d_c = da_c[t] = d_h * per_dh_c[t]
        d_rh = q_h_t @ d_c
        da_z[t] = d_h * per_dh_z[t]
        da_r[t] = d_rh * per_drh_r[t]
        carry = d_h * update[t] + d_rh * reset[t] + q_zr_t @ da_zr[t]
    dq = np.concatenate((da_zr.T @ previous, da_c.T @ (reset * previous)))
    return da, dq


_RECURRENCES = {
    "vanilla": (_vanilla_forward, _vanilla_backward),
    "lstm": (_lstm_forward, _lstm_backward),
    "gru": (_gru_forward, _gru_backward),
}


def _scan(cell: RnnCellParams, sequence: Tensor, reverse: bool) -> Tensor:
    """One direction of the recurrence over every row, as a single tape
    op with a hand-written backward pass through time.

    The gate weights are stacked on every call (they change after each
    optimizer step), the input projections of all steps are one GEMM,
    and each step does one recurrent matvec.  Row t of the output is the
    state after consuming row t: forward from row 0, reverse from the
    last row.
    """
    if sequence.data.ndim != 2 or sequence.shape[1] != cell.input_dim:
        raise DimensionError(
            f"input shape {sequence.shape} vs cell input {cell.input_dim}"
        )
    gates = list(cell.gates.values())
    p = np.concatenate([g.p.data for g in gates])
    q = np.concatenate([g.q.data for g in gates])
    b = np.concatenate([g.b.data for g in gates])
    x = sequence.data[::-1] if reverse else sequence.data
    forward, backward = _RECURRENCES[cell.variant]
    hs, saved = forward(x @ p.T + b, q)
    hidden = cell.hidden
    data = hs[:0:-1] if reverse else hs[1:]

    def build(out: Tensor):
        def rule():
            g = out.grad
            da, dq = backward(g[::-1] if reverse else g, q, hs, saved)
            dp = da.T @ x
            db = da.sum(axis=0)
            for k, gate in enumerate(gates):
                rows = slice(k * hidden, (k + 1) * hidden)
                for param, grad in ((gate.p, dp), (gate.q, dq), (gate.b, db)):
                    if param.requires_grad:
                        param.accumulate_grad(grad[rows])
            if sequence.requires_grad:
                sequence.accumulate_grad((da[::-1] if reverse else da) @ p)
        return rule

    params = [t for g in gates for t in (g.p, g.q, g.b)]
    return tt.make_output(data, [sequence, *params], build)


def rnn_forward(cell: RnnCellParams, sequence: Tensor) -> Tensor:
    """Left-to-right scan from the zero state: row t holds the state after
    tokens 0..t.  One tape op."""
    return _scan(cell, sequence, reverse=False)


def birnn_forward(params: BiRnnParams, sequence: Tensor) -> Tensor:
    """Row t holds [forward state after tokens 0..t, backward state after
    tokens T-1..t], T the row count.  One tape op per direction."""
    return tt.concat(_scan(params.fw, sequence, reverse=False),
                     _scan(params.bw, sequence, reverse=True),
                     axis=1)


def summarize(states: Tensor, bidirectional: bool) -> Tensor:
    """Last hidden state; bidirectional: forward-last + backward-first."""
    if not bidirectional:
        return tt.row(states, -1)
    width = states.shape[1]
    if width % 2 != 0:
        raise DimensionError(f"bidirectional states must have even width, got {width}")
    h = width // 2
    return tt.concat(tt.slice_vec(tt.row(states, -1), 0, h),
                     tt.slice_vec(tt.row(states, 0), h, width), axis=0)


def classify(head: ClassifierParams, states: Tensor,
             rng: RandomSource | None = None, training: bool = False,
             bidirectional: bool = False, rows: int | None = None) -> Tensor:
    """Dropout (mask drawn ``rows`` high), summarize, dense+ReLU, output
    layer, softmax."""
    dropped = tt.dropout(states, head.dropout, rng, training, rows)
    summary = summarize(dropped, bidirectional)
    if summary.shape != (head.w_dense.shape[1],):
        raise DimensionError(
            f"summary width {summary.shape} vs dense input {head.w_dense.shape[1]}"
        )
    dense = tt.relu(tt.add(tt.matvec(head.w_dense, summary), head.b_dense))
    logits = tt.add(tt.matvec(head.w_out, dense), head.b_out)
    return tt.softmax(logits, axis=-1)


def predict(probabilities) -> int:
    """Argmax class; exact ties go to the lowest index."""
    values = np.asarray(getattr(probabilities, "data", probabilities))
    return int(np.argmax(values))


def cross_entropy_loss(predicted: Tensor, true_label: int) -> Tensor:
    """-log predicted[label], floored at 1e-12."""
    k = predicted.shape[0]
    if not 0 <= true_label < k:
        raise DataError(f"label {true_label} outside {k} classes")
    return tt.neg(tt.log(tt.clip_min(tt.pick(predicted, true_label), LOSS_FLOOR)))


def average_losses(losses: list[Tensor]) -> Tensor:
    if not losses:
        raise ParameterError("cannot average zero losses")
    total = losses[0]
    for item in losses[1:]:
        total = tt.add(total, item)
    return tt.scale(total, 1.0 / len(losses))


def _bridge_inputs(embeddings: Tensor, bridge: BridgeParams,
                   dropout_rate: float, rng, training: bool,
                   rows: int | None) -> Tensor:
    dropped = tt.dropout(embeddings, dropout_rate, rng, training, rows)
    return tt.add(tt.matmul(dropped, bridge.w), bridge.b)


def pipeline_forward(embeddings: Tensor, bridge: BridgeParams,
                     cell, head: ClassifierParams,
                     rng: RandomSource | None = None, training: bool = False,
                     label: int | None = None, rows: int | None = None):
    """Full head chain over one sequence, one row per real token; returns
    (probs, loss).  Dropout masks are drawn ``rows`` high (``tt.dropout``)."""
    bidirectional = isinstance(cell, BiRnnParams)
    z = _bridge_inputs(embeddings, bridge, head.dropout, rng, training, rows)
    scan = birnn_forward if bidirectional else rnn_forward
    probs = classify(head, scan(cell, z), rng, training, bidirectional, rows)
    loss = None if label is None else cross_entropy_loss(probs, label)
    return probs, loss


def mean_pool_forward(embeddings: Tensor, bridge: BridgeParams,
                      head: ClassifierParams,
                      rng: RandomSource | None = None, training: bool = False,
                      label: int | None = None, rows: int | None = None):
    """Order-blind baseline: the recurrent scan replaced by a mean over
    all rows; everything else identical to pipeline_forward."""
    z = _bridge_inputs(embeddings, bridge, head.dropout, rng, training, rows)
    pooled = tt.scale(tt.sum_rows(z), 1.0 / z.shape[0])
    probs = classify(head, tt.stack_rows([pooled]), rng, training, False)
    loss = None if label is None else cross_entropy_loss(probs, label)
    return probs, loss


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
    gates = {
        name: GateParams(
            p=Tensor(rng.uniform(-p_limit, p_limit, (hidden, d_in)),
                     requires_grad=True),
            q=Tensor(rng.uniform(-q_limit, q_limit, (hidden, hidden)),
                     requires_grad=True),
            b=Tensor(np.zeros(hidden), requires_grad=True),
        )
        for name in VARIANT_GATES[variant]
    }
    return RnnCellParams(variant=variant, gates=gates)


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
