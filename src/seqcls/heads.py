"""Recurrent classification heads over contextual embeddings.

The chain: embeddings -> dropout -> linear bridge -> recurrent scan
(vanilla/LSTM/GRU, unidirectional or bidirectional) -> dropout ->
dense+ReLU -> output layer -> softmax.  Sequences are summarized by the
final valid hidden state; bidirectional runs concatenate the forward
state at the last valid position with the backward state at position 0.
An order-blind variant replaces the recurrent scan with mean pooling
over valid positions, as a baseline for order-sensitivity comparisons.

Weight layouts: per-gate input maps P are (hidden x d_in), recurrent
maps Q are (hidden x hidden), applied as P x + Q h + b on column
vectors; the bridge and classifier apply row-vector maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .encoder import EmbeddingSequence
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


def _gate(gate: GateParams, x: Tensor, h: Tensor) -> Tensor:
    return tt.add(tt.add(tt.matvec(gate.p, x), tt.matvec(gate.q, h)), gate.b)


def initial_state(cell: RnnCellParams):
    zero = Tensor(np.zeros(cell.hidden))
    return (zero, zero) if cell.variant == "lstm" else zero


def hidden_of(state) -> Tensor:
    return state[0] if isinstance(state, tuple) else state


def rnn_step(cell: RnnCellParams, x_t: Tensor, state):
    """One recurrence update; the state is (h, c) for LSTM, h otherwise."""
    if x_t.shape != (cell.input_dim,):
        raise DimensionError(
            f"input width {x_t.shape} vs cell input {cell.input_dim}"
        )
    h = hidden_of(state)
    if h.shape != (cell.hidden,):
        raise DimensionError(f"state width {h.shape} vs hidden {cell.hidden}")
    gates = cell.gates
    if cell.variant == "vanilla":
        return tt.tanh(_gate(gates["h"], x_t, h))
    if cell.variant == "lstm":
        _, c = state
        candidate = tt.tanh(_gate(gates["c"], x_t, h))
        forget = tt.sigmoid(_gate(gates["f"], x_t, h))
        update = tt.sigmoid(_gate(gates["i"], x_t, h))
        output = tt.sigmoid(_gate(gates["o"], x_t, h))
        c_next = tt.add(tt.mul(update, candidate), tt.mul(forget, c))
        return tt.mul(output, tt.tanh(c_next)), c_next
    update = tt.sigmoid(_gate(gates["z"], x_t, h))
    reset = tt.sigmoid(_gate(gates["r"], x_t, h))
    gate = gates["h"]
    candidate = tt.tanh(tt.add(
        tt.add(tt.matvec(gate.p, x_t), tt.matvec(gate.q, tt.mul(reset, h))),
        gate.b))
    one_minus = tt.add(tt.neg(update), Tensor(np.ones(cell.hidden)))
    return tt.add(tt.mul(one_minus, candidate), tt.mul(update, h))


def rnn_forward(cell: RnnCellParams, sequence: Tensor, valid_len: int) -> Tensor:
    """Left-to-right scan from the zero state; positions past valid_len
    carry the state unchanged (pad-skip)."""
    n = sequence.shape[0]
    if not 0 <= valid_len <= n:
        raise ParameterError(f"valid length {valid_len} outside [0, {n}]")
    state = initial_state(cell)
    rows = []
    for t in range(n):
        if t < valid_len:
            state = rnn_step(cell, tt.row(sequence, t), state)
        rows.append(hidden_of(state))
    return tt.stack_rows(rows)


def birnn_forward(params: BiRnnParams, sequence: Tensor, valid_len: int) -> Tensor:
    """Row t holds [forward state after tokens 0..t, backward state after
    tokens valid_len-1..t]; pad rows carry forward, zero backward."""
    forward = rnn_forward(params.fw, sequence, valid_len)
    state = initial_state(params.bw)
    backward_rows = [hidden_of(state)] * sequence.shape[0]
    for t in range(valid_len - 1, -1, -1):
        state = rnn_step(params.bw, tt.row(sequence, t), state)
        backward_rows[t] = hidden_of(state)
    return tt.concat(forward, tt.stack_rows(backward_rows), axis=1)


def summarize(states: Tensor, valid_len: int, bidirectional: bool) -> Tensor:
    """Final valid hidden state; bidirectional: forward-final + backward-first."""
    last = max(valid_len - 1, 0)
    if not bidirectional:
        return tt.row(states, last)
    width = states.shape[1]
    if width % 2 != 0:
        raise DimensionError(f"bidirectional states must have even width, got {width}")
    h = width // 2
    return tt.concat(tt.slice_vec(tt.row(states, last), 0, h),
                     tt.slice_vec(tt.row(states, 0), h, width), axis=0)


def classify(head: ClassifierParams, states: Tensor, valid_len: int,
             rng: RandomSource | None = None, training: bool = False,
             bidirectional: bool = False) -> Tensor:
    """Dropout, summarize, dense+ReLU, output layer, softmax."""
    dropped = tt.dropout(states, head.dropout, rng, training)
    summary = summarize(dropped, valid_len, bidirectional)
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


def _bridge_inputs(embeddings: EmbeddingSequence, bridge: BridgeParams,
                   dropout_rate: float, rng, training: bool) -> Tensor:
    dropped = tt.dropout(embeddings.vectors, dropout_rate, rng, training)
    return tt.add(tt.matmul(dropped, bridge.w), bridge.b)


def pipeline_forward(embeddings: EmbeddingSequence, bridge: BridgeParams,
                     cell, head: ClassifierParams,
                     rng: RandomSource | None = None, training: bool = False,
                     label: int | None = None):
    """Full head chain over one embedded sequence; returns (probs, loss)."""
    bidirectional = isinstance(cell, BiRnnParams)
    z = _bridge_inputs(embeddings, bridge, head.dropout, rng, training)
    scan = birnn_forward if bidirectional else rnn_forward
    states = scan(cell, z, embeddings.valid_len)
    probs = classify(head, states, embeddings.valid_len, rng, training,
                     bidirectional)
    loss = None if label is None else cross_entropy_loss(probs, label)
    return probs, loss


def mean_pool_forward(embeddings: EmbeddingSequence, bridge: BridgeParams,
                      head: ClassifierParams,
                      rng: RandomSource | None = None, training: bool = False,
                      label: int | None = None):
    """Order-blind baseline: the recurrent scan replaced by a mean over
    valid positions; everything else identical to pipeline_forward."""
    z = _bridge_inputs(embeddings, bridge, head.dropout, rng, training)
    valid = embeddings.valid_len
    pooled = tt.scale(tt.sum_rows(tt.slice_rows(z, 0, valid)), 1.0 / max(valid, 1))
    probs = classify(head, tt.stack_rows([pooled]), 1, rng, training, False)
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
