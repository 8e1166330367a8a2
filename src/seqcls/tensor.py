"""Dense tensors with reverse-mode automatic differentiation.

Forward ops run eagerly on float64 numpy arrays.  While a :class:`Tape`
is active, every op whose output depends on a gradient-carrying input
records its output with one backward rule through ``make_output``.  A
rule is ``backward(g)``: it receives the output's gradient ``g`` and
accumulates its inputs' gradients into their ``grad`` slots.
``Tape.backward`` walks the records in reverse order and calls a rule
only when its output received a gradient; an output the loss never
reached runs no rule.  The backward spends the tape: it releases each
record, the rule with every array it holds and the output, as soon as
the rule has run or been skipped, so the graph is gone when the
backward returns.  An op no tape records (evaluation mode) keeps nothing
for a backward: by ``recording``, the scan then writes no step grids and
the encoder builds no parameter list, sublayer backward or held mask,
with the same bits.  An op's array math may live in a rule that
returns its output and ``backward(g, ...)`` (``layer_norm_rule``,
``gather_rows_rule``); ``from_rule`` records such a rule as one op, and a
fused op, such as the encoder's, runs several rules under one record.
A backward holds what it cannot rebuild bit for bit and rebuilds the
rest: a rule that reads its input is handed it at backward time, and a
``held_mask`` keeps a dropout mask as one byte per entry.

Shapes are explicit and row-major, and there is no implicit
broadcasting: a bias is an operand of the op that adds it (``linear``,
``layer_norm``), whose backward rule sums its gradient over the rows.

``check_gradients`` compares tape gradients against central finite
differences and is the verification path for every layer built on top
of this module.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, ParameterError
from .rng import RandomSource

DTYPE = np.float64


class Tensor:
    """A dense n-dimensional array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=DTYPE, copy=True)
        else:
            self.grad += g

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of ops for one backward pass.

    Ops are appended in execution order, which is a topological order by
    construction; ``backward`` visits each record once, in reverse, and
    skips the outputs the loss never reached.  The backward spends the
    tape: each record is released once its rule has run or been skipped,
    and a second backward is an error.  ``len`` counts the ops recorded,
    spent or not.  A tape is confined to one logical thread of execution.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._count = 0
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.pop()

    def record(self, out: Tensor, backward: Callable[[np.ndarray], None]) -> None:
        self._records.append((out, backward))
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and run, once each, the backward rules
        of the outputs that received a gradient, releasing each record as
        its turn passes."""
        if self._spent:
            raise ParameterError("this tape's backward has already run")
        if loss.size != 1:
            raise DimensionError(
                f"backward needs a scalar loss, got shape {loss.shape}"
            )
        if not np.isfinite(loss.data).all():
            raise NumericError("loss is not finite")
        self._spent = True
        loss.accumulate_grad(np.ones_like(loss.data))
        records = self._records
        while records:
            out, rule = records.pop()
            if out.grad is not None:
                rule(out.grad)


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def make_output(data: np.ndarray, inputs: Iterable[Tensor],
                backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op's output; while a tape is active and an input carries a
    gradient, record ``backward``, which the tape calls with the output's
    gradient.  Every op, here and in the layers, records through it."""
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, backward)
    return out


def recording(inputs: Iterable[Tensor]) -> bool:
    """Whether ``make_output`` would record an op over ``inputs`` now: a
    tape is active and an input carries a gradient."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def from_rule(data: np.ndarray,
              rule: Callable[[np.ndarray, np.ndarray], np.ndarray],
              x: Tensor, params: Sequence[Tensor]) -> Tensor:
    """One op over ``x`` and ``params`` from an array rule's output and its
    ``rule(g, x)``, which is handed ``x.data``, accumulates the parameter
    gradients and returns the gradient of ``x``; that gradient is
    accumulated only when ``x`` carries one."""

    def backward(g):
        dx = rule(g, x.data)
        if x.requires_grad:
            x.accumulate_grad(dx)

    return make_output(data, (x, *params), backward)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of ``a`` (leading batch axes allowed) and a 2-D ``b``:
    (..., n) @ (n, m) -> (..., m), run as one GEMM."""
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    a2 = a.data.reshape(-1, b.shape[0])
    data = (a2 @ b.data).reshape(*a.shape[:-1], b.shape[1])

    def backward(g):
        g2 = g.reshape(-1, b.shape[1])
        if a.requires_grad:
            a.accumulate_grad((g2 @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            b.accumulate_grad(a2.T @ g2)

    return make_output(data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w.T + b: every row of ``x`` (B, n) through an (m, n) weight and
    an (m,) bias, one op."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1]
            or b.shape != (w.shape[0],)):
        raise DimensionError(
            f"linear shapes incompatible: {x.shape} @ {w.shape}.T + {b.shape}")
    data = x.data @ w.data.T + b.data

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g @ w.data)
        if w.requires_grad:
            w.accumulate_grad(g.T @ x.data)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    return make_output(data, (x, w, b), backward)


# ---------------------------------------------------------------------------
# elementwise


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product of same-shape tensors."""
    if a.shape != b.shape:
        raise DimensionError(f"mul shapes incompatible: {a.shape} * {b.shape}")
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return make_output(data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (x.data > 0.0))

    return make_output(data, (x,), backward)


# ---------------------------------------------------------------------------
# reductions and structure


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``."""
    if x.data.ndim == 0 or x.shape[axis] < 1:
        raise DimensionError(f"softmax needs a non-empty axis, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            x.accumulate_grad(data * (g - dot))

    return make_output(data, (x,), backward)


def concat(a: Tensor, b: Tensor, axis: int = 0) -> Tensor:
    """Join two tensors along ``axis``; backward splits the gradient."""
    if a.data.ndim != b.data.ndim:
        raise DimensionError(f"concat rank mismatch: {a.shape} vs {b.shape}")
    for d in range(a.data.ndim):
        if d != axis % a.data.ndim and a.shape[d] != b.shape[d]:
            raise DimensionError(f"concat shapes incompatible: {a.shape} vs {b.shape}")
    data = np.concatenate([a.data, b.data], axis=axis)
    split = a.shape[axis % a.data.ndim]

    def backward(g):
        ga, gb = np.split(g, [split], axis=axis)
        if a.requires_grad:
            a.accumulate_grad(ga)
        if b.requires_grad:
            b.accumulate_grad(gb)

    return make_output(data, (a, b), backward)


def sum_all(x: Tensor) -> Tensor:
    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, float(g)))

    return make_output(np.asarray(x.data.sum()), (x,), backward)


def row(x: Tensor, i: int) -> Tensor:
    """Row ``i`` of a 2-D tensor as a vector."""
    if x.data.ndim != 2:
        raise DimensionError(f"row needs a 2-D tensor, got {x.shape}")
    i = int(i)

    def backward(g):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            dx[i] = g
            x.accumulate_grad(dx)

    return make_output(x.data[i].copy(), (x,), backward)


def gather_rows_rule(table: Tensor, ids: Sequence[int]):
    """Rows of ``table`` by index (embedding lookup): the one copy of this
    math, shared by ``gather_rows`` and the encoder op.

    Returns the rows, a fresh array, and ``backward(g)``, which adds the
    rows' gradient into ``table.grad``.
    """
    if table.data.ndim != 2:
        raise DimensionError(f"gather_rows needs a 2-D table, got {table.shape}")
    idx = np.asarray(ids, dtype=np.intp)

    def backward(g):
        # repeated ids sum their rows in id order, into the touched rows only
        if table.requires_grad:
            unique, inverse = np.unique(idx, return_inverse=True)
            summed = np.zeros((len(unique), table.shape[1]))
            np.add.at(summed, inverse, g)
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            table.grad[unique] += summed

    return table.data[idx], backward


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Select rows of ``table`` by index (embedding lookup)."""
    data, backward = gather_rows_rule(table, ids)
    return make_output(data, (table,), backward)


# ---------------------------------------------------------------------------
# normalization and regularization


def layer_norm_rule(z: np.ndarray, gain: Tensor, bias: Tensor):
    """Per-row normalization of the array ``z`` over its last axis, then
    affine gain/bias: the one copy of this math, shared by ``layer_norm``
    and the encoder op.

    Returns the output, ``backward(g)`` and ``output()``.  Both keep only
    the normalized rows ``xhat`` and their (rows, 1) inverse deviations,
    not ``z`` or the output.  ``backward`` accumulates the gain and bias
    gradients and returns the gradient of ``z``.  ``output()`` rebuilds
    the output as a new array with the forward's two ops, ``xhat * gain``
    then ``+= bias``, so its bits are the output's: a rule that reads this
    output can be handed it again at backward time.  The statistics are
    the steps ``np.mean`` and ``np.var`` take, so the output matches
    theirs bit for bit.  Every step runs in place on arrays the rule
    allocated; ``z``, ``g``, the gain and the bias are only read.
    """
    d = z.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(f"layer_norm affine shapes {gain.shape}/"
                             f"{bias.shape} do not match width {d}")
    mean = z.sum(axis=-1, keepdims=True)
    mean /= d
    xhat = z - mean  # centred, then scaled
    inv = (xhat * xhat).sum(axis=-1, keepdims=True)
    inv /= d
    inv += 1e-5
    xhat *= np.divide(1.0, np.sqrt(inv, out=inv), out=inv)

    def output():
        data = xhat * gain.data
        data += bias.data
        return data

    def backward(g):
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        gx = g * gain.data
        m1 = gx.sum(axis=-1, keepdims=True) / d
        m2 = (gx * xhat).sum(axis=-1, keepdims=True) / d
        gx -= m1
        gx -= xhat * m2
        gx *= inv
        return gx

    return output(), backward, output


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization over the last axis, then affine gain/bias."""
    data, rule, _ = layer_norm_rule(x.data, gain, bias)
    return from_rule(data, lambda g, _: rule(g), x, (gain, bias))


def dropout_mask(rng: RandomSource | None, p: float,
                 shape) -> np.ndarray | None:
    """Inverted-dropout mask from one ``rng.bernoulli`` draw: 0 where
    dropped, 1/(1-p) where kept.  A random source means training; with
    none (inference), and for p == 0, it is None and draws nothing."""
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return None
    return rng.bernoulli(1.0 - p, shape) / (1.0 - p)


def held_mask(keep: np.ndarray | None):
    """A ``dropout_mask`` as a backward holds it: ``keep != 0``, one byte
    per entry, and the one value its kept entries hold, 1/(1-p).  Returns
    ``times_keep(a)``, a new array with the bits of ``a * keep``, because
    it runs ``(a * kept) * scale``: ``a * 1`` is ``a`` exactly, ``±0``
    times the positive scale is the same ``±0``, and a NaN stays the same
    NaN.  None, the mask that drops nothing, stays None."""
    if keep is None:
        return None
    kept = keep != 0.0
    scale = keep.max(initial=0.0)

    def times_keep(a):
        out = a * kept
        out *= scale
        return out

    return times_keep


def dropout(x: Tensor, keep: np.ndarray | None) -> Tensor:
    """``x`` times a ``dropout_mask`` in the shape applied, ``x``'s own;
    None is the identity.  The backward rule uses the same mask."""
    if keep is None:
        return x
    if keep.shape != x.shape:
        raise DimensionError(f"dropout mask {keep.shape} vs input {x.shape}")
    data = x.data * keep

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * keep)

    return make_output(data, (x,), backward)


# ---------------------------------------------------------------------------
# verification


def check_gradients(f: Callable[[], Tensor], params: Iterable[Tensor],
                    h: float = 1e-5) -> float:
    """Worst relative error between tape gradients and central differences.

    ``f`` must rebuild the scalar loss from ``params`` on every call and
    be deterministic (evaluation mode, or a fixed dropout stream per
    call).  Relative error is |a - n| / max(|a|, |n|, 1e-8) per
    coordinate; the maximum over all coordinates of all params is
    returned.
    """
    if h <= 0:
        raise ParameterError(f"finite-difference step must be positive, got {h}")
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
        if not np.isfinite(loss.data).all():
            raise NumericError("loss is not finite at the evaluation point")
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(f().data)
            flat[i] = orig - h
            down = float(f().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
