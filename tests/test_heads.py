"""Tests for the recurrent heads: cells, scans, classifier, and pipeline.

The batched head is checked against the per-sample head it replaced,
kept here as ``reference_*`` oracles built from elementary tape ops, and
the scan against the padded-grid scan it replaced, kept here as the
``padded_*`` oracles.  The scan returns each sequence's final state; the
oracles return every row's state, and ``summarize`` reads them at the
rows ``hd.summary_rows`` names, as the head did before the scan returned
its summaries itself.
"""

import math
import tracemalloc

import numpy as np
import pytest

from seqcls import heads as hd
from seqcls import tensor as tt
from seqcls.errors import DataError, DimensionError, ParameterError
from seqcls.rng import RandomSource
from seqcls.tensor import Tensor
from test_tensor import (add, clip_min, fit_mask, log, matvec, neg, pick, scale,
                         separate_masks, sigmoid, slice_vec, stack_rows,
                         summary_mask_row, sum_rows, tanh)


def zero_cell(variant, d_in, hidden):
    rows = len(hd.VARIANT_GATES[variant]) * hidden
    return hd.RnnCellParams(variant=variant, p=Tensor(np.zeros((rows, d_in))),
                            q=Tensor(np.zeros((rows, hidden))),
                            b=Tensor(np.zeros(rows)))


def _gate(cell, name, x, h):
    """P x + Q h + b of gate ``name``: its row block of each stacked
    product, read out through ``slice_vec``."""
    k = hd.VARIANT_GATES[cell.variant].index(name)

    def block(vec):
        return slice_vec(vec, k * cell.hidden, (k + 1) * cell.hidden)

    return add(add(block(matvec(cell.p, x)), block(matvec(cell.q, h))),
               block(cell.b))


def initial_state(cell):
    zero = Tensor(np.zeros(cell.hidden))
    return (zero, zero) if cell.variant == "lstm" else zero


def hidden_of(state):
    return state[0] if isinstance(state, tuple) else state


def rnn_step(cell, x_t, state):
    """One recurrence update from elementary tape ops, the oracle for the
    fused scan; the state is (h, c) for LSTM, h otherwise."""
    if x_t.shape != (cell.input_dim,):
        raise DimensionError(
            f"input width {x_t.shape} vs cell input {cell.input_dim}"
        )
    h = hidden_of(state)
    if h.shape != (cell.hidden,):
        raise DimensionError(f"state width {h.shape} vs hidden {cell.hidden}")
    if cell.variant == "vanilla":
        return tanh(_gate(cell, "h", x_t, h))
    if cell.variant == "lstm":
        _, c = state
        candidate = tanh(_gate(cell, "c", x_t, h))
        forget = sigmoid(_gate(cell, "f", x_t, h))
        update = sigmoid(_gate(cell, "i", x_t, h))
        output = sigmoid(_gate(cell, "o", x_t, h))
        c_next = add(tt.mul(update, candidate), tt.mul(forget, c))
        return tt.mul(output, tanh(c_next)), c_next
    update = sigmoid(_gate(cell, "z", x_t, h))
    reset = sigmoid(_gate(cell, "r", x_t, h))
    candidate = tanh(_gate(cell, "h", x_t, tt.mul(reset, h)))
    one_minus = add(neg(update), Tensor(np.ones(cell.hidden)))
    return add(tt.mul(one_minus, candidate), tt.mul(update, h))


def reference_rnn_forward(cell, sequence):
    """The per-step scan the fused ``rnn_forward`` replaced: one
    ``rnn_step`` graph per position."""
    state = initial_state(cell)
    rows = []
    for t in range(sequence.shape[0]):
        state = rnn_step(cell, tt.row(sequence, t), state)
        rows.append(hidden_of(state))
    return stack_rows(rows)


def reference_birnn_forward(params, sequence):
    """The per-step bidirectional scan the fused ``birnn_forward`` replaced."""
    forward = reference_rnn_forward(params.fw, sequence)
    state = initial_state(params.bw)
    backward_rows = [None] * sequence.shape[0]
    for t in range(sequence.shape[0] - 1, -1, -1):
        state = rnn_step(params.bw, tt.row(sequence, t), state)
        backward_rows[t] = hidden_of(state)
    return tt.concat(forward, stack_rows(backward_rows), axis=1)


def batch_of(matrices, requires_grad=False):
    """Zero-padded (B, T, d) tensor of the matrices and their lengths."""
    lengths = [len(m) for m in matrices]
    data = np.zeros((len(matrices), max(lengths), matrices[0].shape[1]))
    for i, m in enumerate(matrices):
        data[i, :len(m)] = m
    return Tensor(data, requires_grad=requires_grad), lengths


def reference_dropout(x, p, rng, rows=None):
    """Dropout as the per-sample head drew it: one draw per mask, ``rows``
    high (default ``len(x)``), its top rows applied; none without ``rng``."""
    if rng is None or p == 0.0:
        return x
    keep, = separate_masks(rng, p, [(rows or len(x.data), *x.shape[1:])])
    return tt.dropout(x, fit_mask(keep, x.shape))


def reference_summarize(states, bidirectional):
    """Last hidden state; bidirectional: forward-last + backward-first."""
    if not bidirectional:
        return tt.row(states, -1)
    width = states.shape[1]
    h = width // 2
    return tt.concat(slice_vec(tt.row(states, -1), 0, h),
                     slice_vec(tt.row(states, 0), h, width), axis=0)


def reference_classify(head, states, rng=None, bidirectional=False,
                       rows=None):
    """Per-sample classifier: dropout, summarize, dense+ReLU, output, softmax."""
    summary = reference_summarize(
        reference_dropout(states, head.dropout, rng, rows),
        bidirectional)
    dense = tt.relu(add(matvec(head.w_dense, summary), head.b_dense))
    return tt.softmax(add(matvec(head.w_out, dense), head.b_out))


def reference_cross_entropy_loss(predicted, label):
    return neg(log(clip_min(pick(predicted, label), hd.LOSS_FLOOR)))


def reference_average_losses(losses):
    total = losses[0]
    for item in losses[1:]:
        total = add(total, item)
    return scale(total, 1.0 / len(losses))


def reference_pipeline_forward(embeddings, bridge, cell, head, rng=None,
                               label=None, rows=None):
    """The per-sample head chain the batched ``pipeline_forward`` replaced,
    over one sequence, with the per-step reference scan; ``cell`` None is
    the mean head.  Returns (probs, loss)."""
    dropped = reference_dropout(embeddings, head.dropout, rng, rows)
    z = add(tt.matmul(dropped, bridge.w), bridge.b)
    if cell is None:
        pooled = scale(sum_rows(z), 1.0 / z.shape[0])
        probs = reference_classify(head, stack_rows([pooled]), rng)
    else:
        bidirectional = isinstance(cell, hd.BiRnnParams)
        scan = reference_birnn_forward if bidirectional else reference_rnn_forward
        probs = reference_classify(head, scan(cell, z), rng, bidirectional,
                                   rows)
    loss = None if label is None else reference_cross_entropy_loss(probs, label)
    return probs, loss


def probed_gradients(scan, params, sequence, probe):
    """Output and the gradients of sum(output * probe) on every cell
    tensor and on the input, untouched tensors reading as zeros."""
    tensors = [t for _, t in params.named_parameters()] + [sequence]
    for t in tensors:
        t.zero_grad()
    with tt.Tape() as tape:
        out = scan(params, sequence)
        tape.backward(tt.sum_all(tt.mul(out, Tensor(probe))))
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
             for t in tensors]
    return out.data.copy(), grads


# The scan as it was before its transients covered the real rows only:
# the input projections, the gradient on the states and every backward
# factor are padded (step, slot, ·) arrays.  The scan must match it bit
# for bit.


def padded_vanilla_forward(gx, q, running):
    hs = np.zeros((len(gx) + 1, gx.shape[1], q.shape[1]))
    q_t = q.T
    for t, n in enumerate(running):
        hs[t + 1, :n] = np.tanh(gx[t, :n] + hs[t, :n] @ q_t)
    return hs, ()


def padded_vanilla_backward(dh, q, hs, saved, running):
    slope = 1.0 - hs[1:] * hs[1:]
    da = np.zeros_like(dh)
    carry = np.zeros(dh.shape[1:])
    for t in range(len(dh) - 1, -1, -1):
        n = running[t]
        row = da[t, :n] = (dh[t, :n] + carry[:n]) * slope[t, :n]
        carry[:n] = row @ q
    return da, hd._rows(da).T @ hd._rows(hs[:-1])


def padded_lstm_forward(gx, q, running):
    steps, batch, hidden = len(gx), gx.shape[1], q.shape[1]
    hs = np.zeros((steps + 1, batch, hidden))
    cs = np.zeros((steps + 1, batch, hidden))
    candidates = np.zeros((steps, batch, hidden))
    gates = np.zeros((steps, batch, 3 * hidden))
    cell_tanh = np.zeros((steps, batch, hidden))
    q_t = q.T
    for t, n in enumerate(running):
        a = gx[t, :n] + hs[t, :n] @ q_t
        candidate = candidates[t, :n] = np.tanh(a[:, :hidden])
        s = gates[t, :n] = hd._sigmoid(a[:, hidden:])
        c = cs[t + 1, :n] = (s[:, hidden:2 * hidden] * candidate
                             + s[:, :hidden] * cs[t, :n])
        tc = cell_tanh[t, :n] = np.tanh(c)
        hs[t + 1, :n] = s[:, 2 * hidden:] * tc
    return hs, (cs, candidates, gates, cell_tanh)


def padded_lstm_backward(dh, q, hs, saved, running):
    cs, candidates, gates, cell_tanh = saved
    steps, batch, hidden = dh.shape
    forget, update, output = (gates[..., k * hidden:(k + 1) * hidden]
                              for k in range(3))
    per_dc = np.stack((update * (1.0 - candidates * candidates),
                       cs[:-1] * forget * (1.0 - forget),
                       candidates * update * (1.0 - update)), axis=2)
    per_dh = cell_tanh * output * (1.0 - output)
    dc_per_dh = output * (1.0 - cell_tanh * cell_tanh)
    da = np.zeros((steps, batch, 4 * hidden))
    da_cfi = da[..., :3 * hidden].reshape(steps, batch, 3, hidden)
    da_o = da[..., 3 * hidden:]
    carry_h = np.zeros((batch, hidden))
    carry_c = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        n = running[t]
        d_h = dh[t, :n] + carry_h[:n]
        d_c = carry_c[:n] + d_h * dc_per_dh[t, :n]
        da_cfi[t, :n] = per_dc[t, :n] * d_c[:, None]
        da_o[t, :n] = d_h * per_dh[t, :n]
        carry_c[:n] = d_c * forget[t, :n]
        carry_h[:n] = da[t, :n] @ q
    return da, hd._rows(da).T @ hd._rows(hs[:-1])


def padded_gru_forward(gx, q, running):
    steps, batch, hidden = len(gx), gx.shape[1], q.shape[1]
    q_zr_t, q_h_t = q[:2 * hidden].T, q[2 * hidden:].T
    gx_zr, gx_h = gx[..., :2 * hidden], gx[..., 2 * hidden:]
    hs = np.zeros((steps + 1, batch, hidden))
    gates = np.zeros((steps, batch, 2 * hidden))
    candidates = np.zeros((steps, batch, hidden))
    for t, n in enumerate(running):
        h = hs[t, :n]
        s = gates[t, :n] = hd._sigmoid(gx_zr[t, :n] + h @ q_zr_t)
        update = s[:, :hidden]
        candidate = candidates[t, :n] = np.tanh(
            gx_h[t, :n] + (s[:, hidden:] * h) @ q_h_t)
        hs[t + 1, :n] = (1.0 - update) * candidate + update * h
    return hs, (gates, candidates)


def padded_gru_backward(dh, q, hs, saved, running):
    gates, candidates = saved
    steps, batch, hidden = dh.shape
    update, reset = gates[..., :hidden], gates[..., hidden:]
    previous = hs[:-1]
    per_dh_z = (previous - candidates) * update * (1.0 - update)
    per_dh_c = (1.0 - update) * (1.0 - candidates * candidates)
    per_drh_r = previous * reset * (1.0 - reset)
    q_zr, q_h = q[:2 * hidden], q[2 * hidden:]
    da = np.zeros((steps, batch, 3 * hidden))
    da_z, da_r = da[..., :hidden], da[..., hidden:2 * hidden]
    da_zr, da_c = da[..., :2 * hidden], da[..., 2 * hidden:]
    carry = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        n = running[t]
        d_h = dh[t, :n] + carry[:n]
        d_c = da_c[t, :n] = d_h * per_dh_c[t, :n]
        d_rh = d_c @ q_h
        da_z[t, :n] = d_h * per_dh_z[t, :n]
        da_r[t, :n] = d_rh * per_drh_r[t, :n]
        carry[:n] = (d_h * update[t, :n] + d_rh * reset[t, :n]
                     + da_zr[t, :n] @ q_zr)
    dq = np.concatenate((hd._rows(da_zr).T @ hd._rows(previous),
                         hd._rows(da_c).T @ hd._rows(reset * previous)))
    return da, dq


PADDED_RECURRENCES = {
    "vanilla": (padded_vanilla_forward, padded_vanilla_backward),
    "lstm": (padded_lstm_forward, padded_lstm_backward),
    "gru": (padded_gru_forward, padded_gru_backward),
}


def padded_scan(cell, sequences, lengths, reverse):
    lengths = hd._check_lengths(sequences, lengths)
    p, q, b = cell.p.data, cell.q.data, cell.b.data
    batch, hidden = len(lengths), cell.hidden
    order = np.argsort(-lengths, kind="stable")
    step, slot = np.nonzero(np.arange(lengths.max())[:, None] < lengths[order])
    sample = order[slot]
    row = lengths[sample] - 1 - step if reverse else step
    running = np.bincount(step)
    gx = np.zeros((len(running), batch, len(b)))
    gx[step, slot] = sequences.data[sample, row] @ p.T + b
    recur, recur_backward = PADDED_RECURRENCES[cell.variant]
    hs, saved = recur(gx, q, running)
    data = np.zeros((*sequences.shape[:2], hidden))
    data[sample, row] = hs[step + 1, slot]

    def backward(g):
        dh = np.zeros((len(running), batch, hidden))
        dh[step, slot] = g[sample, row]
        da, dq = recur_backward(dh, q, hs, saved, running)
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


def padded_birnn_forward(params, sequences, lengths):
    return tt.concat(padded_scan(params.fw, sequences, lengths, False),
                     padded_scan(params.bw, sequences, lengths, True), axis=2)


def summarize(states, rows):
    """Summary entry (i, j) is states[i, rows[i, j], j]; one tape op, whose
    backward hands the states a zero-padded gradient."""
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


def summary_of(states, lengths, bidirectional):
    """Full-row (B, T, width) states read at each sequence's summary row."""
    return summarize(states, hd.summary_rows(lengths, states.shape[2],
                                             bidirectional))


class RuleCapture(tt.Tape):
    """A tape that keeps each recorded op's backward rule, to be called
    alone."""

    def __init__(self):
        super().__init__()
        self.rules = []

    def record(self, out, backward):
        super().record(out, backward)
        self.rules.append(backward)


def backward_peak(scan, cell, sequences, lengths, g):
    """tracemalloc's peak while one scan's backward rule runs, above what
    was traced before it."""
    for _, t in cell.named_parameters():
        t.zero_grad()
    sequences.zero_grad()
    with RuleCapture() as tape:
        scan(cell, sequences, lengths, False)
    rule, = tape.rules
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rule(g)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestRnnStep:
    def test_zero_lstm_maps_zero_state_to_zero(self):
        cell = zero_cell("lstm", 3, 2)
        h, c = rnn_step(cell, Tensor([1.0, -2.0, 0.5]), initial_state(cell))
        assert np.array_equal(h.data, [0.0, 0.0])
        assert np.array_equal(c.data, [0.0, 0.0])

    def test_zero_gru_maps_zero_state_to_zero(self):
        cell = zero_cell("gru", 3, 2)
        h = rnn_step(cell, Tensor([1.0, -2.0, 0.5]), initial_state(cell))
        assert np.array_equal(h.data, [0.0, 0.0])

    def test_vanilla_identity_params_tanh(self):
        cell = hd.RnnCellParams(variant="vanilla", p=Tensor(np.eye(1)),
                                q=Tensor(np.eye(1)), b=Tensor(np.zeros(1)))
        h = rnn_step(cell, Tensor([0.5]), initial_state(cell))
        assert h.data[0] == pytest.approx(math.tanh(0.5), abs=1e-12)
        assert h.data[0] == pytest.approx(0.4621, abs=1e-4)

    def test_input_width_mismatch_rejected(self):
        cell = zero_cell("vanilla", 3, 2)
        with pytest.raises(DimensionError):
            rnn_step(cell, Tensor([1.0, 2.0]), initial_state(cell))

    def test_state_width_mismatch_rejected(self):
        cell = zero_cell("vanilla", 3, 2)
        with pytest.raises(DimensionError):
            rnn_step(cell, Tensor([1.0, 2.0, 3.0]), Tensor([0.0, 0.0, 0.0]))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ParameterError):
            hd.RnnCellParams(variant="mystery", p=Tensor(np.eye(1)),
                             q=Tensor(np.eye(1)), b=Tensor(np.zeros(1)))

    @pytest.mark.parametrize("rows_p, rows_q, hidden, rows_b", [
        (9, 6, 3, 9), (6, 9, 3, 9), (9, 9, 3, 6), (9, 9, 2, 9),
    ], ids=["q-missing-a-gate", "p-missing-a-gate", "b-missing-a-gate",
            "q-not-gates-by-hidden"])
    def test_unstackable_shapes_rejected_at_construction(
            self, rows_p, rows_q, hidden, rows_b):
        with pytest.raises(DimensionError, match="gru cell shapes"):
            hd.RnnCellParams(variant="gru", p=Tensor(np.zeros((rows_p, 4))),
                             q=Tensor(np.zeros((rows_q, hidden))),
                             b=Tensor(np.zeros(rows_b)))

    def test_zero_parameter_cells_fix_any_sequence_at_zero(self):
        rng = RandomSource(77)
        for variant in ("lstm", "gru"):
            cell = zero_cell(variant, 4, 3)
            for _ in range(5):
                n = int(rng.integers(1, 7))
                seq = Tensor(rng.uniform(-5, 5, (1, n, 4)))
                summary = hd.rnn_forward(cell, seq, [n])
                assert np.array_equal(summary.data, np.zeros((1, 3)))


class TestRnnForward:
    def test_single_position_reduces_to_step(self):
        cell = hd.init_cell("lstm", 3, 2, RandomSource(3))
        x = RandomSource(4).uniform(-1, 1, (1, 3))
        summary = hd.rnn_forward(cell, Tensor(x[None]), [1])
        step, _ = rnn_step(cell, Tensor(x[0]), initial_state(cell))
        assert np.array_equal(summary.data[0], step.data)

    def test_input_rows_past_each_length_change_nothing(self):
        """Rows past a sequence's length are never read: other values there
        leave every summary and every gradient bit-identical."""
        rng = RandomSource(5)
        cell = hd.init_cell("gru", 3, 2, rng.derive("cell"))
        x, lengths = batch_of([rng.uniform(-1, 1, (n, 3)) for n in (2, 4, 1)],
                              requires_grad=True)
        noisy = x.data.copy()
        for i, n in enumerate(lengths):
            noisy[i, n:] = rng.uniform(-9, 9, noisy[i, n:].shape)
        noisy = Tensor(noisy, requires_grad=True)
        for scan, params, width in (
                (hd.rnn_forward, cell, 2),
                (hd.birnn_forward, hd.BiRnnParams(fw=cell, bw=cell), 4)):
            probe = rng.uniform(-1, 1, (3, width))
            (out, grads), (noisy_out, noisy_grads) = (
                probed_gradients(lambda p, s: scan(p, s, lengths), params,
                                 batch, probe) for batch in (x, noisy))
            assert np.array_equal(out, noisy_out)
            for g, noisy_g in zip(grads, noisy_grads):
                assert np.array_equal(g, noisy_g)

    @pytest.mark.parametrize("lengths", [[0, 2], [3, 5], [2]])
    def test_bad_lengths_rejected(self, lengths):
        cell = hd.init_cell("gru", 3, 2, RandomSource(7))
        with pytest.raises((DimensionError, ParameterError)):
            hd.rnn_forward(cell, Tensor(np.ones((2, 4, 3))), lengths)

    def test_empty_batch_rejected(self):
        cell = hd.init_cell("gru", 3, 2, RandomSource(7))
        empty = Tensor(np.zeros((0, 4, 3)))
        for summarize in (lambda x, n: hd.rnn_forward(cell, x, n),
                          hd.mean_pool_forward):
            with pytest.raises(ParameterError,
                               match="need at least one sequence"):
                summarize(empty, [])


class TestBiRnnForward:
    def test_output_width_doubles(self):
        params = hd.init_bicell("gru", 3, 2, RandomSource(8))
        summary = hd.birnn_forward(params, Tensor(np.ones((1, 4, 3))), [4])
        assert summary.shape == (1, 4)

    def test_palindrome_symmetry_with_shared_directions(self):
        cell = hd.init_cell("gru", 2, 3, RandomSource(9))
        params = hd.BiRnnParams(fw=cell, bw=cell)
        x = np.array([[0.3, -0.1], [1.0, 0.5], [0.3, -0.1]])
        # the padded copy checks that each reverse scan starts at its own end
        batch, lengths = batch_of([x, np.ones((5, 2)), x])
        summary = hd.birnn_forward(params, batch, lengths).data
        h = 3
        for i in (0, 2):
            assert np.allclose(summary[i, h:], summary[i, :h], atol=1e-12)

    def test_valid_len_one_directions_agree(self):
        params = hd.init_bicell("vanilla", 3, 2, RandomSource(10))
        x = RandomSource(11).uniform(-1, 1, (3, 3))
        summary = hd.birnn_forward(params, Tensor(x[None, :1]), [1]).data
        fw_step = rnn_step(params.fw, Tensor(x[0]), initial_state(params.fw))
        bw_step = rnn_step(params.bw, Tensor(x[0]), initial_state(params.bw))
        assert np.array_equal(summary[0, :2], fw_step.data)
        assert np.array_equal(summary[0, 2:], bw_step.data)
        assert summary.shape == (1, 4)

    def test_mismatched_directions_rejected(self):
        fw = hd.init_cell("gru", 3, 2, RandomSource(12))
        with pytest.raises(ParameterError):
            hd.BiRnnParams(fw=fw, bw=hd.init_cell("lstm", 3, 2, RandomSource(13)))
        with pytest.raises(DimensionError):
            hd.BiRnnParams(fw=fw, bw=hd.init_cell("gru", 3, 3, RandomSource(14)))


class TestFusedScan:
    @pytest.mark.parametrize("variant", sorted(hd.VARIANT_GATES))
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_matches_per_step_reference(self, variant, bidirectional):
        for seed in (61, 62, 63):
            rng = RandomSource(seed)
            if bidirectional:
                params = hd.init_bicell(variant, 3, 4, rng.derive("cell"))
                fused, reference = hd.birnn_forward, reference_birnn_forward
            else:
                params = hd.init_cell(variant, 3, 4, rng.derive("cell"))
                fused, reference = hd.rnn_forward, reference_rnn_forward
            # non-zero biases, so every gate term is exercised
            for name, t in params.named_parameters():
                if name.rsplit(".", 1)[-1] == "b":
                    t.data = rng.uniform(-0.5, 0.5, t.shape)
            width = 8 if bidirectional else 4
            # one batch of mixed lengths, unsorted, against each sequence
            # alone, read at its summary rows
            matrices = [rng.uniform(-2, 2, (n, 3)) for n in (3, 1, 6, 3)]
            probe = rng.uniform(-1, 1, (4, width))
            batch, lengths = batch_of(matrices, requires_grad=True)
            out, grads = probed_gradients(
                lambda p, x: fused(p, x, lengths), params, batch, probe)
            ref_grads = None
            for i, m in enumerate(matrices):
                sequence = Tensor(m, requires_grad=True)
                ref_out, grads_i = probed_gradients(
                    lambda p, x: reference_summarize(reference(p, x),
                                                     bidirectional),
                    params, sequence, probe[i])
                assert np.abs(out[i] - ref_out).max() <= 1e-10
                assert np.abs(grads[-1][i, :len(m)] - grads_i[-1]).max() <= 1e-10
                ref_grads = grads_i[:-1] if ref_grads is None else [
                    a + b for a, b in zip(ref_grads, grads_i[:-1])]
            for g, ref in zip(grads, ref_grads):
                assert np.abs(g - ref).max() <= 1e-10
            assert not grads[-1][1, 1:].any()

    @pytest.mark.parametrize("variant", sorted(hd.VARIANT_GATES))
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_gradients_match_finite_differences(self, variant, bidirectional):
        rng = RandomSource(70)
        if bidirectional:
            params = hd.init_bicell(variant, 3, 2, rng.derive("cell"))
            scan = hd.birnn_forward
        else:
            params = hd.init_cell(variant, 3, 2, rng.derive("cell"))
            scan = hd.rnn_forward
        sequences = Tensor(rng.uniform(-1, 1, (3, 3, 3)), requires_grad=True)
        lengths = [3, 1, 2]
        probe = Tensor(rng.uniform(-1, 1, (3, 4 if bidirectional else 2)))
        tensors = [t for _, t in params.named_parameters()] + [sequences]

        def loss():
            return tt.sum_all(tt.mul(scan(params, sequences, lengths), probe))

        assert tt.check_gradients(loss, tensors) < 1e-4

    def test_one_record_per_direction(self):
        cell = hd.init_cell("gru", 3, 4, RandomSource(71))
        sequences = Tensor(np.ones((2, 5, 3)), requires_grad=True)
        with tt.Tape() as tape:
            hd.rnn_forward(cell, sequences, [5, 2])
        assert len(tape) == 1
        bicell = hd.init_bicell("lstm", 3, 4, RandomSource(72))
        with tt.Tape() as tape:
            hd.birnn_forward(bicell, sequences, [5, 2])
        assert len(tape) == 3  # two scans and their concatenation

    def test_input_width_mismatch_rejected(self):
        cell = hd.init_cell("gru", 3, 2, RandomSource(73))
        with pytest.raises(DimensionError):
            hd.rnn_forward(cell, Tensor(np.zeros((1, 4, 2))), [4])


class TestPaddedGridOracle:
    """The scan against the padded-grid scan it replaced, read at the
    summary rows: the same summaries and gradients, bit for bit.  The
    oracle's backward takes the zero-padded gradient ``summarize`` builds
    from the summary's."""

    @pytest.mark.parametrize("lengths", [[1], [3, 1, 6, 3], [5, 5, 5], "mixed"])
    @pytest.mark.parametrize("variant", sorted(hd.VARIANT_GATES))
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_matches_bit_for_bit(self, variant, bidirectional, lengths):
        rng = RandomSource(75)
        if lengths == "mixed":
            lengths = [int(n) for n in rng.integers(32, 63, 16)]
        d_in, hidden = 5, 4
        if bidirectional:
            params = hd.init_bicell(variant, d_in, hidden, rng.derive("cell"))
            scan, full_rows = hd.birnn_forward, padded_birnn_forward
        else:
            params = hd.init_cell(variant, d_in, hidden, rng.derive("cell"))
            scan, full_rows = hd.rnn_forward, (
                lambda cell, x, lengths: padded_scan(cell, x, lengths, False))

        def oracle(cell, x, lengths):
            return summary_of(full_rows(cell, x, lengths), lengths,
                              bidirectional)

        for name, t in params.named_parameters():
            if name.endswith("b"):
                t.data = rng.uniform(-0.5, 0.5, t.shape)
        batch, _ = batch_of([rng.uniform(-2, 2, (n, d_in)) for n in lengths],
                            requires_grad=True)
        probe = rng.uniform(-1, 1, (len(lengths), 2 * hidden
                                    if bidirectional else hidden))
        (out, grads), (ref_out, ref_grads) = (
            probed_gradients(lambda p, x: run(p, x, lengths), params, batch,
                             probe) for run in (scan, oracle))
        assert np.array_equal(out, ref_out)
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)

    def test_backward_transients_cover_the_real_rows(self):
        """On a GRU batch shaped like perfbench's train-gru head input (16
        sequences of 32-62 rows, d_rnn and hidden 32; 22% of the padded
        grid is empty), the backward's transient peak is at least a
        quarter below the padded scan's, fed the same summary gradient
        zero-padded."""
        rng = RandomSource(76)
        cell = hd.init_cell("gru", 32, 32, rng.derive("cell"))
        lengths = [62] + [int(n) for n in rng.integers(32, 63, 15)]
        sequences, _ = batch_of([rng.uniform(-1, 1, (n, 32)) for n in lengths],
                                requires_grad=True)
        g = rng.uniform(-1, 1, (16, 32))
        g_padded = np.zeros((16, 62, 32))
        g_padded[np.arange(16), np.array(lengths) - 1] = g
        peak, padded_peak = (backward_peak(scan, cell, sequences, lengths, grad)
                             for scan, grad in ((hd._scan, g),
                                                (padded_scan, g_padded)))
        assert peak <= 0.75 * padded_peak


class TestNoTapeScan:
    """With no tape recording, the scan computes every step from its
    running state and writes no step grid for a backward."""

    @pytest.mark.parametrize("lengths", [[1], [2, 7, 1, 3], [4, 4, 4]],
                             ids=["one-row", "one-runs-alone", "equal"])
    @pytest.mark.parametrize("bidirectional", [False, True], ids=["uni", "bi"])
    @pytest.mark.parametrize("variant", sorted(hd.VARIANT_GATES))
    def test_matches_the_taped_scan_bit_for_bit(self, variant, bidirectional,
                                                lengths):
        rng = RandomSource(92)
        maker = hd.init_bicell if bidirectional else hd.init_cell
        params = maker(variant, 5, 4, rng.derive("cell"))
        for _, t in params.named_parameters():
            t.data += rng.uniform(-0.3, 0.3, t.shape)
        sequences = Tensor(rng.uniform(-2, 2, (len(lengths), max(lengths), 5)),
                           requires_grad=True)
        scan = hd.birnn_forward if bidirectional else hd.rnn_forward
        untaped = scan(params, sequences, lengths).data
        with tt.Tape() as tape:
            taped = scan(params, sequences, lengths).data
        assert len(tape) == (3 if bidirectional else 1)
        assert np.array_equal(untaped.view(np.uint64), taped.view(np.uint64))

    def test_peak_holds_no_step_grid(self):
        """A GRU batch shaped like perfbench's train-gru held-out chunk (16
        sequences of up to 63 rows, d_rnn and hidden 32) peaks below the
        input projection GEMM's operand and result plus one (T + 1, B, H)
        grid; the taped scan's grids (hidden states, gates, candidates)
        are four such grids."""
        rng = RandomSource(93)
        cell = hd.init_cell("gru", 32, 32, rng.derive("cell"))
        lengths = [63] + [int(n) for n in rng.integers(32, 64, 15)]
        sequences = Tensor(rng.uniform(-1, 1, (16, 63, 32)))
        rows = sum(lengths)
        budget = 8 * (rows * 32 + rows * 3 * 32 + 64 * 16 * 32)
        tracemalloc.start()
        try:
            hd.rnn_forward(cell, sequences, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget


class TestSummarize:
    """The scan's output is each sequence's summary.  Cells whose state is
    the tanh of its last input row (P the identity, Q and b zero) show
    which rows it reads."""

    @staticmethod
    def identity_cell(width):
        return hd.RnnCellParams(
            variant="vanilla", p=Tensor(np.eye(width), requires_grad=True),
            q=Tensor(np.zeros((width, width)), requires_grad=True),
            b=Tensor(np.zeros(width), requires_grad=True))

    def test_unidirectional_takes_last_valid_row(self):
        x = np.arange(24.0).reshape(2, 4, 3) / 24.0
        summary = hd.rnn_forward(self.identity_cell(3), Tensor(x), [2, 4])
        assert np.array_equal(summary.data, np.tanh([x[0, 1], x[1, 3]]))

    def test_bidirectional_concatenates_ends(self):
        x = np.arange(24.0).reshape(2, 4, 3) / 24.0
        params = hd.BiRnnParams(fw=self.identity_cell(3),
                                bw=self.identity_cell(3))
        summary = hd.birnn_forward(params, Tensor(x), [3, 1])
        assert np.array_equal(summary.data, np.tanh(
            [[*x[0, 2], *x[0, 0]], [*x[1, 0], *x[1, 0]]]))

    def test_gradient_lands_on_the_summary_rows(self):
        sequences = Tensor(RandomSource(24).uniform(-1, 1, (2, 3, 4)),
                           requires_grad=True)
        params = hd.BiRnnParams(fw=self.identity_cell(4),
                                bw=self.identity_cell(4))
        probe = Tensor(RandomSource(25).uniform(-1, 1, (2, 8)))
        assert tt.check_gradients(
            lambda: tt.sum_all(tt.mul(
                hd.birnn_forward(params, sequences, [2, 3]), probe)),
            [sequences, *(t for _, t in params.named_parameters())]) < 1e-6
        assert not sequences.grad[0, 2].any()
        assert not sequences.grad[1, 1].any()


class TestClassify:
    def make_head(self, in_dim=2, dense=3, k=3, dropout=0.0, seed=20):
        return hd.init_classifier(in_dim, dense, k, dropout, RandomSource(seed))

    def test_zero_output_layer_gives_uniform(self):
        head = self.make_head(k=4)
        head.w_out.data[:] = 0.0
        head.b_out.data[:] = 0.0
        probs = hd.classify(head, Tensor(np.ones((2, 2))))
        assert np.array_equal(probs.data, np.full((2, 4), 0.25))

    def test_bias_shift_never_changes_argmax(self):
        head = self.make_head()
        summaries = Tensor(RandomSource(21).uniform(-1, 1, (3, 2)))
        before = [hd.predict(p) for p in hd.classify(head, summaries).data]
        head.b_out.data += 7.5
        after = [hd.predict(p) for p in hd.classify(head, summaries).data]
        assert before == after

    def test_probabilities_sum_to_one(self):
        rng = RandomSource(22)
        head = self.make_head(k=5)
        for _ in range(10):
            summaries = rng.uniform(-3, 3, (4, 2))
            probs = hd.classify(head, Tensor(summaries[:int(rng.integers(1, 5))]))
            assert np.abs(probs.data.sum(axis=1) - 1.0).max() < 1e-6

    def test_summary_width_mismatch_rejected(self):
        head = self.make_head(in_dim=4)
        with pytest.raises(DimensionError):
            hd.classify(head, Tensor(np.ones((2, 2))))

    def test_single_class_rejected(self):
        with pytest.raises(ParameterError):
            hd.init_classifier(2, 3, 1, 0.0, RandomSource(23))


class TestPredict:
    def test_plain_argmax(self):
        assert hd.predict([0.1, 0.7, 0.2]) == 1

    def test_tie_goes_to_lowest_index(self):
        assert hd.predict([0.5, 0.5]) == 0

    def test_one_hot(self):
        assert hd.predict(Tensor([0.0, 0.0, 1.0, 0.0])) == 2


class TestCrossEntropyLoss:
    def test_certain_correct_prediction_is_zero(self):
        assert hd.cross_entropy_loss(Tensor([[0.0, 1.0]]), [1]).data[0] == 0.0

    def test_uniform_two_classes(self):
        loss = hd.cross_entropy_loss(Tensor([[0.5, 0.5]]), [0]).data[0]
        assert loss == pytest.approx(math.log(2), rel=1e-12)
        assert loss == pytest.approx(0.6931, abs=1e-4)

    def test_uniform_five_classes(self):
        loss = hd.cross_entropy_loss(Tensor(np.full((1, 5), 0.2)), [3]).data[0]
        assert loss == pytest.approx(math.log(5), rel=1e-12)
        assert loss == pytest.approx(1.6094, abs=1e-4)

    def test_zero_probability_hits_floor(self):
        loss = hd.cross_entropy_loss(Tensor([[1.0, 0.0]]), [1]).data[0]
        assert loss == pytest.approx(-math.log(1e-12))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DataError):
            hd.cross_entropy_loss(Tensor([[0.5, 0.5]]), [2])
        with pytest.raises(DataError):
            hd.cross_entropy_loss(Tensor([[0.5, 0.5]]), [-1])

    def test_average_losses(self):
        losses = Tensor([1.0, 2.0, 6.0])
        assert hd.average_losses(losses).item() == pytest.approx(3.0)
        with pytest.raises(ParameterError):
            hd.average_losses(Tensor(np.zeros(0)))

    def test_batched_loss_matches_per_sample_oracle(self):
        rng = RandomSource(26)
        data = rng.uniform(0.0, 1.0, (5, 3))
        data[2, 1] = 0.0  # one floored probability
        labels = [0, 2, 1, 1, 0]
        batched = Tensor(data, requires_grad=True)
        with tt.Tape() as tape:
            mean = hd.average_losses(hd.cross_entropy_loss(batched, labels))
            tape.backward(mean)
        rows = [Tensor(r, requires_grad=True) for r in data]
        with tt.Tape() as tape:
            ref = reference_average_losses(
                [reference_cross_entropy_loss(r, y) for r, y in zip(rows, labels)])
            tape.backward(ref)
        assert mean.item() == ref.item()
        assert np.array_equal(batched.grad, np.stack([r.grad for r in rows]))


def build_pipeline(variant, bidirectional, d_model=3, d_rnn=3, hidden=2,
                   dense=3, k=2, dropout=0.0, seed=30):
    """Bridge, cell and classifier; ``variant`` None builds the mean head."""
    rng = RandomSource(seed)
    bridge = hd.init_bridge(d_model, d_rnn, rng.derive("bridge"))
    if variant is None:
        cell, in_dim = None, d_rnn
    elif bidirectional:
        cell = hd.init_bicell(variant, d_rnn, hidden, rng.derive("cell"))
        in_dim = 2 * hidden
    else:
        cell = hd.init_cell(variant, d_rnn, hidden, rng.derive("cell"))
        in_dim = hidden
    head = hd.init_classifier(in_dim, dense, k, dropout, rng.derive("head"))
    return bridge, cell, head


def draw_head_masks(bridge, cell, head, lengths, rows, rng):
    """Each sequence's head masks as the model draws them, at the padded
    heights ``rows``, then applied as the per-sample head applies them to
    ``lengths`` real rows: the bridge mask's top rows and the classifier
    mask's summary row.  None where the head drops nothing: ``rng`` None
    or dropout 0."""
    if rng is None or head.dropout == 0.0:
        return None
    p, width = head.dropout, head.w_dense.shape[1]
    kind = ("mean" if cell is None
            else "bi" if isinstance(cell, hd.BiRnnParams) else "uni")
    masks = []
    for length, n in zip(lengths, rows):
        keep_bridge, keep_states = separate_masks(
            rng, p, [(n, bridge.w.shape[0]), (1 if cell is None else n, width)])
        masks.append(hd.HeadMasks(
            bridge=fit_mask(keep_bridge, (length, bridge.w.shape[0])),
            classifier=summary_mask_row(keep_states, length, kind)))
    return masks


class TestPipelineForward:
    def test_loss_attached_only_with_label(self):
        bridge, cell, head = build_pipeline("lstm", False)
        matrix = RandomSource(32).uniform(-1, 1, (3, 3))
        probs, loss = hd.pipeline_forward([Tensor(matrix)], bridge, cell, head)
        assert loss is None
        probs2, loss2 = hd.pipeline_forward([Tensor(matrix)], bridge, cell,
                                            head, labels=[1])
        assert np.array_equal(probs.data, probs2.data)
        assert loss2.data[0] == pytest.approx(
            -math.log(max(probs.data[0, 1], 1e-12)))

    @pytest.mark.parametrize("variant", ["gru", None])
    def test_empty_batch_rejected(self, variant):
        bridge, cell, head = build_pipeline(variant, False)
        with pytest.raises(ParameterError, match="need at least one sequence"):
            hd.pipeline_forward([], bridge, cell, head, labels=[])

    def test_training_dropout_is_seed_deterministic(self):
        bridge, cell, head = build_pipeline("gru", True, dropout=0.3)
        matrix = RandomSource(33).uniform(-1, 1, (4, 3))
        runs = [
            hd.pipeline_forward([Tensor(matrix)], bridge, cell, head,
                                draw_head_masks(bridge, cell, head, [4], [4],
                                                RandomSource(99)))[0].data
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])
        eval_probs, _ = hd.pipeline_forward([Tensor(matrix)], bridge, cell, head)
        assert not np.array_equal(runs[0], eval_probs.data)

    def test_masks_at_the_padded_height_rejected(self):
        """Masks must come in the shape applied: a bridge mask with PAD
        rows, or a classifier mask with every state row, is refused."""
        bridge, cell, head = build_pipeline("gru", False, dropout=0.3)
        sequences = [Tensor(np.ones((4, 3)))]
        mask, = draw_head_masks(bridge, cell, head, [4], [4], RandomSource(97))
        with pytest.raises(DimensionError, match=r"bridge mask \(6, 3\)"):
            hd.pipeline_forward(sequences, bridge, cell, head,
                                [mask._replace(bridge=np.ones((6, 3)))])
        with pytest.raises(DimensionError, match="dropout mask"):
            hd.pipeline_forward(sequences, bridge, cell, head,
                                [mask._replace(classifier=np.ones((4, 2)))])

    def test_order_sensitivity_witness(self):
        bridge, cell, head = build_pipeline("gru", False, seed=35)
        rng = RandomSource(36)
        matrix = rng.uniform(-1, 1, (4, 3))
        reordered = matrix[[2, 0, 3, 1]]
        probs = hd.pipeline_forward([Tensor(matrix), Tensor(reordered)],
                                    bridge, cell, head)[0].data
        assert not np.allclose(probs[0], probs[1], atol=1e-6)

    def test_gru_sample_records_far_fewer_than_100_tape_entries(self):
        bridge, cell, head = build_pipeline("gru", False, d_model=8, d_rnn=8,
                                            hidden=8, dropout=0.1)
        matrix = Tensor(RandomSource(37).uniform(-1, 1, (64, 8))[:45],
                        requires_grad=True)
        masks = draw_head_masks(bridge, cell, head, [45], [64],
                                RandomSource(38))
        with tt.Tape() as tape:
            hd.pipeline_forward([matrix], bridge, cell, head, masks, labels=[1])
        assert len(tape) < 100

    def test_a_batch_records_as_many_entries_as_one_sample(self):
        bridge, cell, head = build_pipeline("gru", True, dropout=0.1)
        counts = []
        for batch in ([5], [5, 1, 3, 4] * 4):
            sequences = [Tensor(np.ones((n, 3)), requires_grad=True)
                         for n in batch]
            masks = draw_head_masks(bridge, cell, head, batch, batch,
                                    RandomSource(39))
            with tt.Tape() as tape:
                hd.pipeline_forward(sequences, bridge, cell, head, masks,
                                    labels=[0] * len(batch))
            counts.append(len(tape))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("variant,bidirectional", [
        ("vanilla", False),
        ("lstm", False),
        ("gru", False),
        ("lstm", True),
        ("gru", True),
    ])
    def test_gradients_match_finite_differences(self, variant, bidirectional):
        for seed in (40, 41, 42, 43, 44):
            bridge, cell, head = build_pipeline(variant, bidirectional,
                                                seed=seed)
            rng = RandomSource(seed + 500)
            sequences = [Tensor(rng.uniform(-1, 1, (n, 3)), requires_grad=True)
                         for n in (3, 1, 2)]
            tensors = list(sequences)
            for params in (bridge, cell, head):
                tensors.extend(t for _, t in params.named_parameters())

            def loss():
                return hd.average_losses(hd.pipeline_forward(
                    sequences, bridge, cell, head, labels=[1, 0, 1])[1])

            assert tt.check_gradients(loss, tensors) < 1e-4


def stack_padded(parts):
    """The batch as one zero-padded (B, T, d) tape op; the backward rule
    hands each part its own rows."""
    stacked, lengths = batch_of([p.data for p in parts])

    def backward(g):
        for i, p in enumerate(parts):
            if p.requires_grad:
                p.accumulate_grad(g[i, :lengths[i]])

    return tt.make_output(stacked.data, parts, backward)


class TestBridge:
    """The fused bridge, each sequence stacked, masked and projected as
    one op, against the stack -> dropout -> matmul -> bias-add graph it
    replaced."""

    @staticmethod
    def operands(seed, dropped):
        """A ragged batch that holds one tensor twice, each place with its
        own mask."""
        rng = RandomSource(seed)
        bridge = hd.init_bridge(5, 3, rng.derive("bridge"))
        bridge.b.data += rng.uniform(-0.5, 0.5, 3)
        a, b = (Tensor(rng.uniform(-1, 1, (n, 5)), requires_grad=True)
                for n in (4, 2))
        sequences = [a, b, a]
        keeps = None
        if dropped:
            keeps = [tt.dropout_mask(rng, 0.4, s.shape)
                     for s in sequences]
        probe = Tensor(rng.uniform(-1, 1, (3, 4, 3)))
        return bridge, sequences, keeps, probe

    @pytest.mark.parametrize("dropped", [False, True], ids=["no-keep", "keep"])
    def test_matches_unfused_graph_bit_for_bit(self, dropped):
        bridge, sequences, keeps, probe = self.operands(95, dropped)
        tensors = [sequences[0], sequences[1], bridge.w, bridge.b]

        def unfused(bridge, sequences, keeps):
            keep = None if keeps is None else batch_of(keeps)[0].data
            return add(tt.matmul(tt.dropout(stack_padded(sequences), keep),
                                 bridge.w), bridge.b)

        results = []
        for forward in (hd.bridge_forward, unfused):
            for t in tensors:
                t.zero_grad()
            with tt.Tape() as tape:
                out = forward(bridge, sequences, keeps)
                tape.backward(tt.sum_all(tt.mul(out, probe)))
            results.append([out.data] + [t.grad.copy() for t in tensors])
        for fused, ref in zip(*results):
            assert np.array_equal(fused, ref)

    @pytest.mark.parametrize("dropped", [False, True], ids=["no-keep", "keep"])
    def test_gradients_match_finite_differences(self, dropped):
        bridge, sequences, keeps, probe = self.operands(96, dropped)

        def loss():
            out = hd.bridge_forward(bridge, sequences, keeps)
            return tt.sum_all(tt.mul(out, probe))

        assert tt.check_gradients(
            loss, [*sequences[:2], bridge.w, bridge.b]) < 1e-4

    def test_one_tape_record(self):
        bridge, sequences, keeps, _ = self.operands(97, True)
        with tt.Tape() as tape:
            hd.bridge_forward(bridge, sequences, keeps)
        assert len(tape) == 1

    def test_sequences_without_gradient_take_none(self):
        bridge, sequences, keeps, probe = self.operands(99, True)
        frozen = [Tensor(s.data) for s in sequences]
        with tt.Tape() as tape:
            out = hd.bridge_forward(bridge, frozen, keeps)
            tape.backward(tt.sum_all(tt.mul(out, probe)))
        assert all(s.grad is None for s in frozen)
        assert bridge.w.grad is not None

    def test_width_mismatch_rejected(self):
        bridge, sequences, _, _ = self.operands(98, False)
        for shape in ((2, 4), (2, 5, 1), (5,)):
            with pytest.raises(DimensionError, match="bridge input"):
                hd.bridge_forward(bridge, [sequences[0], Tensor(np.ones(shape))])

    def test_mask_shape_mismatch_rejected(self):
        bridge, sequences, keeps, _ = self.operands(98, True)
        for shape in ((4, 5), (2, 4)):
            keeps[1] = np.ones(shape)
            with pytest.raises(DimensionError, match=r"bridge mask"):
                hd.bridge_forward(bridge, sequences, keeps)


class TestMeanPoolForward:
    def test_permutation_invariance(self):
        bridge, _, head = build_pipeline(None, False, seed=50)
        matrix = RandomSource(51).uniform(-1, 1, (4, 3))
        probs = hd.pipeline_forward([Tensor(matrix), Tensor(matrix[[3, 1, 0, 2]])],
                                    bridge, None, head)[0].data
        assert np.allclose(probs[0], probs[1], atol=1e-12)

    def test_gradients_match_finite_differences(self):
        bridge, _, head = build_pipeline(None, False, seed=54)
        rng = RandomSource(55)
        sequences = [Tensor(rng.uniform(-1, 1, (n, 3)), requires_grad=True)
                     for n in (4, 1, 2)]
        tensors = list(sequences)
        for params in (bridge, head):
            tensors.extend(t for _, t in params.named_parameters())

        def loss():
            return hd.average_losses(hd.pipeline_forward(
                sequences, bridge, None, head, labels=[0, 1, 1])[1])

        assert tt.check_gradients(loss, tensors) < 1e-4

    def test_pools_only_each_sequence_rows(self):
        sequences = Tensor(np.arange(12.0).reshape(2, 3, 2))
        pooled = hd.mean_pool_forward(sequences, [1, 3]).data
        assert np.array_equal(pooled, [[0.0, 1.0], [8.0, 9.0]])


HEADS = [("vanilla", False), ("lstm", False), ("gru", False),
         ("vanilla", True), ("lstm", True), ("gru", True), (None, False)]


def head_gradients(run, tensors):
    """Probabilities, losses and every gradient of the mean loss."""
    for t in tensors:
        t.zero_grad()
    with tt.Tape() as tape:
        probs, losses, mean = run()
        tape.backward(mean)
    return probs, losses, [np.zeros_like(t.data) if t.grad is None
                           else t.grad.copy() for t in tensors]


class TestBatchedHeadOracle:
    """The batched head against the per-sample head it replaced: the same
    probabilities, losses and gradients, input rows included, to 1e-12."""

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("variant,bidirectional", HEADS)
    def test_matches_per_sample_reference(self, variant, bidirectional, batch,
                                          training):
        bridge, cell, head = build_pipeline(variant, bidirectional, d_model=4,
                                            d_rnn=3, hidden=3, dense=4, k=3,
                                            dropout=0.3, seed=batch)
        rng = RandomSource(80 + batch)
        parts = [params for params in (bridge, cell, head) if params]
        for params in parts:
            for _, t in params.named_parameters():
                t.data = t.data + rng.uniform(-0.3, 0.3, t.shape)
        lengths = [1, 4, 2, 6, 3][:batch] + [int(n) for n in
                                             rng.integers(1, 7, max(0, batch - 5))]
        sequences = [Tensor(rng.uniform(-1, 1, (n, 4)), requires_grad=True)
                     for n in lengths]
        labels = [int(y) for y in rng.integers(0, 3, batch)]
        padded = [n + 2 for n in lengths]  # masks drawn at a padded height
        tensors = list(sequences)
        for params in parts:
            tensors.extend(t for _, t in params.named_parameters())

        def batched():
            masks = draw_head_masks(bridge, cell, head, lengths, padded,
                                    RandomSource(9) if training else None)
            probs, losses = hd.pipeline_forward(sequences, bridge, cell, head,
                                                masks, labels)
            return probs.data, losses.data, hd.average_losses(losses)

        def per_sample():
            stream = RandomSource(9) if training else None
            runs = [reference_pipeline_forward(x, bridge, cell, head, stream,
                                               y, rows)
                    for x, y, rows in zip(sequences, labels, padded)]
            return (np.stack([p.data for p, _ in runs]),
                    np.array([l.item() for _, l in runs]),
                    reference_average_losses([l for _, l in runs]))

        probs, losses, grads = head_gradients(batched, tensors)
        ref_probs, ref_losses, ref_grads = head_gradients(per_sample, tensors)
        assert np.abs(probs - ref_probs).max() <= 1e-12
        assert np.abs(losses - ref_losses).max() <= 1e-12
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12

    @pytest.mark.parametrize("variant,bidirectional", HEADS)
    def test_probabilities_do_not_depend_on_batch_mates(self, variant,
                                                       bidirectional):
        bridge, cell, head = build_pipeline(variant, bidirectional, seed=90)
        rng = RandomSource(91)
        pool = [Tensor(rng.uniform(-1, 1, (int(n), 3)))
                for n in rng.integers(1, 9, 20)]
        alone = np.stack([hd.pipeline_forward([x], bridge, cell, head)[0].data[0]
                          for x in pool])
        for start, size in ((0, 16), (3, 5), (7, 13)):
            mates = pool[start:start + size]
            probs = hd.pipeline_forward(mates, bridge, cell, head)[0].data
            assert np.abs(probs - alone[start:start + size]).max() <= 1e-12
