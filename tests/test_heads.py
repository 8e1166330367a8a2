"""Tests for the recurrent heads: cells, scans, classifier, and pipeline.

The batched head is checked against the per-sample head it replaced,
kept here as ``reference_*`` oracles built from elementary tape ops.
"""

import math

import numpy as np
import pytest

from seqcls import heads as hd
from seqcls import tensor as tt
from seqcls.errors import DataError, DimensionError, ParameterError
from seqcls.rng import RandomSource
from seqcls.tensor import Tensor
from test_tensor import (add, clip_min, log, matvec, neg, scale, separate_masks,
                         sigmoid, slice_vec, stack_rows, sum_rows, tanh)


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


def reference_dropout(x, p, rng, training, rows=None):
    """Dropout as the per-sample head drew it: one draw per mask, ``rows``
    high (default ``len(x)``), its top rows applied."""
    if not training or p == 0.0:
        return x
    keep, = separate_masks(rng, p, [(rows or len(x.data), *x.shape[1:])])
    return tt.dropout(x, keep)


def reference_summarize(states, bidirectional):
    """Last hidden state; bidirectional: forward-last + backward-first."""
    if not bidirectional:
        return tt.row(states, -1)
    width = states.shape[1]
    h = width // 2
    return tt.concat(slice_vec(tt.row(states, -1), 0, h),
                     slice_vec(tt.row(states, 0), h, width), axis=0)


def reference_classify(head, states, rng=None, training=False,
                       bidirectional=False, rows=None):
    """Per-sample classifier: dropout, summarize, dense+ReLU, output, softmax."""
    summary = reference_summarize(
        reference_dropout(states, head.dropout, rng, training, rows),
        bidirectional)
    dense = tt.relu(add(matvec(head.w_dense, summary), head.b_dense))
    return tt.softmax(add(matvec(head.w_out, dense), head.b_out))


def reference_cross_entropy_loss(predicted, label):
    return neg(log(clip_min(tt.pick(predicted, label), hd.LOSS_FLOOR)))


def reference_average_losses(losses):
    total = losses[0]
    for item in losses[1:]:
        total = add(total, item)
    return scale(total, 1.0 / len(losses))


def reference_pipeline_forward(embeddings, bridge, cell, head, rng=None,
                               training=False, label=None, rows=None):
    """The per-sample head chain the batched ``pipeline_forward`` replaced,
    over one sequence, with the per-step reference scan; ``cell`` None is
    the mean head.  Returns (probs, loss)."""
    dropped = reference_dropout(embeddings, head.dropout, rng, training, rows)
    z = add(tt.matmul(dropped, bridge.w), bridge.b)
    if cell is None:
        pooled = scale(sum_rows(z), 1.0 / z.shape[0])
        probs = reference_classify(head, stack_rows([pooled]), rng, training)
    else:
        bidirectional = isinstance(cell, hd.BiRnnParams)
        scan = reference_birnn_forward if bidirectional else reference_rnn_forward
        probs = reference_classify(head, scan(cell, z), rng, training,
                                   bidirectional, rows)
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
                states = hd.rnn_forward(cell, seq, [n])
                assert np.array_equal(states.data, np.zeros((1, n, 3)))


class TestRnnForward:
    def test_single_position_reduces_to_step(self):
        cell = hd.init_cell("lstm", 3, 2, RandomSource(3))
        x = RandomSource(4).uniform(-1, 1, (1, 3))
        states = hd.rnn_forward(cell, Tensor(x[None]), [1])
        step, _ = rnn_step(cell, Tensor(x[0]), initial_state(cell))
        assert np.array_equal(states.data[0, 0], step.data)

    def test_rows_past_each_length_are_zero(self):
        cell = hd.init_cell("gru", 3, 2, RandomSource(5))
        x, lengths = batch_of([RandomSource(6).uniform(-1, 1, (n, 3))
                               for n in (2, 4, 1)])
        for scan, params in ((hd.rnn_forward, cell),
                             (hd.birnn_forward, hd.BiRnnParams(fw=cell, bw=cell))):
            states = scan(params, x, lengths).data
            for i, n in enumerate(lengths):
                assert not states[i, n:].any()
                assert np.abs(states[i, :n]).min() > 0.0

    @pytest.mark.parametrize("lengths", [[0, 2], [3, 5], [2]])
    def test_bad_lengths_rejected(self, lengths):
        cell = hd.init_cell("gru", 3, 2, RandomSource(7))
        with pytest.raises((DimensionError, ParameterError)):
            hd.rnn_forward(cell, Tensor(np.ones((2, 4, 3))), lengths)


class TestBiRnnForward:
    def test_output_width_doubles(self):
        params = hd.init_bicell("gru", 3, 2, RandomSource(8))
        states = hd.birnn_forward(params, Tensor(np.ones((1, 4, 3))), [4])
        assert states.shape == (1, 4, 4)

    def test_palindrome_symmetry_with_shared_directions(self):
        cell = hd.init_cell("gru", 2, 3, RandomSource(9))
        params = hd.BiRnnParams(fw=cell, bw=cell)
        x = np.array([[0.3, -0.1], [1.0, 0.5], [0.3, -0.1]])
        # the padded copy checks that each reverse scan starts at its own end
        batch, lengths = batch_of([x, np.ones((5, 2)), x])
        states = hd.birnn_forward(params, batch, lengths).data
        h = 3
        for i in (0, 2):
            for t in range(3):
                assert np.allclose(states[i, t, h:], states[i, 2 - t, :h],
                                   atol=1e-12)

    def test_valid_len_one_directions_agree(self):
        params = hd.init_bicell("vanilla", 3, 2, RandomSource(10))
        x = RandomSource(11).uniform(-1, 1, (3, 3))
        states = hd.birnn_forward(params, Tensor(x[None, :1]), [1]).data
        fw_step = rnn_step(params.fw, Tensor(x[0]), initial_state(params.fw))
        bw_step = rnn_step(params.bw, Tensor(x[0]), initial_state(params.bw))
        assert np.array_equal(states[0, 0, :2], fw_step.data)
        assert np.array_equal(states[0, 0, 2:], bw_step.data)
        assert states.shape == (1, 1, 4)

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
                if name.endswith(".b"):
                    t.data = rng.uniform(-0.5, 0.5, t.shape)
            width = 8 if bidirectional else 4
            # one batch of mixed lengths, unsorted, against each sequence alone
            matrices = [rng.uniform(-2, 2, (n, 3)) for n in (3, 1, 6, 3)]
            probes = [rng.uniform(-1, 1, (n, width)) for n in (3, 1, 6, 3)]
            batch, lengths = batch_of(matrices, requires_grad=True)
            probe, _ = batch_of(probes)
            out, grads = probed_gradients(
                lambda p, x: fused(p, x, lengths), params, batch, probe.data)
            ref_grads = None
            for i, (m, pr) in enumerate(zip(matrices, probes)):
                sequence = Tensor(m, requires_grad=True)
                ref_out, grads_i = probed_gradients(reference, params, sequence, pr)
                assert np.abs(out[i, :len(m)] - ref_out).max() <= 1e-10
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
        probe = Tensor(rng.uniform(-1, 1, (3, 3, 4 if bidirectional else 2)))
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


class TestSummarize:
    def test_unidirectional_takes_last_valid_row(self):
        states = Tensor(np.arange(24.0).reshape(2, 4, 3))
        rows = hd.summary_rows([2, 4], 3, False)
        assert np.array_equal(hd.summarize(states, rows).data,
                              [[3.0, 4.0, 5.0], [21.0, 22.0, 23.0]])

    def test_bidirectional_concatenates_ends(self):
        states = Tensor(np.arange(32.0).reshape(2, 4, 4))
        rows = hd.summary_rows([3, 1], 4, True)
        assert np.array_equal(hd.summarize(states, rows).data,
                              [[8.0, 9.0, 2.0, 3.0], [16.0, 17.0, 18.0, 19.0]])

    def test_gradient_lands_on_the_summary_rows(self):
        states = Tensor(RandomSource(24).uniform(-1, 1, (2, 3, 4)),
                        requires_grad=True)
        rows = hd.summary_rows([2, 3], 4, True)
        probe = Tensor(RandomSource(25).uniform(-1, 1, (2, 4)))
        assert tt.check_gradients(
            lambda: tt.sum_all(tt.mul(hd.summarize(states, rows), probe)),
            [states]) < 1e-6
        assert not states.grad[0, 2].any()


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


def draw_head_masks(bridge, cell, head, rows, rng, training=True):
    """Each sequence's head masks, drawn as the model draws them; None
    where the head drops nothing."""
    if not training or head.dropout == 0.0:
        return None
    p, width = head.dropout, head.w_dense.shape[1]
    return [hd.HeadMasks(
        bridge=tt.dropout_mask(rng, p, (n, bridge.w.shape[0]), training),
        classifier=tt.dropout_mask(rng, p, (1 if cell is None else n, width),
                                   training))
        for n in rows]


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

    def test_training_dropout_is_seed_deterministic(self):
        bridge, cell, head = build_pipeline("gru", True, dropout=0.3)
        matrix = RandomSource(33).uniform(-1, 1, (4, 3))
        runs = [
            hd.pipeline_forward([Tensor(matrix)], bridge, cell, head,
                                draw_head_masks(bridge, cell, head, [4],
                                                RandomSource(99)))[0].data
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])
        eval_probs, _ = hd.pipeline_forward([Tensor(matrix)], bridge, cell, head)
        assert not np.array_equal(runs[0], eval_probs.data)

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
        masks = draw_head_masks(bridge, cell, head, [64], RandomSource(38))
        with tt.Tape() as tape:
            hd.pipeline_forward([matrix], bridge, cell, head, masks, labels=[1])
        assert len(tape) < 100

    def test_a_batch_records_as_many_entries_as_one_sample(self):
        bridge, cell, head = build_pipeline("gru", True, dropout=0.1)
        counts = []
        for batch in ([5], [5, 1, 3, 4] * 4):
            sequences = [Tensor(np.ones((n, 3)), requires_grad=True)
                         for n in batch]
            masks = draw_head_masks(bridge, cell, head, batch, RandomSource(39))
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


class TestBridge:
    """The fused bridge, ``(x * keep) @ W + b`` as one op, against the
    dropout -> matmul -> bias-add graph it replaced."""

    @staticmethod
    def operands(seed, dropped):
        rng = RandomSource(seed)
        bridge = hd.init_bridge(5, 3, rng.derive("bridge"))
        bridge.b.data += rng.uniform(-0.5, 0.5, 3)
        x = Tensor(rng.uniform(-1, 1, (4, 6, 5)), requires_grad=True)
        x.data[1, 2:] = 0.0  # a padded sequence
        keep = None
        if dropped:
            keep = tt.dropout_mask(rng, 0.4, x.shape, training=True)
            keep[1, 2:] = 0.0
        probe = Tensor(rng.uniform(-1, 1, (4, 6, 3)))
        return bridge, x, keep, probe

    @pytest.mark.parametrize("dropped", [False, True], ids=["no-keep", "keep"])
    def test_matches_unfused_graph_bit_for_bit(self, dropped):
        bridge, x, keep, probe = self.operands(95, dropped)
        tensors = [x, bridge.w, bridge.b]

        def unfused(bridge, x, keep):
            return add(tt.matmul(tt.dropout(x, keep), bridge.w), bridge.b)

        results = []
        for forward in (hd.bridge_forward, unfused):
            for t in tensors:
                t.zero_grad()
            with tt.Tape() as tape:
                out = forward(bridge, x, keep)
                tape.backward(tt.sum_all(tt.mul(out, probe)))
            results.append([out.data] + [t.grad.copy() for t in tensors])
        for fused, ref in zip(*results):
            assert np.array_equal(fused, ref)

    @pytest.mark.parametrize("dropped", [False, True], ids=["no-keep", "keep"])
    def test_gradients_match_finite_differences(self, dropped):
        bridge, x, keep, probe = self.operands(96, dropped)

        def loss():
            return tt.sum_all(tt.mul(hd.bridge_forward(bridge, x, keep), probe))

        assert tt.check_gradients(loss, [x, bridge.w, bridge.b]) < 1e-4

    def test_one_tape_record(self):
        bridge, x, keep, _ = self.operands(97, True)
        with tt.Tape() as tape:
            hd.bridge_forward(bridge, x, keep)
        assert len(tape) == 1

    def test_width_mismatch_rejected(self):
        bridge, _, _, _ = self.operands(98, False)
        for shape in ((4, 6, 4), (6, 5)):
            with pytest.raises(DimensionError, match="bridge"):
                hd.bridge_forward(bridge, Tensor(np.ones(shape)), None)


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
            masks = draw_head_masks(bridge, cell, head, padded,
                                    RandomSource(9), training)
            probs, losses = hd.pipeline_forward(sequences, bridge, cell, head,
                                                masks, labels)
            return probs.data, losses.data, hd.average_losses(losses)

        def per_sample():
            stream = RandomSource(9)
            runs = [reference_pipeline_forward(x, bridge, cell, head, stream,
                                               training, y, rows)
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
