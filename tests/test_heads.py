"""Tests for the recurrent heads: cells, scans, classifier, and pipeline."""

import math

import numpy as np
import pytest

from seqcls import heads as hd
from seqcls import tensor as tt
from seqcls.errors import DataError, DimensionError, ParameterError
from seqcls.rng import RandomSource
from seqcls.tensor import Tensor


def zero_cell(variant, d_in, hidden):
    gates = {
        name: hd.GateParams(
            p=Tensor(np.zeros((hidden, d_in))),
            q=Tensor(np.zeros((hidden, hidden))),
            b=Tensor(np.zeros(hidden)),
        )
        for name in hd.VARIANT_GATES[variant]
    }
    return hd.RnnCellParams(variant=variant, gates=gates)


def _gate(gate, x, h):
    return tt.add(tt.add(tt.matvec(gate.p, x), tt.matvec(gate.q, h)), gate.b)


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


def reference_rnn_forward(cell, sequence):
    """The per-step scan the fused ``rnn_forward`` replaced: one
    ``rnn_step`` graph per position."""
    state = initial_state(cell)
    rows = []
    for t in range(sequence.shape[0]):
        state = rnn_step(cell, tt.row(sequence, t), state)
        rows.append(hidden_of(state))
    return tt.stack_rows(rows)


def reference_birnn_forward(params, sequence):
    """The per-step bidirectional scan the fused ``birnn_forward`` replaced."""
    forward = reference_rnn_forward(params.fw, sequence)
    state = initial_state(params.bw)
    backward_rows = [None] * sequence.shape[0]
    for t in range(sequence.shape[0] - 1, -1, -1):
        state = rnn_step(params.bw, tt.row(sequence, t), state)
        backward_rows[t] = hidden_of(state)
    return tt.concat(forward, tt.stack_rows(backward_rows), axis=1)


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
        cell = hd.RnnCellParams(variant="vanilla", gates={
            "h": hd.GateParams(p=Tensor(np.eye(1)), q=Tensor(np.eye(1)),
                               b=Tensor(np.zeros(1))),
        })
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
            hd.RnnCellParams(variant="mystery", gates={})

    def test_zero_parameter_cells_fix_any_sequence_at_zero(self):
        rng = RandomSource(77)
        for variant in ("lstm", "gru"):
            cell = zero_cell(variant, 4, 3)
            for _ in range(5):
                n = int(rng.integers(1, 7))
                seq = Tensor(rng.uniform(-5, 5, (n, 4)))
                states = hd.rnn_forward(cell, seq)
                assert np.array_equal(states.data, np.zeros((n, 3)))


class TestRnnForward:
    def test_single_position_reduces_to_step(self):
        cell = hd.init_cell("lstm", 3, 2, RandomSource(3))
        x = RandomSource(4).uniform(-1, 1, (1, 3))
        states = hd.rnn_forward(cell, Tensor(x))
        step, _ = rnn_step(cell, Tensor(x[0]), initial_state(cell))
        assert np.array_equal(states.data[0], step.data)


class TestBiRnnForward:
    def test_output_width_doubles(self):
        params = hd.init_bicell("gru", 3, 2, RandomSource(8))
        states = hd.birnn_forward(params, Tensor(np.ones((4, 3))))
        assert states.shape == (4, 4)

    def test_palindrome_symmetry_with_shared_directions(self):
        cell = hd.init_cell("gru", 2, 3, RandomSource(9))
        params = hd.BiRnnParams(fw=cell, bw=cell)
        x = np.array([[0.3, -0.1], [1.0, 0.5], [0.3, -0.1]])
        states = hd.birnn_forward(params, Tensor(x)).data
        h = 3
        for t in range(3):
            assert np.allclose(states[t, h:], states[2 - t, :h], atol=1e-12)

    def test_valid_len_one_directions_agree(self):
        params = hd.init_bicell("vanilla", 3, 2, RandomSource(10))
        x = RandomSource(11).uniform(-1, 1, (3, 3))
        states = hd.birnn_forward(params, Tensor(x[:1])).data
        fw_step = rnn_step(params.fw, Tensor(x[0]), initial_state(params.fw))
        bw_step = rnn_step(params.bw, Tensor(x[0]), initial_state(params.bw))
        assert np.array_equal(states[0, :2], fw_step.data)
        assert np.array_equal(states[0, 2:], bw_step.data)
        assert states.shape == (1, 4)

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
        for seed, n in ((61, 1), (62, 3), (63, 6)):
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
            sequence = Tensor(rng.uniform(-2, 2, (n, 3)), requires_grad=True)
            probe = rng.uniform(-1, 1, (n, 8 if bidirectional else 4))
            out, grads = probed_gradients(fused, params, sequence, probe)
            ref_out, ref_grads = probed_gradients(reference, params, sequence,
                                                  probe)
            assert np.abs(out - ref_out).max() <= 1e-10
            for g, ref in zip(grads, ref_grads):
                assert np.abs(g - ref).max() <= 1e-10

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
        sequence = Tensor(rng.uniform(-1, 1, (5, 3))[:3], requires_grad=True)
        probe = Tensor(rng.uniform(-1, 1, (5, 4 if bidirectional else 2))[:3])
        tensors = [t for _, t in params.named_parameters()] + [sequence]

        def loss():
            return tt.sum_all(tt.mul(scan(params, sequence), probe))

        assert tt.check_gradients(loss, tensors) < 1e-4

    def test_one_record_per_direction(self):
        cell = hd.init_cell("gru", 3, 4, RandomSource(71))
        sequence = Tensor(np.ones((5, 3)), requires_grad=True)
        with tt.Tape() as tape:
            hd.rnn_forward(cell, sequence)
        assert len(tape) == 1
        bicell = hd.init_bicell("lstm", 3, 4, RandomSource(72))
        with tt.Tape() as tape:
            hd.birnn_forward(bicell, sequence)
        assert len(tape) == 3  # two scans and their concatenation

    def test_input_width_mismatch_rejected(self):
        cell = hd.init_cell("gru", 3, 2, RandomSource(73))
        with pytest.raises(DimensionError):
            hd.rnn_forward(cell, Tensor(np.zeros((4, 2))))


class TestSummarize:
    def test_unidirectional_takes_last_valid_row(self):
        states = Tensor(np.arange(12.0).reshape(4, 3)[:2])
        assert np.array_equal(hd.summarize(states, False).data, [3.0, 4.0, 5.0])

    def test_bidirectional_concatenates_ends(self):
        states = Tensor(np.arange(16.0).reshape(4, 4)[:3])
        summary = hd.summarize(states, True).data
        assert np.array_equal(summary, [8.0, 9.0, 2.0, 3.0])


class TestClassify:
    def make_head(self, in_dim=2, dense=3, k=3, dropout=0.0, seed=20):
        return hd.init_classifier(in_dim, dense, k, dropout, RandomSource(seed))

    def test_zero_output_layer_gives_uniform(self):
        head = self.make_head(k=4)
        head.w_out.data[:] = 0.0
        head.b_out.data[:] = 0.0
        probs = hd.classify(head, Tensor(np.ones((2, 2))))
        assert np.array_equal(probs.data, np.full(4, 0.25))

    def test_bias_shift_never_changes_argmax(self):
        head = self.make_head()
        states = Tensor(RandomSource(21).uniform(-1, 1, (3, 2)))
        before = hd.predict(hd.classify(head, states))
        head.b_out.data += 7.5
        after = hd.predict(hd.classify(head, states))
        assert before == after

    def test_probabilities_sum_to_one(self):
        rng = RandomSource(22)
        head = self.make_head(k=5)
        for _ in range(10):
            states = rng.uniform(-3, 3, (4, 2))
            probs = hd.classify(head, Tensor(states[:int(rng.integers(1, 5))]))
            assert abs(probs.data.sum() - 1.0) < 1e-6

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
        assert hd.cross_entropy_loss(Tensor([0.0, 1.0]), 1).item() == 0.0

    def test_uniform_two_classes(self):
        loss = hd.cross_entropy_loss(Tensor([0.5, 0.5]), 0)
        assert loss.item() == pytest.approx(math.log(2), rel=1e-12)
        assert loss.item() == pytest.approx(0.6931, abs=1e-4)

    def test_uniform_five_classes(self):
        loss = hd.cross_entropy_loss(Tensor(np.full(5, 0.2)), 3)
        assert loss.item() == pytest.approx(math.log(5), rel=1e-12)
        assert loss.item() == pytest.approx(1.6094, abs=1e-4)

    def test_zero_probability_hits_floor(self):
        loss = hd.cross_entropy_loss(Tensor([1.0, 0.0]), 1)
        assert loss.item() == pytest.approx(-math.log(1e-12))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DataError):
            hd.cross_entropy_loss(Tensor([0.5, 0.5]), 2)

    def test_average_losses(self):
        losses = [Tensor(1.0), Tensor(2.0), Tensor(6.0)]
        assert hd.average_losses(losses).item() == pytest.approx(3.0)
        with pytest.raises(ParameterError):
            hd.average_losses([])


def build_pipeline(variant, bidirectional, d_model=3, d_rnn=3, hidden=2,
                   dense=3, k=2, dropout=0.0, seed=30):
    rng = RandomSource(seed)
    bridge = hd.init_bridge(d_model, d_rnn, rng.derive("bridge"))
    if bidirectional:
        cell = hd.init_bicell(variant, d_rnn, hidden, rng.derive("cell"))
        in_dim = 2 * hidden
    else:
        cell = hd.init_cell(variant, d_rnn, hidden, rng.derive("cell"))
        in_dim = hidden
    head = hd.init_classifier(in_dim, dense, k, dropout, rng.derive("head"))
    return bridge, cell, head


class TestPipelineForward:
    def test_loss_attached_only_with_label(self):
        bridge, cell, head = build_pipeline("lstm", False)
        matrix = RandomSource(32).uniform(-1, 1, (3, 3))
        probs, loss = hd.pipeline_forward(Tensor(matrix), bridge, cell, head)
        assert loss is None
        probs2, loss2 = hd.pipeline_forward(Tensor(matrix), bridge, cell,
                                            head, label=1)
        assert np.array_equal(probs.data, probs2.data)
        assert loss2.item() == pytest.approx(-math.log(max(probs.data[1], 1e-12)))

    def test_training_dropout_is_seed_deterministic(self):
        bridge, cell, head = build_pipeline("gru", True, dropout=0.3)
        matrix = RandomSource(33).uniform(-1, 1, (4, 3))
        runs = [
            hd.pipeline_forward(Tensor(matrix), bridge, cell, head,
                                rng=RandomSource(99), training=True)[0].data
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])
        eval_probs, _ = hd.pipeline_forward(Tensor(matrix), bridge, cell, head)
        assert not np.array_equal(runs[0], eval_probs.data)

    def test_order_sensitivity_witness(self):
        bridge, cell, head = build_pipeline("gru", False, seed=35)
        rng = RandomSource(36)
        matrix = rng.uniform(-1, 1, (4, 3))
        reordered = matrix[[2, 0, 3, 1]]
        a = hd.pipeline_forward(Tensor(matrix), bridge, cell, head)[0].data
        b = hd.pipeline_forward(Tensor(reordered), bridge, cell, head)[0].data
        assert not np.allclose(a, b, atol=1e-6)

    def test_gru_sample_records_far_fewer_than_100_tape_entries(self):
        bridge, cell, head = build_pipeline("gru", False, d_model=8, d_rnn=8,
                                            hidden=8, dropout=0.1)
        matrix = Tensor(RandomSource(37).uniform(-1, 1, (64, 8))[:45],
                        requires_grad=True)
        with tt.Tape() as tape:
            hd.pipeline_forward(matrix, bridge, cell, head,
                                rng=RandomSource(38), training=True, label=1,
                                rows=64)
        assert len(tape) < 100

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
            matrix = Tensor(RandomSource(seed + 500).uniform(-1, 1, (4, 3))[:3],
                            requires_grad=True)
            tensors = [matrix]
            for params in (bridge, cell, head):
                tensors.extend(t for _, t in params.named_parameters())

            def loss():
                return hd.pipeline_forward(matrix, bridge, cell, head,
                                           label=1)[1]

            assert tt.check_gradients(loss, tensors) < 1e-4


class TestMeanPoolForward:
    def test_permutation_invariance(self):
        rng = RandomSource(50)
        bridge = hd.init_bridge(3, 3, rng.derive("bridge"))
        head = hd.init_classifier(3, 3, 2, 0.0, rng.derive("head"))
        matrix = RandomSource(51).uniform(-1, 1, (4, 3))
        a = hd.mean_pool_forward(Tensor(matrix), bridge, head)[0].data
        b = hd.mean_pool_forward(Tensor(matrix[[3, 1, 0, 2]]), bridge,
                                 head)[0].data
        assert np.allclose(a, b, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = RandomSource(54)
        bridge = hd.init_bridge(3, 3, rng.derive("bridge"))
        head = hd.init_classifier(3, 3, 2, 0.0, rng.derive("head"))
        matrix = Tensor(RandomSource(55).uniform(-1, 1, (4, 3)),
                        requires_grad=True)
        tensors = [matrix]
        for params in (bridge, head):
            tensors.extend(t for _, t in params.named_parameters())

        def loss():
            return hd.mean_pool_forward(matrix, bridge, head, label=0)[1]

        assert tt.check_gradients(loss, tensors) < 1e-4
