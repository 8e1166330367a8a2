"""Tensor op forward values, backward rules, and tape behavior."""

import math
import weakref

import numpy as np
import pytest

from seqcls import model as md
from seqcls import tensor as T
from seqcls.bpe import PAD_ID, TokenSequence
from seqcls.encoder import EncoderConfig
from seqcls.errors import DimensionError, NumericError, ParameterError
from seqcls.rng import RandomSource
from seqcls.tensor import Tape, Tensor, make_output


# Ops the program no longer calls, kept with their gradient checks for the
# reference heads in ``test_heads``, the reference layers and denoising
# loss in ``test_encoder``, and as nonlinear probes here.


def matvec(a, x):
    """Matrix-vector product: (m, n) @ (n,) -> (m,)."""
    if a.data.ndim != 2 or x.data.ndim != 1 or a.shape[1] != x.shape[0]:
        raise DimensionError(f"matvec shapes incompatible: {a.shape} @ {x.shape}")
    data = a.data @ x.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.outer(g, x.data))
        if x.requires_grad:
            x.accumulate_grad(a.data.T @ g)

    return make_output(data, (a, x), backward)


def add(a, b):
    """Elementwise sum; ``b`` may be a bias broadcast over leading axes."""
    if a.shape != b.shape:
        # bias-add: b's shape must be a suffix of a's.
        k = b.data.ndim
        if k == 0 or a.data.ndim <= k or a.shape[a.data.ndim - k:] != b.shape:
            raise DimensionError(f"add shapes incompatible: {a.shape} + {b.shape}")
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            if a.shape == b.shape:
                b.accumulate_grad(g)
            else:
                axes = tuple(range(a.data.ndim - b.data.ndim))
                b.accumulate_grad(g.sum(axis=axes))

    return make_output(data, (a, b), backward)


def scale(x, c):
    """Multiply by a python scalar constant."""
    c = float(c)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * c)

    return make_output(x.data * c, (x,), backward)


def neg(x):
    return scale(x, -1.0)


def log(x):
    data = np.log(x.data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g / x.data)

    return make_output(data, (x,), backward)


def clip_min(x, floor):
    """max(x, floor); gradient passes through only where x >= floor."""
    data = np.maximum(x.data, floor)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (x.data >= floor))

    return make_output(data, (x,), backward)


def pick(x, i):
    """Element ``i`` of a vector as a scalar tensor."""
    if x.data.ndim != 1:
        raise DimensionError(f"pick needs a vector, got {x.shape}")
    i = int(i)

    def backward(g):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            dx[i] = float(g)
            x.accumulate_grad(dx)

    return make_output(np.asarray(x.data[i]), (x,), backward)


def stack_rows(rows):
    """Stack same-length vectors into a matrix, one per row; a tensor that
    appears more than once accumulates its gradient over every occurrence."""
    width = rows[0].shape
    for r in rows:
        if r.data.ndim != 1 or r.shape != width:
            raise DimensionError(f"stack_rows needs equal vectors, got {r.shape} vs {width}")
    held = list(rows)

    def backward(g):
        for k, r in enumerate(held):
            if r.requires_grad:
                r.accumulate_grad(g[k])

    return make_output(np.stack([r.data for r in held]), held, backward)


def slice_vec(x, start, stop):
    """Elements [start, stop) of a vector."""
    if x.data.ndim != 1:
        raise DimensionError(f"slice_vec needs a vector, got {x.shape}")

    def backward(g):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            dx[start:stop] = g
            x.accumulate_grad(dx)

    return make_output(x.data[start:stop].copy(), (x,), backward)


def tanh(x):
    data = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - data * data))

    return make_output(data, (x,), backward)


def sigmoid(x):
    # Branch on sign so exp never overflows.
    d = x.data
    data = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                    np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * data * (1.0 - data))

    return make_output(data, (x,), backward)


def sum_rows(x):
    """Sum a 2-D tensor over axis 0, yielding one row."""
    if x.data.ndim != 2:
        raise DimensionError(f"sum_rows needs a 2-D tensor, got {x.shape}")

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(g, x.shape))

    return make_output(x.data.sum(axis=0), (x,), backward)


def separate_masks(rng, p, shapes):
    """Inverted-dropout masks, one ``bernoulli`` draw per shape in order:
    the oracle of ``dropout_mask``."""
    return [rng.bernoulli(1.0 - p, shape) / (1.0 - p) for shape in shapes]


def fit_mask(keep, shape):
    """A mask drawn at a padded height, for an input of ``shape``: a taller
    mask applies its top ``shape[0]`` rows, as the reference paths apply
    the masks the model draws.  Any other mismatch raises
    ``DimensionError``."""
    keep = keep[:shape[0]]
    if keep.shape != tuple(shape):
        raise DimensionError(f"dropout mask {keep.shape} vs input {tuple(shape)}")
    return keep


def summary_mask_row(keep, length, cell_kind):
    """The row of a classifier mask drawn at a padded height that the
    summary of a ``length``-row sequence reads: the last row; the backward
    half of a bidirectional state reads row 0, and the mean head its one
    pooled row.  ``cell_kind`` is "mean", "uni" or "bi"."""
    if cell_kind == "mean":
        return keep[0]
    row = keep[length - 1].copy()
    if cell_kind == "bi":
        half = len(row) // 2
        row[half:] = keep[0, half:]
    return row


def finite_diff(f, params, h=1e-6):
    """Independent central-difference gradients, one coordinate at a time."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(f().data)
            flat[i] = orig - h
            down = float(f().data)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def tape_grads(f, params):
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        tape.backward(f())
    return [p.grad for p in params]


class TestForwardValues:
    def test_matmul_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, b.data)

    def test_matmul_hand(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_zeros(self):
        out = T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_extreme_inputs_do_not_overflow(self):
        out = sigmoid(Tensor([-1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_tanh_zero(self):
        assert tanh(Tensor([0.0])).data[0] == 0.0

    def test_relu_definition(self):
        np.testing.assert_array_equal(T.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_elementwise_shape_error(self):
        with pytest.raises(DimensionError):
            T.mul(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_softmax_closed_form(self):
        out = T.softmax(Tensor([math.log(2.0), 0.0]))
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_softmax_stabilized(self):
        out = T.softmax(Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_softmax_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            T.softmax(Tensor(np.zeros((2, 0))), axis=1)

    def test_concat_vectors(self):
        out = T.concat(Tensor([1.0, 2.0]), Tensor([3.0]), axis=0)
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_shape_law(self):
        out = T.concat(Tensor(np.ones((4, 3))), Tensor(np.ones((4, 3))), axis=1)
        assert out.shape == (4, 6)

    def test_concat_incompatible(self):
        with pytest.raises(DimensionError):
            T.concat(Tensor(np.ones((4, 3))), Tensor(np.ones((5, 3))), axis=1)

    def test_layer_norm_constant_row(self):
        x = Tensor(np.full((2, 4), 3.0))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_layer_norm_already_normalized(self):
        """Unit variance; the 1e-5 added to it is all that moves the row."""
        x = Tensor([[1.0, -1.0]])
        out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]] / np.sqrt(1 + 1e-5),
                                   rtol=1e-15)

    def test_layer_norm_zero_gain_broadcasts_bias(self):
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 4)))
        bias = Tensor(np.arange(4.0))
        out = T.layer_norm(x, Tensor(np.zeros(4)), bias)
        np.testing.assert_allclose(out.data, np.tile(bias.data, (3, 1)))

    def test_layer_norm_matches_numpy_statistics_bit_for_bit(self):
        """The shared normalization takes the steps ``np.mean`` and
        ``np.var`` take: output and every gradient equal the formulas
        written with them."""
        rng = RandomSource(8)
        for _ in range(200):
            rows, d = int(rng.integers(1, 50)), int(rng.integers(1, 80))
            x = Tensor(rng.uniform(-3, 3, (rows, d)), requires_grad=True)
            gain = Tensor(rng.uniform(0.5, 1.5, d), requires_grad=True)
            bias = Tensor(rng.uniform(-0.5, 0.5, d), requires_grad=True)
            g = rng.uniform(-1, 1, (rows, d))
            with Tape() as tape:
                out = T.layer_norm(x, gain, bias)
                tape.backward(T.sum_all(T.mul(out, Tensor(g))))
            inv = 1.0 / np.sqrt(x.data.var(axis=-1, keepdims=True) + 1e-5)
            xhat = (x.data - x.data.mean(axis=-1, keepdims=True)) * inv
            np.testing.assert_array_equal(out.data, xhat * gain.data + bias.data)
            gx = g * gain.data
            expected_x = inv * (gx - gx.mean(axis=-1, keepdims=True)
                                - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
            np.testing.assert_array_equal(x.grad, expected_x)
            np.testing.assert_array_equal(gain.grad, (g * xhat).sum(axis=0))
            np.testing.assert_array_equal(bias.grad, g.sum(axis=0))

    def test_add_bias_broadcast(self):
        out = add(Tensor(np.ones((3, 2))), Tensor([10.0, 20.0]))
        np.testing.assert_array_equal(out.data, [[11.0, 21.0]] * 3)


class TestDropout:
    def test_p_zero_is_identity(self):
        x = Tensor([1.0, 2.0])
        rng = RandomSource(0)
        keep = T.dropout_mask(rng, 0.0, (2,))
        assert keep is None and T.dropout(x, keep) is x
        assert np.array_equal(rng.uniform(0, 1, 3), RandomSource(0).uniform(0, 1, 3))

    def test_eval_mode_is_identity(self):
        x = Tensor([1.0, 2.0])
        keep = T.dropout_mask(None, 0.9, (2,))
        assert keep is None and T.dropout(x, keep) is x

    def test_bad_rate_rejected(self):
        with pytest.raises(ParameterError):
            T.dropout_mask(RandomSource(0), 1.0, (1,))
        with pytest.raises(ParameterError):  # checked before the source
            T.dropout_mask(None, 1.0, (1,))

    def test_expectation_preserved(self):
        # Monte-Carlo oracle: inverted scaling keeps E[output] = input.
        rng = RandomSource(7)
        x = Tensor(np.full(10_000, 2.0))
        out = T.dropout(x, T.dropout_mask(rng, 0.5, x.shape))
        assert abs(out.data.mean() - 2.0) / 2.0 < 0.02

    def test_backward_uses_same_mask(self):
        rng = RandomSource(3)
        x = Tensor(np.ones(50), requires_grad=True)
        with Tape() as tape:
            out = T.dropout(x, T.dropout_mask(rng, 0.5, x.shape))
            tape.backward(T.sum_all(out))
        np.testing.assert_array_equal(x.grad, out.data)

    @staticmethod
    def drawn(bundle, example, seed, shapes):
        """``md.draw_masks`` for ``example`` in training, its flat list of
        masks (the encoder's, the bridge's, the classifier row), and
        ``separate_masks`` over ``shapes`` from the same seed; asserts both
        streams end at the same place."""
        rng, replay = RandomSource(seed), RandomSource(seed)
        encoder, head = md.draw_masks(bundle, example, rng)
        cut = [keep for pair in encoder or () for keep in pair] + list(head)
        padded = separate_masks(replay, 0.5, shapes)
        np.testing.assert_array_equal(rng.uniform(0, 1, 3),
                                      replay.uniform(0, 1, 3))
        return cut, padded

    def test_rows_draws_the_full_mask_and_keeps_its_top(self):
        """Every mask is drawn at the 7-id padded height; the encoder and
        bridge masks keep their 3 top rows, as copies."""
        encoder = EncoderConfig(d_model=4, n_heads=2, n_layers=1,
                                vocab_size=16, max_len=7, dropout=0.5)
        bundle = md.init_model(md.ModelConfig(
            n_classes=2, encoder=encoder, hidden_units=3, d_rnn=4,
            dense_units=4, dropout=0.5), seed=5)
        example = md.Example(1, tokens=TokenSequence([3, 1, 4] + [PAD_ID] * 4,
                                                     3))
        cut, padded = self.drawn(bundle, example, 5, [(7, 4)] * 3 + [(7, 3)])
        for keep, full in zip(cut[:3], padded):
            np.testing.assert_array_equal(keep, full[:3])
            assert keep.base is None
        np.testing.assert_array_equal(cut[3], padded[3][2])
        assert cut[3].base is None

    def test_mask_shape_mismatch_rejected(self):
        for shape in ((3, 5), (7, 4)):
            with pytest.raises(DimensionError, match="dropout mask"):
                T.dropout(Tensor(np.ones((3, 4))), np.ones(shape))

    def test_fitted_mask_lets_the_padded_mask_go(self, monkeypatch):
        """An imported 5-row matrix: the bridge mask is the padded draw,
        copied, and the classifier row the one the summary reads, for a
        bidirectional and a mean head; no padded draw outlives
        ``draw_masks``."""
        draws = []
        dropout_mask = T.dropout_mask

        def watched(*args):
            keep = dropout_mask(*args)
            draws.append(weakref.ref(keep))
            return keep

        monkeypatch.setattr(T, "dropout_mask", watched)
        example = md.Example(0, matrix=np.ones((5, 3)))
        for kind, state_rows in (("bi", 5), ("mean", 1)):
            bundle = md.init_model(md.ModelConfig(
                n_classes=2, encoder=None, input_dim=3,
                head_kind="mean" if kind == "mean" else "rnn",
                rnn_variant="bigru", hidden_units=2, d_rnn=4, dense_units=4,
                dropout=0.5), seed=6)
            draws.clear()
            cut, padded = self.drawn(bundle, example, 6,
                                     [(5, 3), (state_rows, 4)])
            assert len(draws) == 2 and all(ref() is None for ref in draws)
            np.testing.assert_array_equal(cut[0], padded[0])
            np.testing.assert_array_equal(
                cut[1], summary_mask_row(padded[1], 5, kind))
            assert cut[0].base is None and cut[1].base is None


class TestStructureOps:
    def test_concat_split_round_trip(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(size=(2, 3)), rng.uniform(size=(2, 5))
        joined = T.concat(Tensor(a), Tensor(b), axis=1)
        back_a, back_b = np.split(joined.data, [3], axis=1)
        np.testing.assert_array_equal(back_a, a)
        np.testing.assert_array_equal(back_b, b)

    def test_stack_rows_and_row_inverse(self):
        rows = [Tensor([1.0, 2.0]), Tensor([3.0, 4.0])]
        m = stack_rows(rows)
        np.testing.assert_array_equal(T.row(m, 1).data, [3.0, 4.0])

    def test_gather_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(table, [2, 0])
        np.testing.assert_array_equal(out.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])

    def test_slice_vec(self):
        v = Tensor([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(slice_vec(v, 1, 3).data, [2.0, 3.0])

    def test_stack_rows_repeated_tensor_accumulates(self):
        v = Tensor([1.0, 1.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(T.sum_all(stack_rows([v, v, v])))
        np.testing.assert_array_equal(v.grad, [3.0, 3.0])

    @pytest.mark.parametrize("prior", [False, True], ids=["fresh", "accumulated"])
    def test_gather_rows_backward_equals_the_dense_table_rule(self, prior):
        """Repeated ids sum in id order, as ``np.add.at`` into a zero table
        the size of ``table`` followed by one whole-table add would."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            table = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)
            ids = rng.integers(0, 6, int(rng.integers(0, 10)))
            g = rng.uniform(-1, 1, (len(ids), 3))
            dense = np.zeros((6, 3))
            np.add.at(dense, ids, g)
            if prior:
                table.grad = rng.uniform(-1, 1, (6, 3))
                dense += table.grad
            with Tape() as tape:
                out = T.gather_rows(table, ids)
                tape.backward(T.sum_all(T.mul(out, Tensor(g))))
            assert np.array_equal(table.grad, dense)


class TestBackwardAgainstFiniteDifferences:
    """Every op's backward rule vs the central-difference oracle."""

    def check(self, f, params, tol=1e-4):
        analytic = tape_grads(f, params)
        numeric = finite_diff(f, params)
        for a, n in zip(analytic, numeric):
            a = np.zeros_like(n) if a is None else a
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
            assert (np.abs(a - n) / denom).max() < tol

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(42)

    def test_matmul(self, rng):
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        self.check(lambda: T.sum_all(tanh(T.matmul(a, b))), [a, b])

    def test_matmul_batched_left_operand(self, rng):
        a = Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        out = T.matmul(a, b)
        np.testing.assert_allclose(out.data, a.data @ b.data, atol=1e-15)
        self.check(lambda: T.sum_all(tanh(T.matmul(a, b))), [a, b])

    def test_linear(self, rng):
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 2), requires_grad=True)
        out = T.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data, atol=1e-15)
        self.check(lambda: T.sum_all(tanh(T.linear(x, w, b))), [x, w, b])

    def test_matvec(self, rng):
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
        self.check(lambda: T.sum_all(sigmoid(matvec(a, x))), [a, x])

    def test_elementwise_chain(self, rng):
        a = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        self.check(lambda: T.sum_all(T.mul(tanh(a), sigmoid(b))), [a, b])

    def test_relu(self, rng):
        # Keep inputs away from the kink where central differences lie.
        x = Tensor(rng.uniform(0.1, 1, (2, 3)) * rng.choice([-1.0, 1.0], (2, 3)),
                   requires_grad=True)
        self.check(lambda: T.sum_all(T.relu(x)), [x])

    def test_softmax_jacobian(self, rng):
        x = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, 5))
        self.check(lambda: T.sum_all(T.mul(T.softmax(x), w)), [x])

    def test_softmax_2d_axis1(self, rng):
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3, 4)))
        self.check(lambda: T.sum_all(T.mul(T.softmax(x, axis=1), w)), [x])

    def test_concat(self, rng):
        a = Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (2, 5)))
        self.check(lambda: T.sum_all(T.mul(T.concat(a, b, axis=1), w)), [a, b])

    def test_layer_norm(self, rng):
        x = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
        bias = Tensor(rng.uniform(-0.5, 0.5, 5), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3, 5)))
        self.check(lambda: T.sum_all(T.mul(T.layer_norm(x, gain, bias), w)),
                   [x, gain, bias])

    def test_gather_and_pick(self, rng):
        table = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)
        self.check(
            lambda: pick(T.row(tanh(T.gather_rows(table, [1, 4, 1])), 0), 2),
            [table],
        )

    def test_log_clip(self, rng):
        x = Tensor(rng.uniform(0.2, 1, 4), requires_grad=True)
        self.check(lambda: neg(T.sum_all(log(clip_min(x, 1e-12)))), [x])

    def test_slice_vec_grad(self, rng):
        x = Tensor(rng.uniform(-1, 1, 6), requires_grad=True)
        self.check(lambda: T.sum_all(tanh(slice_vec(x, 2, 5))), [x])

    def test_sum_rows_mean(self, rng):
        x = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        self.check(lambda: scale(T.sum_all(tanh(sum_rows(x))), 1.0 / 3), [x])


class TestSoftmaxProperties:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = Tensor(rng.uniform(-10, 10, (4, 7)))
            sums = T.softmax(x, axis=1).data.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.uniform(-5, 5, 9)
            base = T.softmax(Tensor(v)).data
            shifted = T.softmax(Tensor(v + 123.456)).data
            np.testing.assert_allclose(base, shifted, atol=1e-12)
            assert np.argmax(base) == np.argmax(shifted)


class TestGradientChecker:
    def test_quadratic_closed_form(self):
        theta = Tensor([3.0], requires_grad=True)
        err = T.check_gradients(lambda: T.sum_all(T.mul(theta, theta)), [theta])
        assert err < 1e-8
        np.testing.assert_allclose(theta.grad, [6.0], atol=1e-12)

    def test_linear_is_exact(self):
        theta = Tensor([1.0, -2.0], requires_grad=True)
        w = Tensor([4.0, 5.0])
        err = T.check_gradients(lambda: T.sum_all(T.mul(theta, w)), [theta])
        assert err < 1e-10

    def test_bad_step_rejected(self):
        theta = Tensor([1.0], requires_grad=True)
        with pytest.raises(ParameterError):
            T.check_gradients(lambda: T.sum_all(theta), [theta], h=0.0)


class TestTape:
    def test_no_recording_outside_tape(self):
        x = Tensor([1.0], requires_grad=True)
        y = tanh(x)
        assert y.requires_grad
        with Tape() as tape:
            pass
        assert len(tape) == 0

    def test_scalar_loss_required(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = tanh(x)
            with pytest.raises(DimensionError):
                tape.backward(y)

    def test_deterministic_replay(self):
        def run():
            rng = RandomSource(99)
            x = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
            with Tape() as tape:
                keep = T.dropout_mask(rng.derive("drop"), 0.3, (4, 4))
                out = T.dropout(tanh(T.matmul(x, x)), keep)
                tape.backward(T.sum_all(out))
            return out.data.tobytes(), x.grad.tobytes()

        assert run() == run()

    @pytest.mark.parametrize("unused", [
        lambda h: T.row(h, 0), T.relu, lambda h: T.softmax(h, axis=-1),
    ], ids=["row", "relu", "softmax"])
    def test_output_the_loss_never_reads_runs_no_rule(self, unused):
        rng = np.random.default_rng(3)
        w = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)

        def run(with_unused):
            for p in (w, x):
                p.zero_grad()
            with Tape() as tape:
                hidden = tanh(T.matmul(x, w))
                if with_unused:
                    unused(hidden)
                tape.backward(T.sum_all(T.mul(hidden, hidden)))
            return [w.grad, x.grad]

        for plain, extra in zip(run(False), run(True)):
            assert np.array_equal(plain, extra)

    @staticmethod
    def doubled(a, name, refs, alive):
        """``a * 2`` as an op whose rule captures its factor array, watched
        through ``refs[name]``; the rule appends the names of the factors
        still alive to ``alive``."""
        factor = np.full(a.shape, 2.0)
        refs[name] = weakref.ref(factor)

        def backward(g):
            alive.append(sorted(n for n, ref in refs.items() if ref() is not None))
            if a.requires_grad:
                a.accumulate_grad(g * factor)

        return make_output(a.data * factor, (a,), backward)

    def test_backward_spends_the_tape(self):
        """Each record goes once its turn passes, whether its rule ran or,
        its output unread by the loss, was skipped; ``len`` still counts
        every recorded op, and a held intermediate keeps its gradient."""
        x = Tensor([1.0, -3.0], requires_grad=True)
        refs, alive = {}, []
        with Tape() as tape:
            first = self.doubled(x, "first", refs, alive)
            self.doubled(first, "unread", refs, alive)
            second = self.doubled(first, "second", refs, alive)
            tape.backward(T.sum_all(second))
            assert len(tape) == 4
        assert alive == [["first", "second", "unread"], ["first"]]
        assert all(ref() is None for ref in refs.values())
        assert np.array_equal(first.grad, [2.0, 2.0])
        assert np.array_equal(x.grad, [4.0, 4.0])

    def test_second_backward_is_refused(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_all(tanh(x))
            tape.backward(loss)
            with pytest.raises(ParameterError):
                tape.backward(loss)
        assert len(tape) == 2

    def test_a_loss_refused_as_not_finite_leaves_the_tape_unspent(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
            with pytest.raises(NumericError):
                tape.backward(T.sum_all(T.mul(y, Tensor([np.inf]))))
            tape.backward(T.sum_all(y))
        assert np.array_equal(x.grad, [2.0])
