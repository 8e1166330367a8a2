"""Tests for the optimizers and the training loop."""

import numpy as np
import pytest

from seqcls import model as md
from seqcls import optim as op
from seqcls.bpe import TokenSequence
from seqcls.encoder import EncoderConfig, encoder_forward
from seqcls.errors import DataError, NumericError, ParameterError
from seqcls.tensor import Tensor


def single_param(value):
    theta = Tensor(np.asarray(value, dtype=float), requires_grad=True)
    return theta, [("theta", theta)]


def run_quadratic(algorithm, lr, steps, start=1.0):
    """Minimize f(theta) = theta^2 elementwise with exact gradients."""
    theta, named = single_param(np.full(4, start))
    optimizer = op.make_optimizer(
        op.OptimizerConfig(algorithm=algorithm, lr=lr, weight_decay=0.0), named)
    for _ in range(steps):
        theta.grad = 2.0 * theta.data
        optimizer.step()
    return theta.data


def reference_update(algorithm, lr, decay, data, g, m, v, t):
    """One optimizer update of one tensor, written out from the update
    formulas; returns the new (data, m, v)."""
    beta1, beta2, rho, eps = 0.9, 0.999, 0.9, 1e-8
    if algorithm == "rmsprop":
        v = rho * v + (1 - rho) * g * g
        update = lr * g / (np.sqrt(v) + eps)
    else:
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        if algorithm == "nadam":
            m_hat = beta1 * m_hat + (1 - beta1) / (1.0 - beta1 ** t) * g
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
    if decay > 0.0:
        update = update + lr * decay * data
    return data - update, m, v


class TestUpdateOracle:
    @pytest.mark.parametrize("decay", [0.0, 0.05])
    @pytest.mark.parametrize("algorithm", op.OPTIMIZERS)
    def test_bit_identical_to_the_formulas(self, algorithm, decay):
        rng = np.random.default_rng(4)
        # a 0-d tensor, and one without a gradient on some steps
        shapes = [(3, 4), (40,), (), (7,)]
        tensors = [Tensor(rng.uniform(-1, 1, s), requires_grad=True)
                   for s in shapes]
        named = [(f"t{i}", t) for i, t in enumerate(tensors)]
        state = [(t.data.copy(), np.zeros(t.shape), np.zeros(t.shape))
                 for t in tensors]
        optimizer = op.make_optimizer(
            op.OptimizerConfig(algorithm=algorithm, lr=0.01, weight_decay=decay),
            named)
        for step in range(1, 6):
            optimizer.zero_grad()
            for i, t in enumerate(tensors):
                if not (i == 3 and step % 2):
                    t.grad = rng.normal(0, 1, t.shape)
            grads = [np.zeros(t.shape) if t.grad is None else t.grad
                     for t in tensors]
            state = [reference_update(algorithm, 0.01, decay, d, g, m, v, step)
                     for (d, m, v), g in zip(state, grads)]
            optimizer.step()
            for t, (d, _, _) in zip(tensors, state):
                assert np.array_equal(t.data, d)


class TestAdamW:
    def test_zero_gradient_decay_is_geometric(self):
        theta, named = single_param([1.0, -2.0, 0.5])
        start = theta.data.copy()
        optimizer = op.make_optimizer(
            op.OptimizerConfig(algorithm="adamw", lr=0.01, weight_decay=0.1),
            named)
        for t in range(1, 51):
            theta.grad = np.zeros(3)
            optimizer.step()
            expected = start * (1.0 - 0.001) ** t
            assert np.allclose(theta.data, expected, atol=1e-10)

    def test_no_decay_reduces_to_adam(self):
        rng = np.random.default_rng(2)
        theta, named = single_param(rng.uniform(-1, 1, 5))
        mirror = theta.data.copy()
        optimizer = op.make_optimizer(
            op.OptimizerConfig(algorithm="adamw", lr=0.05, weight_decay=0.0),
            named)
        m = np.zeros(5)
        v = np.zeros(5)
        for t in range(1, 8):
            g = rng.uniform(-1, 1, 5)
            theta.grad = g.copy()
            optimizer.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            mirror = mirror - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.allclose(theta.data, mirror, atol=1e-15)

    def test_quadratic_convergence(self):
        final = run_quadratic("adamw", lr=0.1, steps=200)
        assert np.abs(final).max() < 0.05

    def test_default_decay_is_decoupled_and_on(self):
        config = op.OptimizerConfig(algorithm="adamw", lr=0.01)
        assert config.weight_decay == 0.01

    def test_decay_also_shrinks_biases_and_layer_norm_gains(self):
        encoder = EncoderConfig(d_model=4, n_heads=2, n_layers=1,
                                vocab_size=8, max_len=6)
        bundle = md.init_model(md.ModelConfig(n_classes=2, encoder=encoder,
                                              hidden_units=3, d_rnn=3,
                                              dense_units=3), seed=1)
        named = dict(bundle.all_named_parameters())
        named["bridge.b"].data = np.full(3, 0.5)
        before = {name: t.data.copy() for name, t in named.items()}
        optimizer = op.make_optimizer(
            op.OptimizerConfig(algorithm="adamw", lr=0.1), named.items())
        optimizer.step()  # every gradient is zero
        for name in ("bridge.b", "encoder.layer0.ln1.gain",
                     "encoder.layer0.ln2.gain"):
            assert np.allclose(named[name].data, before[name] * (1.0 - 0.1 * 0.01),
                               rtol=0, atol=1e-15), name
            assert not np.array_equal(named[name].data, before[name]), name


class TestNAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        theta, named = single_param([0.7, -0.3])
        before = theta.data.copy()
        optimizer = op.make_optimizer(
            op.OptimizerConfig(algorithm="nadam", lr=0.01), named)
        for _ in range(10):
            theta.grad = np.zeros(2)
            optimizer.step()
        assert np.array_equal(theta.data, before)

    def test_first_step_moves_against_gradient_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = rng.uniform(-2, 2, 4)
            g[np.abs(g) < 0.1] = 0.5
            theta, named = single_param(np.zeros(4))
            optimizer = op.make_optimizer(
                op.OptimizerConfig(algorithm="nadam", lr=0.01), named)
            theta.grad = g.copy()
            optimizer.step()
            assert np.array_equal(np.sign(theta.data), -np.sign(g))

    def test_quadratic_convergence(self):
        final = run_quadratic("nadam", lr=0.1, steps=200)
        assert np.abs(final).max() < 0.05

    def test_default_decay_off(self):
        assert op.OptimizerConfig(algorithm="nadam", lr=0.01).weight_decay == 0.0


class TestRMSprop:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        theta, named = single_param([0.7, -0.3])
        before = theta.data.copy()
        optimizer = op.make_optimizer(
            op.OptimizerConfig(algorithm="rmsprop", lr=0.01), named)
        for _ in range(5):
            theta.grad = np.zeros(2)
            optimizer.step()
        assert np.array_equal(theta.data, before)

    def test_constant_gradient_step_approaches_learning_rate(self):
        theta, named = single_param([0.0])
        optimizer = op.make_optimizer(
            op.OptimizerConfig(algorithm="rmsprop", lr=0.01), named)
        previous = theta.data.copy()
        for _ in range(200):
            previous = theta.data.copy()
            theta.grad = np.array([0.3])
            optimizer.step()
        last_step = abs(float(theta.data[0] - previous[0]))
        assert last_step == pytest.approx(0.01, rel=1e-6)

    def test_quadratic_convergence(self):
        final = run_quadratic("rmsprop", lr=0.01, steps=200)
        assert np.abs(final).max() < 0.05

    @pytest.mark.parametrize("algorithm,count",
                             [("rmsprop", 1), ("adamw", 2), ("nadam", 2)])
    def test_holds_only_the_moments_it_reads(self, algorithm, count):
        shapes = [(3, 2), (4,), ()]
        named = [(f"t{i}", Tensor(np.ones(s), requires_grad=True))
                 for i, s in enumerate(shapes)]
        optimizer = op.make_optimizer(
            op.OptimizerConfig(algorithm=algorithm, lr=0.01), named)
        for moments, shape in zip(optimizer.moments, shapes):
            assert [m.shape for m in moments] == [shape] * count


class TestOptimizerCommon:
    @pytest.mark.parametrize("algorithm", op.OPTIMIZERS)
    def test_norm_driven_under_tolerance_within_500_steps(self, algorithm):
        theta, named = single_param(np.ones(6))
        optimizer = op.make_optimizer(
            op.OptimizerConfig(algorithm=algorithm, lr=0.01, weight_decay=0.0),
            named)
        for _ in range(500):
            theta.grad = 2.0 * theta.data
            optimizer.step()
        assert float(np.linalg.norm(theta.data)) < 0.05

    @pytest.mark.parametrize("algorithm", op.OPTIMIZERS)
    def test_non_finite_gradient_names_the_parameter(self, algorithm):
        # an earlier parameter with a finite gradient: a step that raises
        # must leave it, its moments and the step count as they were
        first = Tensor(np.array([1.0]), requires_grad=True)
        theta = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = op.make_optimizer(
            op.OptimizerConfig(algorithm=algorithm, lr=0.1),
            [("first", first), ("theta", theta)])
        first.grad = np.array([1.0])
        theta.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="theta"):
            optimizer.step()
        assert optimizer.step_count == 0
        assert np.array_equal(first.data, [1.0])
        for moment in optimizer.moments[0]:
            assert np.array_equal(moment, [0.0])

    def test_missing_gradient_treated_as_zero(self):
        theta, named = single_param([1.0])
        optimizer = op.make_optimizer(
            op.OptimizerConfig(algorithm="rmsprop", lr=0.01), named)
        theta.zero_grad()
        optimizer.step()
        assert np.array_equal(theta.data, [1.0])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ParameterError):
            op.OptimizerConfig(algorithm="sgd", lr=0.1)

    # step decays only when weight_decay > 0, so a negative or NaN decay
    # must be refused here, not run as no decay
    @pytest.mark.parametrize("setting", [
        {"lr": float("nan")}, {"lr": float("inf")}, {"lr": -1.0},
        {"weight_decay": -0.01}, {"weight_decay": float("nan")},
        {"weight_decay": float("inf")}], ids=repr)
    def test_non_finite_or_negative_settings_rejected(self, setting):
        with pytest.raises(ParameterError, match="must be finite and >= 0"):
            op.OptimizerConfig(**setting)
        # TrainConfig keeps no check of its own: it builds an OptimizerConfig
        with pytest.raises(ParameterError, match="must be finite and >= 0"):
            op.TrainConfig(**setting)


class TestTrainConfig:
    def test_builds_the_optimizer_config_it_names(self):
        config = op.TrainConfig(lr=0.02, optimizer="nadam", epochs=2)
        assert config.optimizer_config() == op.OptimizerConfig(
            algorithm="nadam", lr=0.02, weight_decay=0.0)
        assert op.TrainConfig().optimizer_config() == op.OptimizerConfig()

    @pytest.mark.parametrize("setting", [
        {"epochs": 0}, {"batch_size": 0}, {"optimizer": "sgd"}], ids=repr)
    def test_bad_settings_rejected(self, setting):
        with pytest.raises(ParameterError):
            op.TrainConfig(**setting)


def tiny_bundle(seed=1, dropout=0.0, head_kind="rnn"):
    config = md.ModelConfig(
        n_classes=2,
        encoder=EncoderConfig(d_model=8, n_heads=2, n_layers=1, vocab_size=16,
                              max_len=6, dropout=dropout),
        head_kind=head_kind,
        rnn_variant="gru",
        hidden_units=4,
        d_rnn=4,
        dense_units=4,
        dropout=dropout,
    )
    return md.init_model(config, seed=seed)


def toy_dataset(n_per_class=6):
    """Class 0 reads 5..9 forward, class 1 reads it backward; the shared
    token multiset makes order the only usable signal."""
    examples = []
    for i in range(n_per_class):
        fill = 10 + (i % 5)
        fwd = [5, 6, 7, 8, fill, 0]
        bwd = [fill, 8, 7, 6, 5, 0]
        for ids, label in ((fwd, 0), (bwd, 1)):
            seq = TokenSequence(ids, 5)
            examples.append(md.Example(label=label, tokens=seq))
    return examples


class TestTrainLoop:
    def test_zero_learning_rate_keeps_parameters_bit_identical(self):
        bundle = tiny_bundle(seed=2)
        before = {name: p.data.copy() for name, p in bundle.all_named_parameters()}
        data = toy_dataset(3)
        op.train(bundle, data, data[:4],
                 op.TrainConfig(lr=0.0, epochs=2, batch_size=4, seed=5))
        for name, p in bundle.all_named_parameters():
            assert np.array_equal(before[name], p.data), name

    def test_same_seed_reproduces_log_and_checkpoint(self, tmp_path):
        logs = []
        blobs = []
        for run in range(2):
            bundle = tiny_bundle(seed=3, dropout=0.1)
            data = toy_dataset(4)
            result = op.train(bundle, data, data[:4],
                              op.TrainConfig(lr=1e-3, epochs=3, batch_size=4,
                                             seed=11))
            logs.append([(r.epoch, r.train_loss, r.val_accuracy,
                          r.val_f1_weighted) for r in result.log])
            path = tmp_path / f"run{run}.ckpt"
            md.save_checkpoint(path, bundle)
            blobs.append(path.read_bytes())
        assert logs[0] == logs[1]
        assert blobs[0] == blobs[1]

    def test_empty_split_rejected(self):
        bundle = tiny_bundle(seed=4)
        data = toy_dataset(2)
        with pytest.raises(DataError):
            op.train(bundle, [], data, op.TrainConfig())
        with pytest.raises(DataError):
            op.train(bundle, data, [], op.TrainConfig())

    def test_full_batch_loss_is_monotone_descending(self):
        bundle = tiny_bundle(seed=5)
        data = toy_dataset(3)
        result = op.train(
            bundle, data, data,
            op.TrainConfig(lr=1e-3, epochs=10, batch_size=len(data), seed=6))
        losses = [row.train_loss for row in result.log]
        violations = sum(1 for a, b in zip(losses, losses[1:])
                         if b > a + 1e-6)
        assert violations <= 1

    def test_freeze_encoder_only_trains_the_head(self):
        bundle = tiny_bundle(seed=7)
        before = {name: p.data.copy() for name, p in bundle.all_named_parameters()}
        data = toy_dataset(3)
        op.train(bundle, data, data[:4],
                 op.TrainConfig(lr=1e-2, epochs=2, batch_size=4, seed=8,
                                freeze_encoder=True))
        for name, p in bundle.all_named_parameters():
            if name.startswith("encoder."):
                assert np.array_equal(before[name], p.data), name
        changed = [name for name, p in bundle.all_named_parameters()
                   if not name.startswith("encoder.")
                   and not np.array_equal(before[name], p.data)]
        assert changed

    def test_frozen_encoder_runs_outside_the_tape(self):
        bundle = tiny_bundle(seed=7, dropout=0.1)
        data = toy_dataset(3)
        op.train(bundle, data, data[:4],
                 op.TrainConfig(lr=1e-2, epochs=2, batch_size=4, seed=8,
                                freeze_encoder=True))
        for name, p in bundle.all_named_parameters():
            if name.startswith("encoder."):
                assert p.grad is None, name
                assert p.requires_grad, name
            else:
                assert p.grad is not None, name

    def test_frozen_encoder_logs_the_unfrozen_losses_at_dropout_zero(self):
        results = []
        for freeze in (False, True):
            bundle = tiny_bundle(seed=7)
            data = toy_dataset(3)
            result = op.train(bundle, data, data[:4],
                              op.TrainConfig(lr=0.0, epochs=2, batch_size=4,
                                             seed=8, freeze_encoder=freeze))
            results.append([row.train_loss for row in result.log])
        assert results[0] == results[1]

    def test_frozen_run_trains_on_rows_encoded_without_dropout(self):
        """At dropout 0.1 a frozen run equals a plain run on matrix examples
        that the same encoder computed with no masks: the encoder draws
        none, and each matrix draws its bridge mask at its real height."""
        data = toy_dataset(3)
        config = dict(lr=1e-2, epochs=3, batch_size=4, seed=8,
                      weight_decay=0.0)
        frozen = tiny_bundle(seed=7, dropout=0.1)
        frozen_log = op.train(frozen, data, data[:4],
                              op.TrainConfig(freeze_encoder=True, **config),
                              clock=lambda: 0.0).log
        plain = tiny_bundle(seed=7, dropout=0.1)
        rows = [md.Example(label=ex.label, matrix=encoder_forward(
                    plain.encoder, ex.tokens).data) for ex in data]
        plain_log = op.train(plain, rows, rows[:4], op.TrainConfig(**config),
                             clock=lambda: 0.0).log
        assert frozen_log == plain_log
        for (name, a), (_, b) in zip(frozen.all_named_parameters(),
                                     plain.all_named_parameters()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_frozen_encoder_runs_once_per_line(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return encoder_forward(*args)

        monkeypatch.setattr(op, "encoder_forward", counted)
        data = toy_dataset(3)
        op.train(tiny_bundle(seed=7, dropout=0.1), data, data[:4],
                 op.TrainConfig(lr=1e-2, epochs=3, batch_size=4, seed=8,
                                freeze_encoder=True))
        assert len(calls) == len(data) + 4

    def test_bundle_holds_best_epoch_parameters(self):
        bundle = tiny_bundle(seed=9)
        data = toy_dataset(4)
        result = op.train(bundle, data, data,
                          op.TrainConfig(lr=5e-3, epochs=5, batch_size=4,
                                         seed=10))
        best_acc = max(row.val_accuracy for row in result.log)
        assert result.best_val_accuracy == best_acc
        first_best = next(r.epoch for r in result.log
                          if r.val_accuracy == best_acc)
        assert result.best_epoch == first_best
        rescored = op.evaluate(bundle, data, 2)
        assert rescored.accuracy == pytest.approx(best_acc, abs=1e-12)

    def test_overfits_separable_toy_task(self):
        bundle = tiny_bundle(seed=12)
        data = toy_dataset(5)
        op.train(bundle, data, data,
                 op.TrainConfig(lr=1e-2, epochs=15, batch_size=5, seed=13))
        report = op.evaluate(bundle, data, 2)
        assert report.accuracy >= 0.95

    def test_log_serialization(self, tmp_path):
        result = op.TrainResult(log=[
            op.EpochLog(1, 0.5, 0.75, 0.7, 1.25),
            op.EpochLog(2, 0.25, 1.0, 1.0, 1.5),
        ])
        path = tmp_path / "train.log"
        op.write_log(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == op.LOG_HEADER
        assert lines[1].split("\t")[:4] == ["1", "0.500000", "0.750000",
                                            "0.700000"]
        assert len(lines) == 3

    def test_imported_embedding_path_trains(self):
        config = md.ModelConfig(n_classes=2, encoder=None,
                                input_dim=3, rnn_variant="gru",
                                hidden_units=3, d_rnn=3, dense_units=3,
                                dropout=0.0)
        bundle = md.init_model(config, seed=14)
        rng = np.random.default_rng(15)
        data = []
        for i in range(8):
            label = i % 2
            base = np.linspace(0.2, 1, 12).reshape(4, 3)
            matrix = base if label == 0 else -base
            data.append(md.Example(label=label,
                                   matrix=matrix + rng.normal(0, 0.01, (4, 3))))
        result = op.train(bundle, data, data,
                          op.TrainConfig(lr=3e-2, epochs=30, batch_size=4,
                                         seed=16))
        assert len(result.log) == 30
        assert op.evaluate(bundle, data, 2).accuracy >= 0.75
