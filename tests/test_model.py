"""Tests for model bundle configuration, forward dispatch, and checkpoints."""

import json
import struct

import numpy as np
import pytest

from seqcls import heads as hd
from seqcls import model as md
from seqcls import tensor as tt
from seqcls.bpe import TokenSequence
from seqcls.encoder import EncoderConfig
from seqcls.errors import DataError, DimensionError, ParameterError
from seqcls.rng import RandomSource
from test_heads import reference_average_losses, reference_pipeline_forward
from test_tensor import fit_mask, separate_masks


def tiny_config(**overrides):
    defaults = dict(
        n_classes=2,
        encoder=EncoderConfig(d_model=8, n_heads=2, n_layers=1, vocab_size=16,
                              max_len=6, dropout=0.0),
        rnn_variant="gru",
        hidden_units=3,
        d_rnn=4,
        dense_units=4,
        dropout=0.0,
    )
    defaults.update(overrides)
    return md.ModelConfig(**defaults)


def with_config(blob: bytes, config_blob: bytes) -> bytes:
    """Checkpoint bytes with the JSON config block replaced."""
    (old_len,) = struct.unpack_from("<I", blob, 8)
    return (blob[:8] + struct.pack("<I", len(config_blob)) + config_blob
            + blob[12 + old_len:])


def with_deleted_setting(blob: bytes, key: str) -> bytes:
    """Checkpoint bytes whose config block holds ``key`` as it was written
    while ``ModelConfig`` had a ``bidirectional`` or an ``embedding_source``
    field, or ``EncoderConfig`` a ``pre_norm`` field."""
    (length,) = struct.unpack_from("<I", blob, 8)
    payload = json.loads(blob[12:12 + length])
    if key == "bidirectional":
        variant = payload["rnn_variant"]
        payload["rnn_variant"] = variant.removeprefix("bi")
        payload[key] = variant.startswith("bi")
    elif key == "embedding_source":
        payload[key] = ("imported" if payload["encoder"] is None
                        else "internal")
    else:
        payload["encoder"][key] = False
    return with_config(blob, json.dumps(payload, sort_keys=True,
                                        separators=(",", ":")).encode())


def tokens(ids, valid):
    return TokenSequence(list(ids), valid)


def drawn_per_slice(config, seed):
    """The encoder and cell tensors drawn as separate blocks, one per head
    and per gate in init order, then joined in the stacked layout: the
    oracle for ``init_model``'s stacked draws."""
    root = RandomSource(seed)
    drawn = {}
    e, rng = config.encoder, root.derive("encoder")

    def weight(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, (fan_in, fan_out))

    drawn["encoder.embedding"] = rng.uniform(-0.1, 0.1, (e.vocab_size, e.d_model))
    for i in range(e.n_layers):
        prefix = f"encoder.layer{i}."
        # every head's Wq, then every Wk, then every Wv
        heads = [weight(e.d_model, e.head_dim) for _ in range(3 * e.n_heads)]
        drawn[prefix + "attn.w_qkv"] = np.concatenate(heads, axis=1)
        drawn[prefix + "attn.wo"] = weight(e.d_model, e.d_model)
        drawn[prefix + "ffn.w1"] = weight(e.d_model, e.ffn_inner)
        drawn[prefix + "ffn.w2"] = weight(e.ffn_inner, e.d_model)
    if config.head_kind == "rnn":
        rng, d_in, h = root.derive("cell"), config.d_rnn, config.hidden_units
        p_limit, q_limit = np.sqrt(6.0 / (d_in + h)), np.sqrt(6.0 / (2 * h))
        variant = config.rnn_variant
        for direction in ("fw.", "bw.") if variant.startswith("bi") else ("",):
            gates = [(rng.uniform(-p_limit, p_limit, (h, d_in)),
                      rng.uniform(-q_limit, q_limit, (h, h)))
                     for _ in hd.VARIANT_GATES[variant.removeprefix("bi")]]
            drawn[f"cell.{direction}p"] = np.concatenate([p for p, _ in gates])
            drawn[f"cell.{direction}q"] = np.concatenate([q for _, q in gates])
            drawn[f"cell.{direction}b"] = np.zeros(len(gates) * h)
    return drawn


def tensor_table(blob: bytes):
    """(name, shape) of every tensor in checkpoint bytes, in file order."""
    (config_len,) = struct.unpack_from("<I", blob, 8)
    at = 12 + config_len
    (count,) = struct.unpack_from("<I", blob, at)
    at += 4
    table = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, at)
        name = blob[at + 2:at + 2 + name_len].decode("utf-8")
        at += 2 + name_len
        (ndim,) = struct.unpack_from("<B", blob, at)
        shape = struct.unpack_from(f"<{ndim}I", blob, at + 1)
        at += 1 + 4 * ndim + 4 * int(np.prod(shape))
        table.append((name, shape))
    assert at == len(blob)
    return table


ENCODER_TABLE = [
    ("encoder.embedding", (16, 8)),
    ("encoder.layer0.attn.w_qkv", (8, 24)),
    ("encoder.layer0.attn.wo", (8, 8)),
    ("encoder.layer0.ffn.w1", (8, 32)),
    ("encoder.layer0.ffn.b1", (32,)),
    ("encoder.layer0.ffn.w2", (32, 8)),
    ("encoder.layer0.ffn.b2", (8,)),
    ("encoder.layer0.ln1.gain", (8,)),
    ("encoder.layer0.ln1.bias", (8,)),
    ("encoder.layer0.ln2.gain", (8,)),
    ("encoder.layer0.ln2.bias", (8,)),
    ("bridge.w", (8, 4)),
    ("bridge.b", (4,)),
]


class TestModelConfig:
    def test_internal_defaults_input_dim_from_encoder(self):
        config = tiny_config()
        assert config.input_dim == 8

    def test_default_is_the_internal_encoder(self):
        """Each default config gets its own default ``EncoderConfig``."""
        a, b = md.ModelConfig(n_classes=2), md.ModelConfig(n_classes=2)
        assert a.encoder == EncoderConfig() and a.encoder is not b.encoder
        assert a.input_dim == EncoderConfig.d_model
        assert md.init_model(a, seed=1).encoder is not None

    def test_imported_requires_input_dim(self):
        with pytest.raises(ParameterError):
            md.ModelConfig(n_classes=2, encoder=None)

    def test_summary_dim_variants(self):
        assert tiny_config().summary_dim == 3
        assert tiny_config(rnn_variant="bigru").summary_dim == 6
        assert tiny_config(head_kind="mean").summary_dim == 4

    def test_unknown_variant_rejected(self):
        with pytest.raises(ParameterError):
            tiny_config(rnn_variant="hopfield")

    def test_variant_names_the_direction(self):
        """A "bi" name builds a cell for each direction, as ``--rnn`` does;
        a bidirectional vanilla cell has no name and cannot be written."""
        for variant in md.RNN_VARIANTS:
            config = tiny_config(rnn_variant=variant)
            both = variant.startswith("bi")
            cell = md.init_model(config, seed=13).cell
            assert isinstance(cell, hd.BiRnnParams) == both
            assert config.summary_dim == (6 if both else 3)
            assert "bidirectional" not in config.to_dict()
        with pytest.raises(ParameterError, match="bivanilla"):
            tiny_config(rnn_variant="bivanilla")

    def test_dict_round_trip(self):
        config = tiny_config(rnn_variant="bilstm")
        assert md.ModelConfig.from_dict(config.to_dict()) == config

    def test_dict_round_trip_imported(self):
        config = md.ModelConfig(n_classes=3, encoder=None,
                                input_dim=5, head_kind="mean", d_rnn=4)
        assert md.ModelConfig.from_dict(config.to_dict()) == config


class TestInitAndForward:
    def test_with_loss_is_keyword_only(self):
        """A positional fourth argument, where a ``training`` flag once
        stood, is refused rather than read as ``with_loss``."""
        bundle = md.init_model(tiny_config(), seed=6)
        example = md.Example(label=0, tokens=tokens([1, 5, 3, 0, 0, 0], 3))
        with pytest.raises(TypeError):
            md.forward_example(bundle, example, RandomSource(1), True)

    def test_initialization_is_seed_deterministic(self):
        a = md.init_model(tiny_config(), seed=3)
        b = md.init_model(tiny_config(), seed=3)
        c = md.init_model(tiny_config(), seed=4)
        for (name_a, pa), (_, pb), (_, pc) in zip(
                a.all_named_parameters(), b.all_named_parameters(),
                c.all_named_parameters()):
            assert np.array_equal(pa.data, pb.data), name_a
            # only randomly initialized tensors should differ across seeds
            # (biases start at zero, layer-norm gains at one, for any seed)
            if pa.data.any() and "gain" not in name_a:
                assert not np.array_equal(pa.data, pc.data), name_a

    def test_single_example_is_the_batch_of_one(self):
        bundle = md.init_model(tiny_config(), seed=5)
        example = md.Example(label=1, tokens=tokens([1, 5, 3, 0, 0, 0], 3))
        probs, loss = md.forward_example(bundle, example, with_loss=True)
        batch_probs, losses = md.forward_example(bundle, [example],
                                                 with_loss=True)
        assert batch_probs.shape == (1, 2) and losses.shape == (1,)
        assert np.array_equal(probs.data, batch_probs.data[0])
        assert loss.shape == () and loss.item() == losses.data[0]

    @pytest.mark.parametrize("rng", [None, RandomSource(1)],
                             ids=["eval", "training"])
    def test_empty_batch_rejected(self, rng):
        bundle = md.init_model(tiny_config(), seed=5)
        with pytest.raises(ParameterError, match="need at least one sequence"):
            md.forward_example(bundle, [], rng)

    def test_forward_tokens_returns_distribution(self):
        bundle = md.init_model(tiny_config(), seed=5)
        probs, loss = md.forward_example(
            bundle, md.Example(label=1, tokens=tokens([1, 5, 3, 0, 0, 0], 3)),
            with_loss=True)
        assert probs.shape == (2,)
        assert abs(probs.data.sum() - 1.0) < 1e-9
        assert loss.item() > 0.0

    def test_imported_bundle_rejects_tokens(self):
        config = md.ModelConfig(n_classes=2, encoder=None,
                                input_dim=4, d_rnn=3, hidden_units=3,
                                dense_units=3, dropout=0.0)
        bundle = md.init_model(config, seed=6)
        with pytest.raises(ParameterError):
            md.forward_example(bundle, md.Example(label=0, tokens=tokens([1, 2], 2)))

    def test_example_dispatch(self):
        bundle = md.init_model(tiny_config(), seed=7)
        via_tokens = md.forward_example(
            bundle, md.Example(label=0, tokens=tokens([1, 5, 3, 0, 0, 0], 3)))
        assert via_tokens[1] is None
        imported = md.init_model(
            md.ModelConfig(n_classes=2, encoder=None,
                           input_dim=4, d_rnn=3, hidden_units=3,
                           dense_units=3, dropout=0.0), seed=8)
        matrix = RandomSource(9).uniform(-1, 1, (5, 4))
        probs, loss = md.forward_example(
            imported, md.Example(label=1, matrix=matrix), with_loss=True)
        assert probs.shape == (2,)
        assert loss is not None

    def test_example_requires_exactly_one_payload(self):
        with pytest.raises(ParameterError):
            md.Example(label=0)
        with pytest.raises(ParameterError):
            md.Example(label=0, tokens=tokens([1], 1), matrix=np.ones((1, 2)))

    def test_mean_head_has_no_cell(self):
        bundle = md.init_model(tiny_config(head_kind="mean"), seed=10)
        assert bundle.cell is None
        probs, _ = md.forward_example(
            bundle, md.Example(label=0, tokens=tokens([1, 5, 3, 0, 0, 0], 3)))
        assert probs.shape == (2,)

    @pytest.mark.parametrize("overrides", [
        {}, {"rnn_variant": "bigru"}, {"rnn_variant": "lstm"},
        {"rnn_variant": "vanilla"}, {"head_kind": "mean"},
    ], ids=["gru", "bigru", "lstm", "vanilla", "mean"])
    def test_init_joins_the_per_head_and_per_gate_draws(self, overrides):
        config = tiny_config(
            encoder=EncoderConfig(d_model=8, n_heads=2, n_layers=2,
                                  vocab_size=16, max_len=6, dropout=0.0),
            **overrides)
        named = dict(md.init_model(config, seed=31).all_named_parameters())
        drawn = drawn_per_slice(config, seed=31)
        assert any(name.startswith("cell.") for name in drawn) == (
            config.head_kind == "rnn")
        for name, want in drawn.items():
            assert np.array_equal(named[name].data, want), name

    def test_freeze_encoder_filters_parameters(self):
        bundle = md.init_model(tiny_config(), seed=11)
        frozen = dict(bundle.named_parameters(freeze_encoder=True))
        full = dict(bundle.named_parameters())
        assert not any(name.startswith("encoder.") for name in frozen)
        assert any(name.startswith("encoder.") for name in full)
        assert set(full) - set(frozen) == {
            name for name in full if name.startswith("encoder.")}


HEADS = {
    "rnn": {},
    "birnn": {"rnn_variant": "bigru"},
    "mean": {"head_kind": "mean"},
}


class TestForwardPadding:
    """The head sees only real-token rows, yet PAD ids keep their place in
    the dropout stream: masks are drawn at the padded height."""

    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_ids_past_length_never_change_probabilities(self, head):
        bundle = md.init_model(tiny_config(**HEADS[head]), seed=13)
        rng = RandomSource(14)
        for length in (1, 3, 5):
            ids = [int(i) for i in rng.integers(0, 16, 6)]
            base = md.forward_example(
                bundle, md.Example(label=0, tokens=tokens(ids, length)))[0]
            for _ in range(3):
                altered = ids[:length] + [int(i) for i in
                                          rng.integers(0, 16, 6 - length)]
                probs = md.forward_example(
                    bundle, md.Example(label=0, tokens=tokens(altered, length)))[0]
                assert np.array_equal(probs.data, base.data)

    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_training_draws_every_mask_at_the_padded_height(self, head):
        encoder = EncoderConfig(d_model=8, n_heads=2, n_layers=2,
                                vocab_size=16, max_len=6, dropout=0.5)
        config = tiny_config(encoder=encoder, dropout=0.5, **HEADS[head])
        bundle = md.init_model(config, seed=15)
        rng = RandomSource(16)
        md.forward_example(bundle, md.Example(label=1, tokens=tokens(
            [1, 5, 3, 0, 0, 0], 3)), rng, with_loss=True)
        # two per encoder layer, the bridge, then the classifier (the mean
        # head drops out its one pooled row)
        shapes = [(6, 8)] * 5 + [{"rnn": (6, 3), "birnn": (6, 6),
                                  "mean": (1, 4)}[head]]
        replay = RandomSource(16)
        for shape in shapes:
            replay.bernoulli(0.5, shape)
        assert np.array_equal(rng.uniform(0, 1, 8), replay.uniform(0, 1, 8))


def reference_forward_example(bundle, example, rng=None):
    """The per-sample forward the batched ``forward_example`` replaced: the
    encoder draws its masks one at a time at the padded height and applies
    their top rows, then the per-sample head chain draws the bridge and
    classifier masks."""
    config = bundle.config
    if example.tokens is None:
        embeddings, rows = tt.Tensor(example.matrix), None
    else:
        rows = len(example.tokens.input_ids)
        enc = config.encoder
        masks = None
        if rng is not None and enc.dropout > 0.0:
            flat = [fit_mask(keep, (example.tokens.length, enc.d_model))
                    for keep in separate_masks(
                        rng, enc.dropout,
                        [(rows, enc.d_model)] * (2 * enc.n_layers))]
            masks = list(zip(flat[::2], flat[1::2]))
        embeddings = md.encoder_forward(bundle.encoder, example.tokens, masks)
    return reference_pipeline_forward(embeddings, bundle.bridge, bundle.cell,
                                      bundle.head, rng, example.label, rows)


def imported_config(**overrides):
    defaults = dict(n_classes=3, encoder=None, input_dim=5,
                    d_rnn=4, hidden_units=3, dense_units=4, dropout=0.3)
    defaults.update(overrides)
    return md.ModelConfig(**defaults)


class TestBatchedForward:
    """A batch through ``forward_example`` against the per-sample forward:
    probabilities, losses and every parameter gradient, the encoder's
    (which flows through the head's input rows) included, to 1e-12."""

    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("head", sorted(HEADS))
    @pytest.mark.parametrize("source", ["internal", "imported"])
    def test_matches_per_sample_forward(self, source, head, batch):
        rng = RandomSource(40 + batch)
        if source == "internal":
            encoder = EncoderConfig(d_model=8, n_heads=2, n_layers=2,
                                    vocab_size=16, max_len=6, dropout=0.2)
            bundle = md.init_model(tiny_config(encoder=encoder, dropout=0.3,
                                               **HEADS[head]), seed=batch)
        else:
            bundle = md.init_model(imported_config(**HEADS[head]), seed=batch)
        examples = []
        for i in range(batch):
            length = 1 if i == 0 else int(rng.integers(1, 7))
            label = int(rng.integers(0, bundle.config.n_classes))
            if source == "internal":
                ids = [int(t) for t in rng.integers(0, 16, 6)]
                examples.append(md.Example(label, tokens=tokens(ids, length)))
            else:
                examples.append(md.Example(
                    label, matrix=rng.uniform(-1, 1, (length, 5))))
        named = list(bundle.all_named_parameters())

        def gradients(run):
            for _, p in named:
                p.zero_grad()
            with tt.Tape() as tape:
                probs, losses, mean = run(RandomSource(50))
                tape.backward(mean)
            return probs, losses, [p.grad.copy() for _, p in named]

        def batched(stream):
            probs, losses = md.forward_example(bundle, examples, stream,
                                               with_loss=True)
            return probs.data, losses.data, hd.average_losses(losses)

        def per_sample(stream):
            runs = [reference_forward_example(bundle, ex, stream)
                    for ex in examples]
            return (np.stack([p.data for p, _ in runs]),
                    np.array([loss.item() for _, loss in runs]),
                    reference_average_losses([loss for _, loss in runs]))

        probs, losses, grads = gradients(batched)
        ref_probs, ref_losses, ref_grads = gradients(per_sample)
        assert np.abs(probs - ref_probs).max() <= 1e-12
        assert np.abs(losses - ref_losses).max() <= 1e-12
        for (name, _), g, ref in zip(named, grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12, name

    @pytest.mark.parametrize("source", ["internal", "imported"])
    def test_single_example_gradients_are_the_batch_of_ones(self, source):
        """The single example's (k,) probability row takes no gradient, so
        its rule must not run: the gradients are finite and bit-equal to
        the batch of one's."""
        if source == "internal":
            bundle = md.init_model(tiny_config(), seed=5)
            example = md.Example(label=1, tokens=tokens([1, 5, 3, 0, 0, 0], 3))
        else:
            bundle = md.init_model(imported_config(), seed=6)
            example = md.Example(label=2,
                                 matrix=RandomSource(9).uniform(-1, 1, (5, 5)))
        named = list(bundle.all_named_parameters())

        def gradients(loss_of):
            for _, p in named:
                p.zero_grad()
            with tt.Tape() as tape:
                tape.backward(loss_of())
            return [p.grad for _, p in named]

        single = gradients(lambda: md.forward_example(
            bundle, example, with_loss=True)[1])
        batch = gradients(lambda: hd.average_losses(md.forward_example(
            bundle, [example], with_loss=True)[1]))
        for (name, _), g, ref in zip(named, single, batch):
            assert np.isfinite(g).all(), name
            assert np.array_equal(g, ref), name


class TestTapeRecords:
    def test_train_gru_batch_records_at_most_2_per_sample(self):
        """A mini-batch of 16 training samples shaped like the benchmark's
        train-gru workload: the two-layer post-norm encoder with dropout
        records one op per sample, the GRU head a few per batch."""
        encoder = EncoderConfig(d_model=64, n_heads=4, n_layers=2,
                                vocab_size=512, max_len=64, dropout=0.1)
        bundle = md.init_model(tiny_config(encoder=encoder, hidden_units=32,
                                           d_rnn=32, dense_units=32,
                                           dropout=0.1), seed=1)
        rng = RandomSource(60)
        examples = [md.Example(i % 2, tokens=tokens(
                        [int(t) for t in rng.integers(4, 512, 64)],
                        int(rng.integers(30, 64))))
                    for i in range(16)]
        with tt.Tape() as tape:
            losses = md.forward_example(bundle, examples, RandomSource(61),
                                        with_loss=True)[1]
            tape.backward(hd.average_losses(losses))
        assert len(tape) / len(examples) <= 2


class TestNoTapeForward:
    @pytest.mark.parametrize("lengths", [[1, 5, 3], [4, 4, 4]],
                             ids=["one-row-and-one-runs-alone", "equal"])
    @pytest.mark.parametrize("head", [*md.RNN_VARIANTS, "mean"])
    def test_matches_the_taped_forward_bit_for_bit(self, head, lengths):
        """The forward with no tape, which keeps nothing for a backward,
        against the same batch under a tape, without dropout."""
        kind = dict(head_kind="mean") if head == "mean" else dict(
            rnn_variant=head)
        bundle = md.init_model(tiny_config(dropout=0.3, **kind), seed=94)
        rng = RandomSource(95)
        for _, t in bundle.all_named_parameters():
            t.data += rng.uniform(-0.3, 0.3, t.shape)
        batch = [md.Example(i % 2, tokens=tokens(
                     [int(t) for t in rng.integers(4, 16, 6)], n))
                 for i, n in enumerate(lengths)]
        untaped = md.forward_example(bundle, batch, with_loss=True)
        with tt.Tape() as tape:
            taped = md.forward_example(bundle, batch, with_loss=True)
        assert len(tape) > len(batch)
        for a, b in zip(untaped, taped):
            assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


class TestCheckpoint:
    def test_round_trip_preserves_values_at_f32(self, tmp_path):
        bundle = md.init_model(tiny_config(rnn_variant="bigru"), seed=12)
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, bundle)
        loaded = md.load_checkpoint(path)
        assert loaded.config == bundle.config
        for (name, original), (_, restored) in zip(
                bundle.all_named_parameters(), loaded.all_named_parameters()):
            assert np.array_equal(
                original.data.astype(np.float32), restored.data.astype(np.float32)
            ), name

    def test_save_load_save_is_byte_identical(self, tmp_path):
        bundle = md.init_model(tiny_config(), seed=13)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        md.save_checkpoint(first, bundle)
        md.save_checkpoint(second, md.load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_identical_models_serialize_identically(self, tmp_path):
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        md.save_checkpoint(a, md.init_model(tiny_config(), seed=14))
        md.save_checkpoint(b, md.init_model(tiny_config(), seed=14))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataError):
            md.load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        bundle = md.init_model(tiny_config(), seed=15)
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, bundle)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError):
            md.load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        bundle = md.init_model(tiny_config(), seed=16)
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, bundle)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DataError):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("config_blob", [
        b"{not json",
        b'{"n_classes": 2, "no_such_field": 1}',
        b"[2]",
        b'{"n_classes": "two"}',
        b'{"n_classes": 2, "encoder": 7}',
        b'{"n_classes": 2, "dropout": 8.0}',
    ], ids=["bad-json", "unknown-key", "not-an-object", "wrong-type",
            "encoder-not-an-object", "dropout-out-of-range"])
    def test_bad_config_raises_data_error(self, tmp_path, config_blob):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, md.init_model(tiny_config(), seed=18))
        path.write_bytes(with_config(path.read_bytes(), config_blob))
        with pytest.raises(DataError):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("source, key", [("internal", "pre_norm"),
                                             ("imported", "embedding_source"),
                                             ("bigru", "bidirectional")])
    def test_deleted_setting_is_refused(self, tmp_path, source, key):
        """An older checkpoint is refused, naming the setting it holds."""
        config = {"internal": tiny_config, "imported": imported_config,
                  "bigru": lambda: tiny_config(rnn_variant="bigru")}[source]()
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, md.init_model(config, seed=18))
        path.write_bytes(with_deleted_setting(path.read_bytes(), key))
        with pytest.raises(DataError,
                           match=rf"^bad checkpoint config: .*'{key}'"):
            md.load_checkpoint(path)

    def test_non_utf8_tensor_name_raises_data_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, md.init_model(tiny_config(), seed=19))
        blob = bytearray(path.read_bytes())
        name_at = 12 + struct.unpack_from("<I", blob, 8)[0] + 4 + 2
        blob[name_at] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="UTF-8"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("variant, cell_table", [
        ("gru", [("cell.p", (9, 4)), ("cell.q", (9, 3)), ("cell.b", (9,)),
                 ("head.w_dense", (4, 3))]),
        ("bigru", [("cell.fw.p", (9, 4)), ("cell.fw.q", (9, 3)),
                ("cell.fw.b", (9,)), ("cell.bw.p", (9, 4)),
                ("cell.bw.q", (9, 3)), ("cell.bw.b", (9,)),
                ("head.w_dense", (4, 6))]),
    ], ids=["gru", "bigru"])
    def test_tensor_table_is_pinned(self, tmp_path, variant, cell_table):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, md.init_model(
            tiny_config(rnn_variant=variant), seed=22))
        blob = path.read_bytes()
        assert struct.unpack_from("<I", blob, 4) == (2,)
        assert tensor_table(blob) == ENCODER_TABLE + cell_table + [
            ("head.b_dense", (4,)), ("head.w_out", (2, 4)), ("head.b_out", (2,))]

    def test_version_one_is_refused_in_one_line(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"SQCK" + struct.pack("<I", 1))
        with pytest.raises(DataError) as raised:
            md.load_checkpoint(path)
        assert str(raised.value) == "unsupported checkpoint version 1"

    def test_repeated_tensor_name_raises_data_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, md.init_model(tiny_config(), seed=20))
        blob = path.read_bytes()
        # equal-length names, so every later offset stays in place
        assert blob.count(b"cell.p") == 1 and blob.count(b"cell.q") == 1
        path.write_bytes(blob.replace(b"cell.q", b"cell.p"))
        with pytest.raises(DataError, match="repeated"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_raises_data_error(self, tmp_path, value):
        bundle = md.init_model(tiny_config(), seed=21)
        bundle.head.b_out.data[1] = value
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, bundle)
        with pytest.raises(DataError, match="non-finite"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("variant", ["gru", "bigru"])
    def test_load_draws_no_random_values(self, tmp_path, monkeypatch,
                                         variant):
        bundle = md.init_model(tiny_config(rnn_variant=variant), seed=23)
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, bundle)

        def fail(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random value")

        monkeypatch.setattr(RandomSource, "uniform", fail)
        loaded = md.load_checkpoint(path)
        for (name, saved), (_, restored) in zip(
                bundle.all_named_parameters(), loaded.all_named_parameters()):
            assert np.array_equal(saved.data.astype(np.float32), restored.data), name

    def test_imported_mean_model_round_trips(self, tmp_path):
        config = md.ModelConfig(n_classes=3, encoder=None,
                                input_dim=5, head_kind="mean", d_rnn=4,
                                dense_units=4, dropout=0.0)
        bundle = md.init_model(config, seed=17)
        path = tmp_path / "mean.ckpt"
        md.save_checkpoint(path, bundle)
        loaded = md.load_checkpoint(path)
        assert loaded.config == config
        assert loaded.cell is None

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, md.init_model(tiny_config(), seed=18))
        before = path.read_bytes()
        broken = md.init_model(tiny_config(), seed=19)
        # fails at the last tensor, after the header is written
        broken.head.b_out.data = np.array(["not", "float"])
        with pytest.raises(ValueError):
            md.save_checkpoint(path, broken)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
