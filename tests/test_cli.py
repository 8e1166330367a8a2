"""Tests for the command-line surface: configs, rows, train/eval/grid."""

import csv
import hashlib
import inspect
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from seqcls import bpe, cli
from seqcls.bpe import MIN_FREQUENCY, load_vocabulary
from seqcls.cli import (
    RESULTS_FIELDS,
    ResultsRow,
    RunConfig,
    best_rows,
    cmd_eval,
    cmd_grid,
    cmd_pretrain,
    cmd_synth,
    cmd_tokenizer,
    cmd_train,
    main,
    prepare,
    write_results,
)
from seqcls.data import LabeledSample, load_jsonl, split, write_manifest
from seqcls.encoder import EncoderConfig, save_embeddings
from seqcls.errors import DataError, ParameterError
from seqcls.model import (HEAD_KINDS, RNN_VARIANTS, ModelConfig, init_model,
                          load_checkpoint, save_checkpoint)
from seqcls.optim import OPTIMIZERS, evaluate
from test_model import with_deleted_setting


def read_results(path):
    """The rows of a results or grid CSV as dicts, every value a string."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class FakeClock:
    """Deterministic stand-in for perf_counter: +0.5 per call."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.5
        return self.now


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    cmd_synth(2, 20, seed=1, out=path)
    return path


def small_config(corpus, out_dir, **overrides) -> RunConfig:
    fields = dict(
        data=str(corpus), out_dir=str(out_dir), schema="generic",
        lr=1e-2, epochs=2, batch_size=8, optimizer="adamw", seed=0,
        rnn="gru", hidden_units=4, d_rnn=4, dense_units=4, dropout=0.1,
        max_len=12, d_model=8, n_heads=2, n_layers=1, vocab_size=300)
    fields.update(overrides)
    return RunConfig(**fields)


class TestRunConfig:
    def test_internal_mode_fills_encoder_defaults(self, tmp_path):
        config = RunConfig(data="x", out_dir=str(tmp_path))
        assert (config.max_len, config.d_model, config.n_heads,
                config.n_layers, config.vocab_size) == (64, 64, 4, 2, 512)
        assert config.input_path == "x"
        assert config.model_tag == "encoder+gru"

    def test_imported_mode_forbids_encoder_flags(self, tmp_path):
        with pytest.raises(ParameterError, match="--d-model"):
            RunConfig(data="x", out_dir=str(tmp_path), embeddings="e.sqf1",
                      d_model=32)
        with pytest.raises(ParameterError, match="freeze"):
            RunConfig(data="x", out_dir=str(tmp_path), embeddings="e.sqf1",
                      freeze_encoder=True)

    def test_imported_mode_tags_and_source(self, tmp_path):
        config = RunConfig(data="", out_dir=str(tmp_path),
                           embeddings="e.sqf1", rnn="bilstm")
        assert config.input_path == "e.sqf1"
        assert config.model_tag == "imported+bilstm"
        assert config.max_len is None

    def test_mean_head_variant_tag(self, tmp_path):
        config = RunConfig(data="x", out_dir=str(tmp_path), head="mean")
        assert config.variant_tag == "mean"

    def test_bad_names_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            RunConfig(data="x", out_dir=str(tmp_path), rnn="transformer")
        with pytest.raises(ParameterError):
            RunConfig(data="x", out_dir=str(tmp_path), head="cls")

    def test_model_config_takes_only_the_data_facts(self, tmp_path):
        """The run's settings pass through as they are; the data sets the
        class count and the fitted vocabulary size, or the imported width."""
        config = small_config("x", tmp_path, rnn="bilstm", dropout=0.2)
        shape = config.model_config(3, vocab_size=290)
        assert (shape.n_classes, shape.rnn_variant, shape.dropout) == (
            3, "bilstm", 0.2)
        assert shape.encoder == EncoderConfig(
            d_model=8, n_heads=2, n_layers=1, vocab_size=290, max_len=12,
            dropout=0.2)
        assert config.model_config().encoder.vocab_size == 300
        imported = RunConfig(data="", out_dir=str(tmp_path),
                             embeddings="e.sqf1")
        shape = imported.model_config(2, input_dim=7)
        assert shape.encoder is None and shape.input_dim == 7


class TestResultsRows:
    def row(self, **overrides):
        fields = dict(
            model="encoder+gru", variant="gru", lr=1e-4, optimizer="adamw",
            hidden_units=32, dropout=0.1, split="test", accuracy=0.75,
            precision_weighted=0.8, recall_weighted=0.75, f1_weighted=2 / 3,
            precision_macro=0.7, recall_macro=0.6, f1_macro=0.65,
            wall_seconds=1.5, seed=0)
        fields.update(overrides)
        return ResultsRow(**fields)

    def test_fields_use_six_decimals(self):
        fields = self.row().as_fields()
        assert fields[2] == "0.000100"
        assert fields[7] == "0.750000"
        assert fields[10] == "0.666667"
        assert fields[-1] == "ok"
        assert len(fields) == len(RESULTS_FIELDS)

    def test_failed_rows_leave_metrics_empty(self):
        row = self.row(accuracy=None, precision_weighted=None,
                       recall_weighted=None, f1_weighted=None,
                       precision_macro=None, recall_macro=None,
                       f1_macro=None, wall_seconds=None,
                       status="error:DataError")
        fields = row.as_fields()
        assert fields[7:15] == [""] * 8
        assert fields[-1] == "error:DataError"

    def test_header_pins_the_column_order(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results(path, [self.row()])
        assert path.read_text().splitlines()[0] == (
            "model,variant,lr,optimizer,hidden_units,dropout,split,accuracy,"
            "precision_weighted,recall_weighted,f1_weighted,precision_macro,"
            "recall_macro,f1_macro,wall_seconds,seed,status")

    def test_write_appends_header_once(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results(path, [self.row()])
        write_results(path, [self.row(split="val")])
        rows = read_results(path)
        assert [r["split"] for r in rows] == ["test", "val"]
        text = path.read_text()
        assert text.count("model,variant") == 1

    def test_best_rows_pick_both_criteria(self):
        a = self.row(lr=1e-3, accuracy=0.9, f1_weighted=0.5)
        b = self.row(lr=1e-4, accuracy=0.8, f1_weighted=0.7)
        c = self.row(variant="lstm", model="encoder+lstm", accuracy=0.6,
                     f1_weighted=0.6)
        winners = best_rows([a, b, c])
        assert [(crit, r.variant, r.lr) for crit, r in winners] == [
            ("accuracy", "gru", 1e-3), ("f1_weighted", "gru", 1e-4),
            ("accuracy", "lstm", 1e-4), ("f1_weighted", "lstm", 1e-4)]


class TestTokenizerCommand:
    def test_saved_vocabulary_reloads_equal(self, corpus, tmp_path):
        out = tmp_path / "vocab.txt"
        vocab = cmd_tokenizer(corpus, "generic", 300, out)
        assert load_vocabulary(out) == vocab

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        cmd_tokenizer(corpus, "generic", 300, first)
        cmd_tokenizer(corpus, "generic", 300, second)
        assert first.read_bytes() == second.read_bytes()

    def test_vocab_size_below_base_alphabet_fails(self, corpus, tmp_path):
        with pytest.raises(ParameterError):
            cmd_tokenizer(corpus, "generic", 10, tmp_path / "v.txt")


class TestSynthCommand:
    def test_output_loads_as_generic_jsonl(self, tmp_path):
        path = tmp_path / "synth.jsonl"
        count = cmd_synth(2, 15, seed=3, out=path)
        loaded = load_jsonl(path, schema="generic")
        assert count == len(loaded.samples) == 30
        assert loaded.label_map == {"0": 0, "1": 1}


class TestPrepare:
    @pytest.fixture
    def config(self, tmp_path):
        """Lines of 1-24 words, some multi-byte: max_len 16 cuts some."""
        rng = np.random.default_rng(4)
        words = ["int", "x", "=", "0;", "return", "é日", "{", "}", "f(a,b)"]
        path = tmp_path / "lines.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(40):
                code = " ".join(rng.choice(words, size=int(rng.integers(1, 25))))
                fh.write(json.dumps({"code": code, "label": i % 2}) + "\n")
        return small_config(path, tmp_path / "run", max_len=16, vocab_size=290)

    def test_fitted_and_given_vocabulary_give_the_same_tokens(self, config):
        prepared = prepare(config)
        again = prepare(config, vocab=prepared.vocab)
        lengths = set()
        for name in cli.SPLIT_NAMES:
            fitted = [ex.tokens for ex in prepared.examples[name]]
            given = [ex.tokens for ex in again.examples[name]]
            assert fitted == given, name
            lengths.update(t.length for t in fitted)
        assert config.max_len in lengths and min(lengths) < config.max_len

    def test_fitting_prepare_encodes_only_val_and_test(self, config,
                                                       monkeypatch):
        calls = []
        encode = cli.encode

        def counting(vocab, text, max_len):
            calls.append(text)
            return encode(vocab, text, max_len)

        monkeypatch.setattr(cli, "encode", counting)
        prepared = prepare(config)
        held_out = [s.code for s in prepared.splits.val + prepared.splits.test]
        assert calls == held_out
        calls.clear()
        prepare(config, vocab=prepared.vocab)
        assert len(calls) == sum(map(len, prepared.examples.values()))

    def test_imported_labels_outside_0_to_k_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "gap.sqf1"
        save_embeddings(path, [(rng.uniform(-1, 1, (3, 4)), 2 * (i % 2))
                               for i in range(20)])
        config = RunConfig(data="unused.jsonl", out_dir=str(tmp_path / "run"),
                           embeddings=str(path))
        with pytest.raises(DataError, match=r"gap\.sqf1 are not 0\.\.K-1: "
                                            r"\[0, 2\]"):
            prepare(config)


class TestTrainCommand:
    def test_run_directory_artifacts(self, corpus, tmp_path):
        config = small_config(corpus, tmp_path / "run", epochs=1)
        rows = cmd_train(config, clock=FakeClock())
        out = Path(config.out_dir)
        for name in ("config.json", "vocab.txt", "splits.json",
                     "manifest.json", "log.tsv", "model.ckpt",
                     "results.csv"):
            assert (out / name).exists(), name
        assert [r.split for r in rows] == ["train", "val", "test"]
        assert all(r.status == "ok" for r in rows)
        saved = read_results(out / "results.csv")
        assert [r["split"] for r in saved] == ["train", "val", "test"]
        config_echo = json.loads((out / "config.json").read_text())
        assert config_echo == asdict(config)
        assert RunConfig(**config_echo) == config
        splits = json.loads((out / "splits.json").read_text())
        assert sorted(splits) == ["label_map", "test", "train", "val"]

    def test_manifest_records_input_hash(self, corpus, tmp_path):
        config = small_config(corpus, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())
        manifest = json.loads(
            (Path(config.out_dir) / "manifest.json").read_text())
        digest = hashlib.sha256(Path(corpus).read_bytes()).hexdigest()
        assert manifest == {"inputs": {str(corpus): digest}}

    def test_retrain_rewrites_results(self, corpus, tmp_path):
        """A second train into a run directory leaves only its own rows
        beside the checkpoint it wrote."""
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        cmd_train(small_config(corpus, reused, epochs=1), clock=FakeClock())
        for out in (reused, fresh):
            cmd_train(small_config(corpus, out, epochs=1, seed=3),
                      clock=FakeClock())
        assert (reused / "results.csv").read_bytes() == \
            (fresh / "results.csv").read_bytes()

    def test_zero_lr_run_equals_untrained_model(self, corpus, tmp_path):
        config = small_config(corpus, tmp_path / "run", lr=0.0, epochs=1)
        rows = cmd_train(config, clock=FakeClock())
        prepared = prepare(config)
        untrained = init_model(prepared.model_config, config.seed)
        baseline = evaluate(untrained, prepared.examples["test"],
                            prepared.model_config.n_classes)
        test_row = rows[2]
        assert test_row.accuracy == baseline.accuracy
        assert test_row.f1_weighted == baseline.f1_weighted

    # a frozen encoder at small_config's dropout 0.1: its rows are encoded
    # once, with no dropout masks
    @pytest.mark.parametrize("optimizer, freeze_encoder", [
        *(pytest.param(name, False, id=name) for name in OPTIMIZERS),
        pytest.param("adamw", True, id="adamw-frozen")])
    def test_same_seed_reruns_are_byte_identical(self, corpus, tmp_path,
                                                 optimizer, freeze_encoder):
        config_a, config_b = (
            small_config(corpus, tmp_path / name, optimizer=optimizer,
                         freeze_encoder=freeze_encoder) for name in "ab")
        rows_a = cmd_train(config_a, clock=FakeClock())
        rows_b = cmd_train(config_b, clock=FakeClock())
        assert rows_a == rows_b
        assert (Path(config_a.out_dir) / "model.ckpt").read_bytes() == \
            (Path(config_b.out_dir) / "model.ckpt").read_bytes()
        assert (Path(config_a.out_dir) / "results.csv").read_bytes() == \
            (Path(config_b.out_dir) / "results.csv").read_bytes()

    def test_bad_settings_fail_before_the_data_loads(self, tmp_path):
        config = RunConfig(data=str(tmp_path / "missing.jsonl"),
                           out_dir=str(tmp_path / "run"), lr=-1.0)
        with pytest.raises(ParameterError, match="lr must be"):
            cmd_train(config)
        assert not (tmp_path / "run").exists()

    def test_different_seed_changes_the_checkpoint(self, corpus, tmp_path):
        config_a = small_config(corpus, tmp_path / "a", epochs=1)
        config_b = small_config(corpus, tmp_path / "b", epochs=1, seed=3)
        cmd_train(config_a, clock=FakeClock())
        cmd_train(config_b, clock=FakeClock())
        assert (Path(config_a.out_dir) / "model.ckpt").read_bytes() != \
            (Path(config_b.out_dir) / "model.ckpt").read_bytes()


class TestEvalCommand:
    # at small_config's dropout 0.1; frozen, the train loop scores its own
    # encoded rows, but the results rows, like eval, score the reloaded
    # model.ckpt through the token examples; imported, both read the
    # pretrained embedding file
    @pytest.mark.parametrize("source", ["trained", "frozen", "imported"])
    def test_eval_reproduces_each_results_row(self, corpus, tmp_path,
                                              source):
        overrides = {"frozen": {"freeze_encoder": True}}.get(source, {})
        if source == "imported":
            embeddings = cmd_pretrain(corpus, "generic", tmp_path / "pre",
                                      vocab_size=300, max_len=12, d_model=8,
                                      n_heads=2, n_layers=1, steps=3)
            overrides = dict(embeddings=str(embeddings), max_len=None,
                             d_model=None, n_heads=None, n_layers=None,
                             vocab_size=None)
        config = small_config(corpus, tmp_path / "run", **overrides)
        rows = cmd_train(config, clock=FakeClock())
        assert [row.split for row in rows] == list(cli.SPLIT_NAMES)
        for trained in rows:
            evaluated = cmd_eval(Path(config.out_dir) / "model.ckpt", None,
                                 trained.split, clock=FakeClock())
            assert replace(evaluated, wall_seconds=None) == \
                replace(trained, wall_seconds=None), trained.split

    def test_relative_input_is_found_from_another_directory(
            self, tmp_path, monkeypatch):
        """A run trained on a path relative to where it ran records it
        absolute, so eval run from elsewhere scores the same file."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        cmd_synth(2, 20, seed=1, out=Path("corpus.jsonl"))
        config = small_config("corpus.jsonl", "run", epochs=1)
        trained = cmd_train(config, clock=FakeClock())[-1]
        recorded = Path(json.loads(Path("run/config.json").read_text())["data"])
        assert recorded.is_absolute()
        assert recorded.samefile(work / "corpus.jsonl")
        monkeypatch.chdir(tmp_path)
        evaluated = cmd_eval(Path("work/run/model.ckpt"), None, "test",
                             clock=FakeClock())
        assert trained.split == "test"
        assert replace(evaluated, wall_seconds=None) == \
            replace(trained, wall_seconds=None)

    def test_eval_twice_is_identical(self, corpus, tmp_path, capsys):
        config = small_config(corpus, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())
        checkpoint = Path(config.out_dir) / "model.ckpt"
        first = cmd_eval(checkpoint, None, "val", clock=FakeClock())
        out_first = capsys.readouterr().out
        second = cmd_eval(checkpoint, None, "val", clock=FakeClock())
        out_second = capsys.readouterr().out
        assert first == second
        assert out_first == out_second
        assert "accuracy:" in out_first

    def test_class_count_mismatch_is_a_data_error(self, corpus, tmp_path):
        config = small_config(corpus, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())
        other = tmp_path / "three.jsonl"
        cmd_synth(3, 12, seed=2, out=other)
        with pytest.raises(DataError, match="classes"):
            cmd_eval(Path(config.out_dir) / "model.ckpt", other, "test")

    def test_label_map_mismatch_is_a_data_error(self, corpus, tmp_path):
        def relabel(path, names):
            records = [json.loads(line) for line in corpus.read_text().splitlines()]
            path.write_text("".join(
                json.dumps({**r, "label": names[r["label"]]}) + "\n"
                for r in records))
            return path

        trained = relabel(tmp_path / "cat_dog.jsonl", ["cat", "dog"])
        config = small_config(trained, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())
        other = relabel(tmp_path / "dog_zebra.jsonl", ["dog", "zebra"])
        with pytest.raises(DataError, match="label map.*zebra.*cat"):
            cmd_eval(Path(config.out_dir) / "model.ckpt", other, "test")

    def test_missing_run_splits_is_a_data_error(self, corpus, tmp_path):
        config = small_config(corpus, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())
        (Path(config.out_dir) / "splits.json").unlink()
        with pytest.raises(DataError, match="splits"):
            cmd_eval(Path(config.out_dir) / "model.ckpt", None, "test")

    def test_missing_run_manifest_is_a_data_error(self, corpus, tmp_path):
        config = small_config(corpus, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())
        (Path(config.out_dir) / "manifest.json").unlink()
        with pytest.raises(DataError, match="missing run manifest"):
            cmd_eval(Path(config.out_dir) / "model.ckpt", None, "test")

    def test_changed_data_file_is_refused_unless_named(self, corpus, tmp_path,
                                                       capsys):
        data = tmp_path / "corpus.jsonl"
        data.write_bytes(corpus.read_bytes())
        config = small_config(data, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())
        cmd_synth(2, 20, seed=2, out=tmp_path / "more.jsonl")
        with open(data, "a", encoding="utf-8") as fh:
            fh.write((tmp_path / "more.jsonl").read_text())
        checkpoint = Path(config.out_dir) / "model.ckpt"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"seqcls: DataError: {data} changed since")
        assert err.count("\n") == 1
        row = cmd_eval(checkpoint, data, "test", clock=FakeClock())
        assert row.status == "ok"

    # the token run encodes the scored split's lines and nothing else; the
    # imported run builds an Example for each of them and nothing else
    @pytest.mark.parametrize("source", ["tokens", "imported"])
    def test_eval_encodes_only_the_scored_split(self, corpus, tmp_path,
                                                monkeypatch, source):
        overrides = {}
        if source == "imported":
            embeddings = cmd_pretrain(corpus, "generic", tmp_path / "pre",
                                      vocab_size=300, max_len=12, d_model=8,
                                      n_heads=2, n_layers=1, steps=0)
            overrides = dict(embeddings=str(embeddings), max_len=None,
                             d_model=None, n_heads=None, n_layers=None,
                             vocab_size=None)
        config = small_config(corpus, tmp_path / "run", epochs=1, **overrides)
        cmd_train(config, clock=FakeClock())
        run_dir = Path(config.out_dir)
        ids = json.loads((run_dir / "splits.json").read_text())
        code = {record["idx"]: record["code"] for record in
                map(json.loads, corpus.read_text().splitlines())}
        encoded, built = [], []
        encode, example = cli.encode, cli.Example

        def counting_encode(vocab, text, max_len):
            encoded.append(text)
            return encode(vocab, text, max_len)

        def counting_example(**kwargs):
            built.append(kwargs["label"])
            return example(**kwargs)

        monkeypatch.setattr(cli, "encode", counting_encode)
        monkeypatch.setattr(cli, "Example", counting_example)
        for name in cli.SPLIT_NAMES:
            encoded.clear()
            built.clear()
            cmd_eval(run_dir / "model.ckpt", None, name, clock=FakeClock())
            assert len(built) == len(ids[name]), name
            if source == "tokens":
                assert encoded == [code[i] for i in ids[name]], name
            else:
                assert encoded == [], name

    # "deleted-key": a config.json written while the run config still
    # echoed the derived embedding_source
    @pytest.mark.parametrize("corrupt", ["truncated", "unknown-key",
                                         "deleted-key"])
    def test_unreadable_run_config_is_a_data_error(self, corpus, tmp_path,
                                                   capsys, corrupt):
        config = small_config(corpus, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())
        config_path = Path(config.out_dir) / "config.json"
        extra = {"unknown-key": {"mystery": 1},
                 "deleted-key": {"embedding_source": "internal"}}
        if corrupt == "truncated":
            config_path.write_text("{")
        else:
            payload = json.loads(config_path.read_text())
            config_path.write_text(json.dumps({**payload, **extra[corrupt]}))
        checkpoint = Path(config.out_dir) / "model.ckpt"
        with pytest.raises(DataError, match="run config"):
            cmd_eval(checkpoint, None, "test")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("seqcls: DataError: unreadable run config")
        assert err.count("\n") == 1

    def test_train_scores_the_parameters_the_checkpoint_holds(
            self, corpus, tmp_path, monkeypatch):
        scored = []

        def capture(bundle, examples, n_classes):
            scored.append({name: p.data.copy()
                           for name, p in bundle.all_named_parameters()})
            return evaluate(bundle, examples, n_classes)

        monkeypatch.setattr(cli, "evaluate", capture)
        config = small_config(corpus, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())
        saved = load_checkpoint(Path(config.out_dir) / "model.ckpt")
        assert len(scored) == 3
        for params in scored:
            for name, p in saved.all_named_parameters():
                assert np.array_equal(params[name], p.data), name

    def test_unknown_split_is_rejected_before_loading(self, corpus, tmp_path,
                                                      monkeypatch):
        config = small_config(corpus, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())

        def fail(*args, **kwargs):
            raise AssertionError("loaded data for an unknown split")

        monkeypatch.setattr(cli, "prepare", fail)
        monkeypatch.setattr(cli, "load_checkpoint", fail)
        with pytest.raises(ParameterError, match="bogus"):
            cmd_eval(Path(config.out_dir) / "model.ckpt", None, "bogus")

    def test_version_one_checkpoint_exits_with_one_line(self, corpus, tmp_path,
                                                        capsys):
        config = small_config(corpus, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())
        checkpoint = Path(config.out_dir) / "model.ckpt"
        checkpoint.write_bytes(b"SQCK" + (1).to_bytes(4, "little"))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        assert err == "seqcls: DataError: unsupported checkpoint version 1\n"

    def test_checkpoint_with_deleted_settings_exits_with_one_line(
            self, corpus, tmp_path, capsys):
        config = small_config(corpus, tmp_path / "run", epochs=1)
        cmd_train(config, clock=FakeClock())
        checkpoint = Path(config.out_dir) / "model.ckpt"
        checkpoint.write_bytes(
            with_deleted_setting(checkpoint.read_bytes(), "pre_norm"))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("seqcls: DataError: bad checkpoint config:")
        assert "'pre_norm'" in err and err.count("\n") == 1

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        """The split is the one splits.json records: no flag re-splits."""
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                  "--seed", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_missing_run_config_is_a_data_error(self, tmp_path):
        checkpoint = tmp_path / "model.ckpt"
        checkpoint.write_bytes(b"SQCK")
        with pytest.raises(DataError, match="config"):
            cmd_eval(checkpoint, None, "test")

    def test_forced_predictions_reproduce_worked_metrics(self, tmp_path):
        # 35 samples: 24 of class 0, 11 of class 1; the seeded split puts
        # 3 + 1 in test.  Prediction is forced by the sign of the first
        # feature, arranged so the test confusion matrix is [[2,1],[0,1]].
        seed = 9
        labels = [0] * 24 + [1] * 11
        placeholders = [
            LabeledSample(code=f"<imported {i}>", label=lbl, source_id=str(i))
            for i, lbl in enumerate(labels)]
        splits = split(placeholders, seed)
        predicted = {s.source_id: s.label for s in placeholders}
        test_zero = [s for s in splits.test if s.label == 0]
        test_one = [s for s in splits.test if s.label == 1]
        assert (len(test_zero), len(test_one)) == (3, 1)
        for sample, pred in zip(test_zero, (0, 0, 1)):
            predicted[sample.source_id] = pred
        predicted[test_one[0].source_id] = 1
        matrices = [
            (np.array([[1.0 if predicted[str(i)] == 0 else -1.0, 0.0]]), lbl)
            for i, lbl in enumerate(labels)]
        embeddings = tmp_path / "fixture.sqf1"
        save_embeddings(embeddings, matrices)

        run_dir = tmp_path / "run"
        run_dir.mkdir()
        write_manifest(run_dir / "splits.json", splits)
        run_config = RunConfig(
            data="", out_dir=str(run_dir), schema="generic", seed=seed,
            head="mean", d_rnn=2, dense_units=2, dropout=0.0,
            embeddings=str(embeddings))
        (run_dir / "config.json").write_text(
            json.dumps(asdict(run_config), sort_keys=True))
        digest = hashlib.sha256(embeddings.read_bytes()).hexdigest()
        (run_dir / "manifest.json").write_text(
            json.dumps({"inputs": {str(embeddings): digest}}))
        bundle = init_model(ModelConfig(
            n_classes=2, encoder=None, input_dim=2,
            head_kind="mean", d_rnn=2, dense_units=2, dropout=0.0), seed=0)
        bundle.bridge.w.data = np.eye(2)
        bundle.bridge.b.data = np.zeros(2)
        bundle.head.w_dense.data = np.eye(2)
        bundle.head.b_dense.data = np.zeros(2)
        bundle.head.w_out.data = np.array([[2.0, 0.0], [0.0, 0.0]])
        bundle.head.b_out.data = np.array([0.0, 1.0])
        save_checkpoint(run_dir / "model.ckpt", bundle)

        row = cmd_eval(run_dir / "model.ckpt", None, "test",
                       clock=FakeClock())
        assert row.accuracy == pytest.approx(0.75, abs=1e-12)
        assert row.f1_weighted == pytest.approx(0.7666667, abs=1e-6)
        assert row.f1_macro == pytest.approx(0.7894737, abs=1e-6)


class TestGridCommand:
    def test_single_cell_grid_yields_one_row(self, corpus, tmp_path):
        base = small_config(corpus, tmp_path / "grid", epochs=1)
        rows, winners, failed = cmd_grid(
            base, [1e-2], [0.1], [4], ["gru"], clock=FakeClock())
        assert len(rows) == 1 and failed == 0
        assert rows[0].split == "test" and rows[0].status == "ok"
        assert [crit for crit, _ in winners] == ["accuracy", "f1_weighted"]
        saved = read_results(tmp_path / "grid" / "grid.csv")
        assert len(saved) == 1

    def test_grid_rows_cover_the_product_sorted(self, corpus, tmp_path):
        base = small_config(corpus, tmp_path / "grid", epochs=1)
        rows, winners, failed = cmd_grid(
            base, [1e-2, 1e-3], [0.1], [4, 8], ["lstm", "gru"],
            clock=FakeClock())
        assert len(rows) == 8 and failed == 0
        keys = [(r.variant, r.optimizer, r.lr, r.hidden_units) for r in rows]
        assert keys == sorted(keys)
        assert {r.variant for r in rows} == {"gru", "lstm"}
        # one best-by-accuracy and one best-by-f1 row per (variant, optimizer)
        assert len(winners) == 4

    def test_failed_runs_are_flagged_and_grid_continues(self, corpus, tmp_path):
        base = small_config(corpus, tmp_path / "grid", epochs=1)
        rows, _, failed = cmd_grid(
            base, [1e-2], [0.1], [4, 0], ["gru"], clock=FakeClock())
        assert len(rows) == 2 and failed == 1
        by_hidden = {r.hidden_units: r for r in rows}
        assert by_hidden[4].status == "ok"
        assert by_hidden[0].status == "error:ParameterError"
        assert by_hidden[0].accuracy is None

    def test_unexpected_exception_becomes_error_row(self, corpus, tmp_path,
                                                    monkeypatch):
        real_train = cli.cmd_train

        def flaky_train(config, clock):
            if config.hidden_units == 8:
                raise RuntimeError("cell blew up")
            return real_train(config, clock=clock)

        monkeypatch.setattr(cli, "cmd_train", flaky_train)
        base = small_config(corpus, tmp_path / "grid", epochs=1)
        rows, _, failed = cmd_grid(base, [1e-2], [0.1], [4, 8], ["gru"],
                                   workers=1, clock=FakeClock())
        assert failed == 1
        by_hidden = {r.hidden_units: r for r in rows}
        assert by_hidden[4].status == "ok"
        assert by_hidden[8].status == "error:RuntimeError"
        assert len(read_results(tmp_path / "grid" / "grid.csv")) == 2

    def test_rerun_writes_identical_grid_csv(self, corpus, tmp_path):
        base_a = small_config(corpus, tmp_path / "a", epochs=1)
        base_b = small_config(corpus, tmp_path / "b", epochs=1)
        cmd_grid(base_a, [1e-2], [0.1], [4], ["gru", "lstm"],
                 clock=FakeClock())
        cmd_grid(base_b, [1e-2], [0.1], [4], ["gru", "lstm"],
                 clock=FakeClock())
        assert (tmp_path / "a" / "grid.csv").read_bytes() == \
            (tmp_path / "b" / "grid.csv").read_bytes()
        assert (tmp_path / "a" / "best.csv").read_bytes() == \
            (tmp_path / "b" / "best.csv").read_bytes()

    def test_cardinality_counts_failed_rows(self, tmp_path):
        base = RunConfig(data=str(tmp_path / "missing.jsonl"),
                         out_dir=str(tmp_path / "grid"))
        lrs = [1e-2, 1e-3, 3e-4, 1e-4]
        dropouts = [0.0, 0.1, 0.2]
        hiddens = [16, 32, 64]
        variants = ["vanilla", "lstm", "gru", "bigru"]
        rows, winners, failed = cmd_grid(base, lrs, dropouts, hiddens,
                                         variants)
        assert len(rows) == 4 * 3 * 3 * 4 == 144
        assert failed == 144
        assert winners == []
        saved = read_results(tmp_path / "grid" / "grid.csv")
        assert len(saved) == 144

    def test_each_cell_checks_its_settings_before_the_data_loads(
            self, tmp_path):
        base = RunConfig(data=str(tmp_path / "missing.jsonl"),
                         out_dir=str(tmp_path / "grid"))
        rows, _, failed = cmd_grid(base, [-1.0, 1e-2], [0.1], [4], ["gru"])
        assert failed == 2
        by_lr = {r.lr: r.status for r in rows}
        assert by_lr == {-1.0: "error:ParameterError",
                         1e-2: "error:FileNotFoundError"}

    def test_cells_sharing_a_run_directory_are_refused(self, tmp_path,
                                                       capsys):
        """Nearly equal learning rates print alike in the cell's tag; the
        grid stops before the data loads and before anything is written."""
        out = tmp_path / "grid"
        assert main(["grid", "--data", str(tmp_path / "missing.jsonl"),
                     "--out-dir", str(out), "--lr", "0.001,0.0010000001",
                     "--hidden-units", "32", "--dropout", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err == ("seqcls: ParameterError: two grid cells share the run "
                       f"directory {out / 'run_gru_lr0.001_h32_d0.1'}\n")
        assert not out.exists()

    def test_parallel_workers_match_serial_rows(self, corpus, tmp_path):
        base_serial = small_config(corpus, tmp_path / "serial", epochs=1)
        base_parallel = small_config(corpus, tmp_path / "parallel", epochs=1)
        serial, _, _ = cmd_grid(base_serial, [1e-2], [0.1], [4],
                                ["gru", "lstm"])
        parallel, _, _ = cmd_grid(base_parallel, [1e-2], [0.1], [4],
                                  ["gru", "lstm"], workers=2)
        for a, b in zip(serial, parallel):
            assert replace(a, wall_seconds=0.0) == replace(b, wall_seconds=0.0)


class TestPretrainCommand:
    def test_pretrain_exports_importable_embeddings(self, corpus, tmp_path):
        out = tmp_path / "pre"
        path = cmd_pretrain(corpus, "generic", out, vocab_size=300,
                            max_len=12, d_model=8, n_heads=2, n_layers=1,
                            steps=3, lr=1e-3, seed=0, mask_rate=0.3)
        assert path.exists()
        log = (out / "pretrain_log.tsv").read_text().splitlines()
        assert log[0] == "step\tloss"
        assert len(log) > 1
        config = RunConfig(data="", out_dir=str(tmp_path / "run"),
                           epochs=1, lr=1e-2, batch_size=8,
                           hidden_units=4, d_rnn=4, dense_units=4,
                           embeddings=str(path))
        rows = cmd_train(config, clock=FakeClock())
        assert rows[2].model == "imported+gru"
        assert rows[2].status == "ok"

    def test_main_uses_the_signature_defaults(self, corpus, tmp_path, capsys):
        direct, via_main = tmp_path / "direct", tmp_path / "main"
        cmd_pretrain(corpus, "generic", direct, steps=3)
        assert main(["pretrain", "--data", str(corpus), "--out-dir",
                     str(via_main), "--steps", "3"]) == 0
        names = sorted(p.name for p in direct.iterdir())
        assert names == sorted(p.name for p in via_main.iterdir())
        for name in names:
            assert (direct / name).read_bytes() == (via_main / name).read_bytes()

    def test_main_takes_every_encoder_flag(self, corpus, tmp_path, capsys):
        sizes = dict(vocab_size=300, max_len=12, d_model=8, n_heads=2,
                     n_layers=1)
        direct, via_main = tmp_path / "direct", tmp_path / "main"
        cmd_pretrain(corpus, "generic", direct, steps=2, **sizes)
        flags = [part for name, value in sizes.items()
                 for part in ("--" + name.replace("_", "-"), str(value))]
        assert main(["pretrain", "--data", str(corpus), "--out-dir",
                     str(via_main), "--steps", "2", *flags]) == 0
        for name in ("vocab.txt", "pretrain_log.tsv", "embeddings.sqf1"):
            assert (direct / name).read_bytes() == (via_main / name).read_bytes()

    def test_zero_steps_export_the_untrained_encoder(self, corpus, tmp_path):
        out = tmp_path / "pre"
        path = cmd_pretrain(corpus, "generic", out, vocab_size=300,
                            max_len=12, d_model=8, n_heads=2, n_layers=1,
                            steps=0)
        assert (out / "pretrain_log.tsv").read_text() == "step\tloss\n"
        assert path.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--steps", "-1"), ("--lr", "nan"), ("--n-heads", "3"),
        ("--mask-rate", "0"), ("--mask-rate", "1.5")])
    def test_bad_settings_fail_before_the_corpus_loads(self, tmp_path, capsys,
                                                       flag, value):
        out = tmp_path / "pre"
        assert main(["pretrain", "--data", str(tmp_path / "missing.jsonl"),
                     "--out-dir", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("seqcls: ParameterError:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_short_lines_log_every_step(self, tmp_path):
        """The synthetic corpus's lines are a few tokens long; at the default
        mask rate each still masks one, so every one of the 200 default
        steps trains and is logged."""
        data = tmp_path / "synth.jsonl"
        cmd_synth(2, 30, seed=1, out=data)
        cmd_pretrain(data, "generic", tmp_path / "pre")
        log = (tmp_path / "pre" / "pretrain_log.tsv").read_text().splitlines()
        assert [int(line.split("\t")[0]) for line in log[1:]] == list(
            range(1, 201))

    def test_zero_mask_rate_stops_in_one_line(self, corpus, tmp_path, capsys):
        assert main(["pretrain", "--data", str(corpus), "--out-dir",
                     str(tmp_path / "pre"), "--mask-rate", "0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "ParameterError" in err and "masked position" in err
        assert not (tmp_path / "pre").exists()


class TestMainEntry:
    def test_synth_then_train_exits_zero(self, tmp_path, capsys):
        data = tmp_path / "c.jsonl"
        assert main(["synth", "--classes", "2", "--per-class", "15",
                     "--seed", "1", "--out", str(data)]) == 0
        code = main([
            "train", "--data", str(data), "--out-dir", str(tmp_path / "run"),
            "--epochs", "1", "--lr", "0.01", "--rnn", "gru",
            "--hidden-units", "4", "--d-rnn", "4", "--dense-units", "4",
            "--max-len", "12", "--d-model", "8", "--n-heads", "2",
            "--n-layers", "1", "--vocab-size", "300", "--batch-size", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("encoder+gru") == 3

    def test_missing_data_file_gives_single_line_diagnosis(self, tmp_path,
                                                           capsys):
        code = main(["train", "--data", str(tmp_path / "nope.jsonl"),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("seqcls:")
        assert len(err.strip().splitlines()) == 1

    def test_data_that_is_not_utf8_gives_single_line_diagnosis(self, tmp_path,
                                                               capsys):
        data = tmp_path / "bad.jsonl"
        data.write_bytes(b'{"code": "y = \xff", "label": 1}\n')
        code = main(["train", "--data", str(data),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("seqcls: DataError: data file")
        assert str(data) in err and len(err.strip().splitlines()) == 1

    def test_conflicting_flags_give_single_line_diagnosis(self, tmp_path,
                                                          capsys):
        code = main(["train", "--data", "x.jsonl",
                     "--out-dir", str(tmp_path / "run"),
                     "--embeddings", "e.sqf1", "--d-model", "32"])
        assert code == 1
        err = capsys.readouterr().err
        assert "ParameterError" in err

    # each exits before the data file opens: the file does not exist
    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1"),
        ("--weight-decay", "-0.01"), ("--weight-decay", "nan"),
        ("--epochs", "0"), ("--batch-size", "0"), ("--n-heads", "3"),
        ("--hidden-units", "0"), ("--d-rnn", "0"), ("--dense-units", "0"),
        ("--dropout", "1.5")])
    def test_bad_settings_give_one_line_before_the_data_loads(
            self, tmp_path, capsys, flag, value):
        run_dir = tmp_path / "run"
        code = main(["train", "--data", str(tmp_path / "missing.jsonl"),
                     "--out-dir", str(run_dir), flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("seqcls: ParameterError:")
        assert err.count("\n") == 1
        assert not run_dir.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--hidden-units", "0"), ("--dropout", "1.5")])
    def test_imported_head_settings_fail_before_the_embeddings_load(
            self, tmp_path, capsys, flag, value):
        run_dir = tmp_path / "run"
        code = main(["train", "--data", "x.jsonl", "--out-dir", str(run_dir),
                     "--embeddings", str(tmp_path / "missing.sqf1"), flag,
                     value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("seqcls: ParameterError:")
        assert err.count("\n") == 1
        assert not run_dir.exists()

    def test_parsers_take_defaults_and_lists_from_one_place(self):
        parser = cli.build_parser()
        tokenizer = parser.parse_args(["tokenizer", "--data", "d", "--out", "v"])
        assert tokenizer.vocab_size == EncoderConfig.vocab_size
        grid = parser.parse_args([
            "grid", "--data", "d", "--out-dir", "o", "--lr", "1e-2,,3e-3",
            "--rnn", "gru,lstm", "--hidden-units", "4,8"])
        assert (grid.lr, grid.rnn, grid.hidden_units, grid.dropout) == (
            [1e-2, 3e-3], ["gru", "lstm"], [4, 8], [RunConfig.dropout])
        assert grid.schema == RunConfig.schema

    def test_every_head_choice_builds_a_model_config(self):
        parser = cli.build_parser()
        for command in ("train", "grid"):
            choices = next(action.choices for action in
                           parser._subparsers._group_actions[0]
                           .choices[command]._actions
                           if action.dest == "head")
            assert tuple(choices) == HEAD_KINDS
        for head in HEAD_KINDS:
            args = parser.parse_args(["train", "--data", "d", "--out-dir", "o",
                                      "--head", head])
            assert ModelConfig(n_classes=2, head_kind=args.head).head_kind == head

    def test_rnn_flag_takes_the_model_variant_names(self):
        parser = cli.build_parser()
        choices = next(action.choices for action in
                       parser._subparsers._group_actions[0]
                       .choices["train"]._actions if action.dest == "rnn")
        assert tuple(choices) == RNN_VARIANTS
        for variant in RNN_VARIANTS:
            args = parser.parse_args(["train", "--data", "d", "--out-dir", "o",
                                      "--rnn", variant])
            assert cli._run_config(args).model_config().rnn_variant == variant

    def test_tokenizer_min_frequency_has_one_default(self):
        args = cli.build_parser().parse_args(
            ["tokenizer", "--data", "d", "--out", "v"])
        assert args.min_frequency == MIN_FREQUENCY
        for fn in (cmd_tokenizer, bpe.train_bpe):
            parameter = inspect.signature(fn).parameters["min_frequency"]
            assert parameter.default == MIN_FREQUENCY

    def test_tokenizer_entry_round_trips(self, corpus, tmp_path, capsys):
        out = tmp_path / "vocab.txt"
        assert main(["tokenizer", "--data", str(corpus), "--schema",
                     "generic", "--vocab-size", "300", "--out",
                     str(out)]) == 0
        assert load_vocabulary(out) is not None

    def test_eval_entry_appends_results(self, corpus, tmp_path, capsys):
        run_dir = tmp_path / "run"
        config = small_config(corpus, run_dir, epochs=1)
        cmd_train(config, clock=FakeClock())
        results = tmp_path / "eval.csv"
        code = main(["eval", "--checkpoint", str(run_dir / "model.ckpt"),
                     "--split", "test", "--results", str(results)])
        assert code == 0
        rows = read_results(results)
        assert len(rows) == 1 and rows[0]["split"] == "test"

    @pytest.mark.parametrize("count, width, empty, named", [
        pytest.param(0, 4, None, None, id="no-samples"),
        pytest.param(20, 4, (0, 4), "sample 7", id="zero-rows"),
        pytest.param(20, 0, None, "sample 0", id="zero-width"),
    ])
    def test_empty_imported_embeddings_give_single_line_diagnosis(
            self, tmp_path, capsys, count, width, empty, named):
        rng = np.random.default_rng(3)
        samples = [(rng.uniform(-1, 1, (3, width)), i % 2) for i in range(count)]
        if empty is not None:
            samples[7] = (np.zeros(empty), 1)
        path = tmp_path / "emb.sqf1"
        save_embeddings(path, samples)
        code = main(["train", "--data", "unused.jsonl",
                     "--out-dir", str(tmp_path / "run"),
                     "--embeddings", str(path), "--epochs", "1",
                     "--hidden-units", "4", "--d-rnn", "4",
                     "--dense-units", "4", "--batch-size", "8"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("seqcls: DataError:")
        assert len(err.strip().splitlines()) == 1
        if named is not None:
            assert named in err
