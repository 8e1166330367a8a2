"""Command-line surface: tokenizer training, toy denoising pretraining,
supervised training, evaluation, and hyperparameter grids.

Every training run leaves a self-contained directory (config, vocabulary,
split manifest, input hashes, epoch log, checkpoint, results rows) that
holds each fact once: config.json alone holds the settings, and a rerun
into the directory rewrites every file.  ``eval`` regenerates any results
row from it, encoding only the split it scores, and refuses a run input
whose sha256 changed since unless the file is named again.  Results use
one CSV schema everywhere: comma separated, header row, '.' decimal
point, six decimal places.  Grid execution fans runs out to worker
processes with disjoint output directories (cells that would share one
are refused before any data loads) and merges the per-run rows at the
end, so parallelism never changes the bytes that land in the merged
table.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .bpe import (MIN_FREQUENCY, BpeVocabulary, check_fit, check_max_len,
                  encode, load_vocabulary, save_vocabulary, to_sequence,
                  train_bpe)
from .data import (DatasetSplits, LabeledSample, dedupe, load_jsonl, split,
                   synth_corpus, write_manifest)
from .encoder import (EncoderConfig, denoising_loss, encoder_forward,
                      init_encoder, load_embeddings, save_embeddings,
                      span_mask)
from .errors import DataError, ParameterError, SeqclsError
from .metrics import MetricsReport
from .model import (HEAD_KINDS, RNN_VARIANTS, Example, ModelConfig,
                    init_model, load_checkpoint, save_checkpoint)
from .optim import (OPTIMIZERS, OptimizerConfig, TrainConfig, evaluate,
                    make_optimizer, train, write_log)
from .rng import RandomSource
from .tensor import Tape

SPLIT_NAMES = ("train", "val", "test")
SCHEMAS = ("defect", "generic")

_ENCODER_FIELDS = ("max_len", "d_model", "n_heads", "n_layers", "vocab_size")


@dataclass
class RunConfig:
    """One training run: data source, model shape, optimizer settings.

    Encoder fields stay None when embeddings are imported; supplying any
    of them together with --embeddings is a configuration error.
    """

    data: str
    out_dir: str
    schema: str = "generic"
    lr: float = TrainConfig.lr
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    optimizer: str = TrainConfig.optimizer
    seed: int = TrainConfig.seed
    weight_decay: float | None = TrainConfig.weight_decay
    freeze_encoder: bool = TrainConfig.freeze_encoder
    head: str = ModelConfig.head_kind
    rnn: str = ModelConfig.rnn_variant
    hidden_units: int = ModelConfig.hidden_units
    d_rnn: int = ModelConfig.d_rnn
    dense_units: int = ModelConfig.dense_units
    dropout: float = ModelConfig.dropout
    max_len: int | None = None
    d_model: int | None = None
    n_heads: int | None = None
    n_layers: int | None = None
    vocab_size: int | None = None
    embeddings: str | None = None

    def __post_init__(self):
        if self.head not in HEAD_KINDS:
            raise ParameterError(f"unknown head {self.head!r}")
        if self.rnn not in RNN_VARIANTS:
            raise ParameterError(f"unknown rnn variant {self.rnn!r}")
        if self.embeddings is not None:
            given = [name for name in _ENCODER_FIELDS
                     if getattr(self, name) is not None]
            if given:
                flags = ", ".join("--" + n.replace("_", "-") for n in given)
                raise ParameterError(
                    f"imported embeddings forbid encoder flags: {flags}")
            if self.freeze_encoder:
                raise ParameterError(
                    "--freeze-encoder requires the internal encoder")
        else:
            for name in _ENCODER_FIELDS:
                if getattr(self, name) is None:
                    setattr(self, name, getattr(EncoderConfig, name))
            check_max_len(self.max_len)
            check_fit(self.vocab_size)

    def model_config(self, n_classes: int = 2, vocab_size: int | None = None,
                     input_dim: int = 1) -> ModelConfig:
        """The bundle's shape; the facts the data sets default to stand-ins."""
        shape = dict(encoder=None, input_dim=input_dim)
        if self.embeddings is None:
            sizes = {name: getattr(self, name) for name in _ENCODER_FIELDS}
            sizes["vocab_size"] = vocab_size or self.vocab_size
            shape = dict(encoder=EncoderConfig(dropout=self.dropout, **sizes))
        return ModelConfig(n_classes=n_classes, head_kind=self.head,
                           rnn_variant=self.rnn, hidden_units=self.hidden_units,
                           d_rnn=self.d_rnn, dense_units=self.dense_units,
                           dropout=self.dropout, **shape)

    @property
    def variant_tag(self) -> str:
        return self.rnn if self.head == "rnn" else "mean"

    @property
    def model_tag(self) -> str:
        source = "encoder" if self.embeddings is None else "imported"
        return f"{source}+{self.variant_tag}"

    @property
    def input_path(self) -> str:
        return self.data if self.embeddings is None else self.embeddings

    def with_input(self, path) -> RunConfig:
        """This run with ``path`` as its input file."""
        source = "data" if self.embeddings is None else "embeddings"
        return replace(self, **{source: str(path)})


_METRIC_FIELDS = (
    "accuracy", "precision_weighted", "recall_weighted", "f1_weighted",
    "precision_macro", "recall_macro", "f1_macro",
)


@dataclass
class ResultsRow:
    model: str
    variant: str
    lr: float
    optimizer: str
    hidden_units: int
    dropout: float
    split: str
    accuracy: float | None
    precision_weighted: float | None
    recall_weighted: float | None
    f1_weighted: float | None
    precision_macro: float | None
    recall_macro: float | None
    f1_macro: float | None
    wall_seconds: float | None
    seed: int
    status: str = "ok"

    def as_fields(self) -> list[str]:
        def num(value):
            return "" if value is None else f"{value:.6f}"

        return [self.model, self.variant, f"{self.lr:.6f}", self.optimizer,
                str(self.hidden_units), f"{self.dropout:.6f}", self.split,
                num(self.accuracy), num(self.precision_weighted),
                num(self.recall_weighted), num(self.f1_weighted),
                num(self.precision_macro), num(self.recall_macro),
                num(self.f1_macro), num(self.wall_seconds), str(self.seed),
                self.status]

    def sort_key(self):
        return (self.variant, self.optimizer, self.lr, self.hidden_units,
                self.dropout, self.split)


RESULTS_FIELDS = tuple(f.name for f in fields(ResultsRow))


def write_results(path, rows, append: bool = True) -> None:
    path = Path(path)
    fresh = not (append and path.exists() and path.stat().st_size > 0)
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if fresh:
            writer.writerow(RESULTS_FIELDS)
        for row in rows:
            writer.writerow(row.as_fields())


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _results_row(config: RunConfig, split_name: str,
                 rep: MetricsReport | None = None, wall: float | None = None,
                 status: str = "ok") -> ResultsRow:
    """A scored row, or with no report an error row whose metrics are empty."""
    metrics = {name: None if rep is None else getattr(rep, name)
               for name in _METRIC_FIELDS}
    return ResultsRow(
        model=config.model_tag, variant=config.variant_tag, lr=config.lr,
        optimizer=config.optimizer, hidden_units=config.hidden_units,
        dropout=config.dropout, split=split_name, wall_seconds=wall,
        seed=config.seed, status=status, **metrics)


@dataclass
class PreparedData:
    model_config: ModelConfig
    examples: dict[str, list[Example]]
    splits: DatasetSplits
    vocab: BpeVocabulary | None


def _imported_samples(path):
    rows = load_embeddings(path)
    if not rows:
        raise DataError(f"embedding file {path} holds no samples")
    for i, (matrix, _) in enumerate(rows):
        if 0 in matrix.shape:
            raise DataError(
                f"embedding sample {i} in {path} is empty: shape {matrix.shape}")
    widths = {matrix.shape[1] for matrix, _ in rows}
    if len(widths) > 1:
        raise DataError(f"embedding widths differ: {sorted(widths)}")
    labels = sorted({int(label) for _, label in rows})
    if labels != list(range(len(labels))):
        raise DataError(f"embedding labels in {path} are not 0..K-1: {labels}")
    placeholders = [LabeledSample(code=f"<imported {i}>", label=int(label),
                                  source_id=str(i))
                    for i, (_, label) in enumerate(rows)]
    matrices = {str(i): matrix for i, (matrix, _) in enumerate(rows)}
    return placeholders, matrices, widths.pop()


def prepare(config: RunConfig, vocab: BpeVocabulary | None = None,
            names: tuple[str, ...] = SPLIT_NAMES) -> PreparedData:
    """Load, dedupe, split, tokenize; returns the Example lists of the
    splits ``names`` only.  The split still reads every sample, and
    without ``vocab`` the BPE fit reads the train split."""
    if config.embeddings is not None:
        placeholders, matrices, width = _imported_samples(config.embeddings)
        splits = split(placeholders, config.seed)
        examples = {
            name: [Example(label=s.label, matrix=matrices[s.source_id])
                   for s in getattr(splits, name)]
            for name in names
        }
        shape = dict(input_dim=width)
        vocab = None
    else:
        loaded = load_jsonl(config.data, schema=config.schema)
        samples, _ = dedupe(loaded.samples)
        splits = split(samples, config.seed, label_map=loaded.label_map)
        segments = None
        if vocab is None:
            segments = []
            vocab = train_bpe((s.code for s in splits.train), config.vocab_size,
                              segments=segments)
        shape = dict(vocab_size=len(vocab))
        examples = {}
        for name in names:
            samples = getattr(splits, name)
            if name == "train" and segments is not None:
                # the fit has already segmented every training line
                tokens = [to_sequence(ids, config.max_len) for ids in segments]
            else:
                tokens = [encode(vocab, s.code, config.max_len)
                          for s in samples]
            examples[name] = [Example(label=s.label, tokens=t)
                              for s, t in zip(samples, tokens)]
    model_config = config.model_config(len(splits.label_map), **shape)
    return PreparedData(model_config, examples, splits, vocab)


def _write_run_artifacts(config: RunConfig, prepared: PreparedData,
                         bundle, result) -> Path:
    """Every artifact but results.csv, which scores the saved checkpoint."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(asdict(config), sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    if prepared.vocab is not None:
        save_vocabulary(prepared.vocab, out / "vocab.txt")
    write_manifest(out / "splits.json", prepared.splits)
    manifest = {"inputs": {config.input_path: _sha256(config.input_path)}}
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    write_log(out / "log.tsv", result)
    save_checkpoint(out / "model.ckpt", bundle)
    return out


def cmd_train(config: RunConfig, clock=time.perf_counter) -> list[ResultsRow]:
    """Full pipeline: data, tokenizer, training, per-split results rows.
    Bad settings fail before the data loads; the rows score the reloaded
    model.ckpt, as `seqcls eval` does, so eval reproduces each of them."""
    train_config = TrainConfig(**{f.name: getattr(config, f.name)
                                  for f in fields(TrainConfig)})
    config.model_config()  # with stand-ins for the data, before it loads
    # recorded absolute, so that eval finds the input from any directory
    config = config.with_input(os.path.abspath(config.input_path))
    prepared = prepare(config)
    bundle = init_model(prepared.model_config, config.seed)
    started = clock()
    result = train(bundle, prepared.examples["train"], prepared.examples["val"],
                   train_config, clock=clock)
    wall = clock() - started
    out = _write_run_artifacts(config, prepared, bundle, result)
    saved = load_checkpoint(out / "model.ckpt")
    rows = [
        _results_row(config, name,
                     evaluate(saved, prepared.examples[name],
                              saved.config.n_classes),
                     wall)
        for name in SPLIT_NAMES
    ]
    write_results(out / "results.csv", rows, append=False)
    return rows


def _report_lines(split_name: str, rep: MetricsReport) -> list[str]:
    lines = [f"split: {split_name}"]
    for name in _METRIC_FIELDS:
        lines.append(f"{name}: {getattr(rep, name):.6f}")
    return lines


def _read_run_file(path: Path, read):
    """Apply ``read`` to a run file's JSON; any failure is one DataError."""
    if not path.exists():
        raise DataError(f"missing run {path.stem} next to checkpoint: {path}")
    try:
        return read(json.loads(path.read_text()))
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"unreadable run {path.stem} {path}: {exc!r}") from exc


def cmd_eval(checkpoint, data, split_name: str, schema: str | None = None,
             results=None, clock=time.perf_counter) -> ResultsRow:
    """Forward-only evaluation of a saved run against one dataset split,
    the split that the run's splits.json records; only that split is
    encoded.  Without ``data`` the run's own input file is scored, and it
    is refused if its sha256 is no longer the one manifest.json records."""
    if split_name not in SPLIT_NAMES:
        raise ParameterError(f"unknown split {split_name!r}")
    run_dir = Path(checkpoint).parent
    config = _read_run_file(run_dir / "config.json", lambda d: RunConfig(**d))
    trained_map = _read_run_file(run_dir / "splits.json",
                                 lambda d: d["label_map"])
    recorded = _read_run_file(run_dir / "manifest.json",
                              lambda d: d["inputs"][config.input_path])
    if schema is not None:
        config = replace(config, schema=schema)
    if data is None:
        if _sha256(config.input_path) != recorded:
            raise DataError(f"{config.input_path} changed since the run: its "
                            f"sha256 is not the one manifest.json records; "
                            f"pass it as --data to score it anyway")
    else:
        config = config.with_input(data)
    bundle = load_checkpoint(checkpoint)
    vocab = None
    if bundle.config.encoder is not None:
        vocab = load_vocabulary(run_dir / "vocab.txt")
    prepared = prepare(config, vocab=vocab, names=(split_name,))
    if prepared.model_config.n_classes != bundle.config.n_classes:
        raise DataError(
            f"dataset has {prepared.model_config.n_classes} classes but the "
            f"checkpoint was trained with {bundle.config.n_classes}")
    if prepared.splits.label_map != trained_map:
        raise DataError(
            f"dataset label map {prepared.splits.label_map} differs from the "
            f"run's label map {trained_map} in {run_dir / 'splits.json'}")
    started = clock()
    rep = evaluate(bundle, prepared.examples[split_name],
                   bundle.config.n_classes)
    wall = clock() - started
    print("\n".join(_report_lines(split_name, rep)))
    row = _results_row(config, split_name, rep, wall)
    if results is not None:
        write_results(results, [row])
    return row


def cmd_tokenizer(data, schema: str, vocab_size: int, out,
                  min_frequency: int = MIN_FREQUENCY):
    """Train a byte-pair vocabulary from a dataset file and save it."""
    check_fit(vocab_size, min_frequency)
    loaded = load_jsonl(data, schema=schema)
    vocab = train_bpe((s.code for s in loaded.samples), vocab_size,
                      min_frequency=min_frequency)
    save_vocabulary(vocab, out)
    return vocab


def cmd_synth(n_classes: int, per_class: int, seed: int, out) -> int:
    """Generate the order-sensitive synthetic corpus as generic JSONL."""
    samples = synth_corpus(n_classes, per_class, seed)
    with open(out, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps({"code": sample.code, "label": sample.label,
                                 "idx": sample.source_id},
                                sort_keys=True) + "\n")
    return len(samples)


def cmd_pretrain(data, schema: str, out_dir,
                 vocab_size: int = EncoderConfig.vocab_size,
                 max_len: int = EncoderConfig.max_len,
                 d_model: int = EncoderConfig.d_model,
                 n_heads: int = EncoderConfig.n_heads,
                 n_layers: int = EncoderConfig.n_layers, steps: int = 200,
                 lr: float = 1e-3, seed: int = 0, mask_rate: float = 0.15):
    """Span-mask denoising over the corpus; exports contextual embeddings.

    The settings are checked before the corpus loads.  Zero steps export
    the randomly initialized encoder's embeddings.  The resulting .sqf1
    file plugs straight into `train --embeddings`.
    """
    if steps < 0:
        raise ParameterError(f"step count must be >= 0, got {steps}")
    if not 0.0 < mask_rate < 1.0:
        raise ParameterError(f"mask rate must be in (0, 1) to give each step "
                             f"a masked position, got {mask_rate}")
    check_max_len(max_len)
    check_fit(vocab_size)
    config = EncoderConfig(d_model=d_model, n_heads=n_heads,
                           n_layers=n_layers, vocab_size=vocab_size,
                           max_len=max_len, dropout=0.0)
    optimizer_config = OptimizerConfig(algorithm="adamw", lr=lr)
    loaded = load_jsonl(data, schema=schema)
    samples, _ = dedupe(loaded.samples)
    segments: list[list[int]] = []
    vocab = train_bpe((s.code for s in samples), vocab_size, segments=segments)
    config = replace(config, vocab_size=len(vocab))
    root = RandomSource(seed)
    encoder = init_encoder(config, root.derive("encoder"))
    named = list(encoder.named_parameters())
    optimizer = make_optimizer(optimizer_config, named)
    mask_rng = root.derive("mask")
    order_rng = root.derive("order")
    tokens = [to_sequence(ids, max_len) for ids in segments]
    log_lines = ["step\tloss"]
    for step in range(1, steps + 1):
        index = int(order_rng.integers(0, len(tokens)))
        corrupted, targets = span_mask(tokens[index], mask_rng, mask_rate)
        optimizer.zero_grad()
        with Tape() as tape:
            loss = denoising_loss(encoder, corrupted, targets)
            tape.backward(loss)
        optimizer.step()
        log_lines.append(f"{step}\t{loss.item():.6f}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "pretrain_log.tsv").write_text("\n".join(log_lines) + "\n",
                                          encoding="utf-8")
    save_vocabulary(vocab, out / "vocab.txt")
    exported = []
    for sample, seq in zip(samples, tokens):
        exported.append((encoder_forward(encoder, seq).data, sample.label))
    embeddings_path = out / "embeddings.sqf1"
    save_embeddings(embeddings_path, exported)
    return embeddings_path


def _grid_worker(config: RunConfig, clock=time.perf_counter) -> ResultsRow:
    """One grid cell's test row; any exception that stops the cell becomes
    an error row, so one failed cell cannot abort the grid."""
    try:
        rows = cmd_train(config, clock=clock)
        return next(r for r in rows if r.split == "test")
    except (SeqclsError, OSError) as exc:
        reason = type(exc).__name__
    except Exception as exc:
        traceback.print_exc()
        reason = type(exc).__name__
    return _results_row(config, "test", status=f"error:{reason}")


def best_rows(rows: list[ResultsRow]) -> list[tuple[str, ResultsRow]]:
    """Per (variant, optimizer) group: best by accuracy and by weighted F1."""
    groups: dict[tuple[str, str], list[ResultsRow]] = {}
    for row in sorted(rows, key=ResultsRow.sort_key):
        if row.status == "ok":
            groups.setdefault((row.variant, row.optimizer), []).append(row)
    winners = []
    for key in sorted(groups):
        group = groups[key]
        winners.append(("accuracy", max(group, key=lambda r: r.accuracy)))
        winners.append(("f1_weighted", max(group, key=lambda r: r.f1_weighted)))
    return winners


def cmd_grid(base: RunConfig, lrs, dropouts, hidden_units, variants,
             workers: int = 1, clock=time.perf_counter):
    """Cartesian sweep over {lr} x {dropout} x {hidden} x {variant}."""
    if not (lrs and dropouts and hidden_units and variants):
        raise ParameterError("grid axes must be non-empty")
    out = Path(base.out_dir)
    configs = {}
    for variant, lr, hidden, drop in itertools.product(
            variants, lrs, hidden_units, dropouts):
        run_dir = out / f"run_{variant}_lr{lr:g}_h{hidden}_d{drop:g}"
        if run_dir in configs:
            raise ParameterError(f"two grid cells share the run directory "
                                 f"{run_dir}")
        configs[run_dir] = replace(base, rnn=variant, lr=lr,
                                   hidden_units=hidden, dropout=drop,
                                   out_dir=str(run_dir))
    out.mkdir(parents=True, exist_ok=True)
    worker = functools.partial(_grid_worker, clock=clock)
    if workers > 1:
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            merged = pool.map(worker, configs.values())
    else:
        merged = list(map(worker, configs.values()))
    failed = sum(row.status != "ok" for row in merged)
    merged.sort(key=ResultsRow.sort_key)
    write_results(out / "grid.csv", merged, append=False)
    winners = best_rows(merged)
    with open(out / "best.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("criterion",) + RESULTS_FIELDS)
        for criterion, row in winners:
            writer.writerow([criterion] + row.as_fields())
    return merged, winners, failed


def _add_encoder_flags(parser: argparse.ArgumentParser) -> None:
    for name in _ENCODER_FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), type=int)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--optimizer", choices=OPTIMIZERS,
                        default=RunConfig.optimizer)
    parser.add_argument("--epochs", type=int, default=RunConfig.epochs)
    parser.add_argument("--batch-size", type=int, default=RunConfig.batch_size)
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument("--weight-decay", type=float)
    parser.add_argument("--freeze-encoder", action="store_true")
    parser.add_argument("--head", choices=HEAD_KINDS, default=RunConfig.head)
    parser.add_argument("--d-rnn", type=int, default=RunConfig.d_rnn)
    parser.add_argument("--dense-units", type=int,
                        default=RunConfig.dense_units)
    _add_encoder_flags(parser)
    parser.add_argument("--embeddings",
                        help="imported-embedding file; replaces the encoder")


def _run_config(args, **overrides) -> RunConfig:
    settings = {**vars(args), **overrides}
    return RunConfig(**{f.name: settings[f.name] for f in fields(RunConfig)})


def _comma_list(kind):
    """An argparse type: comma-separated ``kind`` values, empty parts skipped."""
    def parse(text: str) -> list:
        return [kind(part) for part in text.split(",") if part]
    parse.__name__ = kind.__name__  # argparse's "invalid float value" names it
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcls",
        description="Sequence classifiers over code: BPE + toy transformer "
                    "encoder + recurrent heads.")
    sub = parser.add_subparsers(dest="command", required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--data", required=True)
    source.add_argument("--schema", choices=SCHEMAS, default=RunConfig.schema)
    run = argparse.ArgumentParser(add_help=False, parents=[source])
    run.add_argument("--out-dir", required=True)

    p = sub.add_parser("tokenizer", parents=[source],
                       help="train and save a BPE vocabulary")
    p.add_argument("--vocab-size", type=int, default=EncoderConfig.vocab_size)
    p.add_argument("--min-frequency", type=int, default=MIN_FREQUENCY)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="write the order-sensitive synthetic corpus")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    # an omitted flag stays out of the namespace, so cmd_pretrain's own
    # signature supplies its default
    p = sub.add_parser("pretrain", parents=[run],
                       help="denoising pretraining; exports embeddings",
                       argument_default=argparse.SUPPRESS)
    _add_encoder_flags(p)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--mask-rate", type=float)

    p = sub.add_parser("train", parents=[run],
                       help="train one classifier end to end")
    p.add_argument("--lr", type=float, default=RunConfig.lr)
    p.add_argument("--rnn", choices=RNN_VARIANTS, default=RunConfig.rnn)
    p.add_argument("--hidden-units", type=int, default=RunConfig.hidden_units)
    p.add_argument("--dropout", type=float, default=RunConfig.dropout)
    _add_model_flags(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None,
                   help="dataset override; defaults to the run's dataset")
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.add_argument("--schema", choices=SCHEMAS, default=None)
    p.add_argument("--results", default=None,
                   help="append the row to this CSV")

    p = sub.add_parser("grid", parents=[run],
                       help="hyperparameter sweep; merged CSV + best rows")
    p.add_argument("--lr", type=_comma_list(float), default=[RunConfig.lr],
                   help="comma-separated learning rates")
    p.add_argument("--rnn", type=_comma_list(str), default=[RunConfig.rnn],
                   help="comma-separated rnn variants")
    p.add_argument("--hidden-units", type=_comma_list(int),
                   default=[RunConfig.hidden_units],
                   help="comma-separated hidden sizes")
    p.add_argument("--dropout", type=_comma_list(float),
                   default=[RunConfig.dropout],
                   help="comma-separated dropout rates")
    p.add_argument("--workers", type=int, default=1)
    _add_model_flags(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "tokenizer":
            cmd_tokenizer(args.data, args.schema, args.vocab_size, args.out,
                          min_frequency=args.min_frequency)
            print(f"wrote vocabulary to {args.out}")
        elif args.command == "synth":
            count = cmd_synth(args.classes, args.per_class, args.seed,
                              args.out)
            print(f"wrote {count} samples to {args.out}")
        elif args.command == "pretrain":
            path = cmd_pretrain(**{name: value for name, value in vars(args).items()
                                   if name != "command"})
            print(f"wrote embeddings to {path}")
        elif args.command == "train":
            rows = cmd_train(_run_config(args))
            for row in rows:
                print(",".join(row.as_fields()))
        elif args.command == "eval":
            cmd_eval(args.checkpoint, args.data, args.split,
                     schema=args.schema, results=args.results)
        elif args.command == "grid":
            base = _run_config(args, lr=args.lr[0], rnn=args.rnn[0],
                               hidden_units=args.hidden_units[0],
                               dropout=args.dropout[0])
            rows, _, failed = cmd_grid(
                base, args.lr, args.dropout, args.hidden_units, args.rnn,
                workers=args.workers)
            print(f"grid complete: {len(rows)} rows, {failed} failed")
            if failed:
                return 1
    except (SeqclsError, OSError) as exc:
        print(f"seqcls: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
