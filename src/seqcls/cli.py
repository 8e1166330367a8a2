"""Command-line surface: tokenizer training, toy denoising pretraining,
supervised training, evaluation, and hyperparameter grids.

Every training run leaves a self-contained directory (config, vocabulary,
split manifest, input hashes, epoch log, checkpoint, results rows) from
which the results CSV row can be regenerated.  Results use one CSV schema
everywhere: comma separated, header row, '.' decimal point, six decimal
places.  Grid execution fans runs out to worker processes with disjoint
output directories and merges the per-run rows at the end, so parallelism
never changes the bytes that land in the merged table.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import multiprocessing
import sys
import time
import traceback
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .bpe import (BpeVocabulary, encode, load_vocabulary, save_vocabulary,
                  to_sequence, train_bpe)
from .data import (DatasetSplits, LabeledSample, dedupe, load_jsonl, split,
                   synth_corpus, write_manifest)
from .encoder import (EncoderConfig, denoising_loss, encoder_forward,
                      init_encoder, load_embeddings, save_embeddings,
                      span_mask)
from .errors import DataError, ParameterError, SeqclsError
from .metrics import MetricsReport
from .model import (Example, ModelConfig, init_model, load_checkpoint,
                    round_to_checkpoint, save_checkpoint)
from .optim import (OPTIMIZERS, OptimizerConfig, TrainConfig, evaluate,
                    make_optimizer, train, write_log)
from .rng import RandomSource
from .tensor import Tape

RNN_CHOICES = ("vanilla", "lstm", "bilstm", "gru", "bigru")
HEAD_CHOICES = ("rnn", "mean")
SPLIT_NAMES = ("train", "val", "test")
SCHEMAS = ("defect", "generic")

_ENCODER_FIELDS = ("max_len", "d_model", "n_heads", "n_layers", "vocab_size")


def _variant_parts(rnn: str) -> tuple[str, bool]:
    if rnn.startswith("bi"):
        return rnn[2:], True
    return rnn, False


@dataclass
class RunConfig:
    """One training run: data source, model shape, optimizer settings.

    Encoder fields stay None when embeddings are imported; supplying any
    of them together with --embeddings is a configuration error.
    """

    data: str
    out_dir: str
    schema: str = "generic"
    lr: float = 1e-4
    epochs: int = 5
    batch_size: int = 32
    optimizer: str = "adamw"
    seed: int = 0
    weight_decay: float | None = None
    freeze_encoder: bool = False
    head: str = "rnn"
    rnn: str = "gru"
    hidden_units: int = 32
    d_rnn: int = 32
    dense_units: int = 32
    dropout: float = 0.1
    max_len: int | None = None
    d_model: int | None = None
    n_heads: int | None = None
    n_layers: int | None = None
    vocab_size: int | None = None
    embeddings: str | None = None

    def __post_init__(self):
        if self.head not in HEAD_CHOICES:
            raise ParameterError(f"unknown head {self.head!r}")
        if self.rnn not in RNN_CHOICES:
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

    @property
    def embedding_source(self) -> str:
        if self.embeddings is None:
            return "internal"
        return f"imported:{self.embeddings}"

    @property
    def variant_tag(self) -> str:
        return self.rnn if self.head == "rnn" else "mean"

    @property
    def model_tag(self) -> str:
        source = "encoder" if self.embeddings is None else "imported"
        return f"{source}+{self.variant_tag}"

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["embedding_source"] = self.embedding_source
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        payload = dict(payload)
        payload.pop("embedding_source", None)
        return cls(**payload)


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


def _encode_split(vocab: BpeVocabulary, samples, max_len: int) -> list[Example]:
    return [Example(label=s.label, tokens=encode(vocab, s.code, max_len))
            for s in samples]


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
    placeholders = [LabeledSample(code=f"<imported {i}>", label=int(label),
                                  source_id=str(i))
                    for i, (_, label) in enumerate(rows)]
    matrices = {str(i): matrix for i, (matrix, _) in enumerate(rows)}
    return placeholders, matrices, widths.pop()


def prepare(config: RunConfig, vocab: BpeVocabulary | None = None) -> PreparedData:
    """Load, dedupe, split, tokenize; returns per-split Example lists."""
    if config.embeddings is not None:
        placeholders, matrices, width = _imported_samples(config.embeddings)
        splits = split(placeholders, config.seed)
        examples = {
            name: [Example(label=s.label, matrix=matrices[s.source_id])
                   for s in getattr(splits, name)]
            for name in SPLIT_NAMES
        }
        source = dict(embedding_source="imported", input_dim=width)
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
        encoder = EncoderConfig(
            d_model=config.d_model, n_heads=config.n_heads,
            n_layers=config.n_layers, vocab_size=len(vocab),
            max_len=config.max_len, dropout=config.dropout)
        source = dict(embedding_source="internal", encoder=encoder)
        examples = {}
        if segments is not None:
            # the fit has already segmented every training line
            examples["train"] = [
                Example(label=s.label,
                        tokens=to_sequence(vocab, tokens, config.max_len))
                for s, tokens in zip(splits.train, segments)]
        for name in SPLIT_NAMES:
            if name not in examples:
                examples[name] = _encode_split(vocab, getattr(splits, name),
                                               config.max_len)
    rnn_variant, bidirectional = _variant_parts(config.rnn)
    model_config = ModelConfig(
        n_classes=len(splits.label_map), head_kind=config.head,
        rnn_variant=rnn_variant, bidirectional=bidirectional,
        hidden_units=config.hidden_units, d_rnn=config.d_rnn,
        dense_units=config.dense_units, dropout=config.dropout, **source)
    return PreparedData(model_config, examples, splits, vocab)


def _write_run_artifacts(config: RunConfig, prepared: PreparedData,
                         bundle, result, rows) -> None:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    if prepared.vocab is not None:
        save_vocabulary(prepared.vocab, out / "vocab.txt")
    write_manifest(out / "splits.json", prepared.splits)
    input_path = config.embeddings if config.embeddings else config.data
    manifest = {"config": config.to_dict(),
                "inputs": {str(input_path): _sha256(input_path)}}
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    write_log(out / "log.tsv", result)
    save_checkpoint(out / "model.ckpt", bundle)
    write_results(out / "results.csv", rows)


def cmd_train(config: RunConfig, clock=time.perf_counter) -> list[ResultsRow]:
    """Full pipeline: data, tokenizer, training, per-split results rows."""
    prepared = prepare(config)
    bundle = init_model(prepared.model_config, config.seed)
    train_config = TrainConfig(
        lr=config.lr, epochs=config.epochs, batch_size=config.batch_size,
        optimizer=config.optimizer, seed=config.seed,
        weight_decay=config.weight_decay,
        freeze_encoder=config.freeze_encoder)
    started = clock()
    result = train(bundle, prepared.examples["train"], prepared.examples["val"],
                   train_config, clock=clock)
    wall = clock() - started
    # score what model.ckpt will hold, so `seqcls eval` reproduces each row
    round_to_checkpoint(bundle)
    n_classes = prepared.model_config.n_classes
    rows = [
        _results_row(config, name,
                     evaluate(bundle, prepared.examples[name], n_classes),
                     wall)
        for name in SPLIT_NAMES
    ]
    _write_run_artifacts(config, prepared, bundle, result, rows)
    return rows


def _report_lines(split_name: str, rep: MetricsReport) -> list[str]:
    lines = [f"split: {split_name}"]
    for name in _METRIC_FIELDS:
        lines.append(f"{name}: {getattr(rep, name):.6f}")
    return lines


def cmd_eval(checkpoint, data, split_name: str, schema: str | None = None,
             seed: int | None = None, results=None,
             clock=time.perf_counter) -> ResultsRow:
    """Forward-only evaluation of a saved run against one dataset split."""
    if split_name not in SPLIT_NAMES:
        raise ParameterError(f"unknown split {split_name!r}")
    checkpoint = Path(checkpoint)
    config_path = checkpoint.parent / "config.json"
    splits_path = checkpoint.parent / "splits.json"
    for path in (config_path, splits_path):
        if not path.exists():
            raise DataError(f"missing run {path.stem} next to checkpoint: {path}")
    try:
        config = RunConfig.from_dict(json.loads(config_path.read_text()))
    except (ValueError, TypeError) as exc:
        raise DataError(f"unreadable run config {config_path}: {exc!r}") from exc
    if schema is not None:
        config = replace(config, schema=schema)
    if seed is not None:
        config = replace(config, seed=seed)
    if data is not None:
        config = replace(
            config,
            **({"embeddings": str(data)} if config.embeddings else
               {"data": str(data)}))
    bundle = load_checkpoint(checkpoint)
    vocab = None
    if bundle.config.embedding_source == "internal":
        vocab = load_vocabulary(checkpoint.parent / "vocab.txt")
    prepared = prepare(config, vocab=vocab)
    if prepared.model_config.n_classes != bundle.config.n_classes:
        raise DataError(
            f"dataset has {prepared.model_config.n_classes} classes but the "
            f"checkpoint was trained with {bundle.config.n_classes}")
    try:
        trained_map = json.loads(splits_path.read_text())["label_map"]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"unreadable run splits {splits_path}: {exc!r}") from exc
    if prepared.splits.label_map != trained_map:
        raise DataError(
            f"dataset label map {prepared.splits.label_map} differs from the "
            f"run's label map {trained_map} in {splits_path}")
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
                  min_frequency: int = 2):
    """Train a byte-pair vocabulary from a dataset file and save it."""
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


def cmd_pretrain(data, schema: str, out_dir, vocab_size: int = 512,
                 max_len: int = 64, d_model: int = 64, n_heads: int = 4,
                 n_layers: int = 2, steps: int = 200, lr: float = 1e-3,
                 seed: int = 0, mask_rate: float = 0.15):
    """Span-mask denoising over the corpus; exports contextual embeddings.

    The resulting .sqf1 file plugs straight into `train --embeddings`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    loaded = load_jsonl(data, schema=schema)
    samples, _ = dedupe(loaded.samples)
    segments: list[list[str]] = []
    vocab = train_bpe((s.code for s in samples), vocab_size, segments=segments)
    config = EncoderConfig(d_model=d_model, n_heads=n_heads,
                           n_layers=n_layers, vocab_size=len(vocab),
                           max_len=max_len, dropout=0.0)
    root = RandomSource(seed)
    encoder = init_encoder(config, root.derive("encoder"))
    named = list(encoder.named_parameters())
    optimizer = make_optimizer(OptimizerConfig(algorithm="adamw", lr=lr),
                               named)
    mask_rng = root.derive("mask")
    order_rng = root.derive("order")
    tokens = [to_sequence(vocab, line, max_len) for line in segments]
    log_lines = ["step\tloss"]
    for step in range(1, steps + 1):
        index = int(order_rng.integers(0, len(tokens)))
        corrupted, targets = span_mask(tokens[index], mask_rng, mask_rate)
        if not targets:
            continue
        optimizer.zero_grad()
        with Tape() as tape:
            loss = denoising_loss(encoder, corrupted, targets)
            tape.backward(loss)
        optimizer.step()
        log_lines.append(f"{step}\t{loss.item():.6f}")
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
    out.mkdir(parents=True, exist_ok=True)
    configs = []
    for variant, lr, hidden, drop in itertools.product(
            variants, lrs, hidden_units, dropouts):
        tag = f"run_{variant}_lr{lr:g}_h{hidden}_d{drop:g}"
        configs.append(replace(base, rnn=variant, lr=lr, hidden_units=hidden,
                               dropout=drop, out_dir=str(out / tag)))
    worker = functools.partial(_grid_worker, clock=clock)
    if workers > 1:
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            merged = pool.map(worker, configs)
    else:
        merged = list(map(worker, configs))
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


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--optimizer", choices=OPTIMIZERS,
                        default=RunConfig.optimizer)
    parser.add_argument("--epochs", type=int, default=RunConfig.epochs)
    parser.add_argument("--batch-size", type=int, default=RunConfig.batch_size)
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument("--weight-decay", type=float)
    parser.add_argument("--freeze-encoder", action="store_true")
    parser.add_argument("--head", choices=HEAD_CHOICES, default=RunConfig.head)
    parser.add_argument("--d-rnn", type=int, default=RunConfig.d_rnn)
    parser.add_argument("--dense-units", type=int,
                        default=RunConfig.dense_units)
    for name in _ENCODER_FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), type=int)
    parser.add_argument("--embeddings",
                        help="imported-embedding file; replaces the encoder")


def _run_config(args, **overrides) -> RunConfig:
    settings = {**vars(args), **overrides}
    return RunConfig(**{f.name: settings[f.name] for f in fields(RunConfig)})


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _names(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcls",
        description="Sequence classifiers over code: BPE + toy transformer "
                    "encoder + recurrent heads.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenizer", help="train and save a BPE vocabulary")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", choices=SCHEMAS, default="generic")
    p.add_argument("--vocab-size", type=int, default=512)
    p.add_argument("--min-frequency", type=int, default=2)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="write the order-sensitive synthetic corpus")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    # an omitted flag stays out of the namespace, so cmd_pretrain's own
    # signature supplies its default
    p = sub.add_parser("pretrain", help="denoising pretraining; exports embeddings",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", choices=SCHEMAS, default="generic")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--max-len", type=int)
    p.add_argument("--d-model", type=int)
    p.add_argument("--n-heads", type=int)
    p.add_argument("--n-layers", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--mask-rate", type=float)

    p = sub.add_parser("train", help="train one classifier end to end")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", choices=SCHEMAS, default=RunConfig.schema)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--lr", type=float, default=RunConfig.lr)
    p.add_argument("--rnn", choices=RNN_CHOICES, default=RunConfig.rnn)
    p.add_argument("--hidden-units", type=int, default=RunConfig.hidden_units)
    p.add_argument("--dropout", type=float, default=RunConfig.dropout)
    _add_model_flags(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None,
                   help="dataset override; defaults to the run's dataset")
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.add_argument("--schema", choices=SCHEMAS, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--results", default=None,
                   help="append the row to this CSV")

    p = sub.add_parser("grid", help="hyperparameter sweep; merged CSV + best rows")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", choices=SCHEMAS, default=RunConfig.schema)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--lr", type=_floats, default=[RunConfig.lr],
                   help="comma-separated learning rates")
    p.add_argument("--rnn", type=_names, default=[RunConfig.rnn],
                   help="comma-separated rnn variants")
    p.add_argument("--hidden-units", type=_ints,
                   default=[RunConfig.hidden_units],
                   help="comma-separated hidden sizes")
    p.add_argument("--dropout", type=_floats, default=[RunConfig.dropout],
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
                     schema=args.schema, seed=args.seed,
                     results=args.results)
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
