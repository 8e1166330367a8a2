"""The three workloads: set-up, one timed repetition, and the check pass.

Timed calls go through the program's real entry points only
(``optim.train``, ``optim.evaluate``, ``model.load_checkpoint``,
``cli.prepare``), looked up as module attributes at call time so the
traced run's wrappers see them.  The check pass after the timed loop may
loop over ``forward_example``; it is never timed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seqcls import bpe, cli, data, heads, metrics, model, optim
from seqcls.encoder import EncoderConfig

import checks
import gen

# Model workloads: code-like lines of 4-8 filler statements encode to a
# mean of about 45 BPE tokens at max_len 64 with none truncated, the
# shape ROADMAP's baseline was measured on.  Both fit their set-up
# vocabulary on a separate split of FIT lines.
FILLERS = (4, 8)
VOCAB = 512
MAX_LEN = 64
FIT = 64
LABELS = {"bug": 0, "ok": 1}

# Every timed call is kept well under a second.  Other tenants of a
# shared machine slow it by up to 2x in bursts; the shorter the call,
# the more of them a window holds and the likelier its fastest one ran
# in a quiet spell, which is what the reported best repetition reads.

# train-gru: 2 full batches of 16 plus the 16-line validation pass keep
# one optim.train call near 0.5 s on a 2-core x86-64 container.
GRU_TRAIN, GRU_VAL, GRU_HELDOUT, GRU_BATCH = 32, 16, 64, 16

# eval-meanpool: 256 held-out samples (about 0.35 s per evaluate) make
# the one-off load_checkpoint a small share, as in a real `seqcls eval`.
POOL_HELDOUT = 256

# tokenize: 40 lines of 6-12 statements (about 280 characters) still
# take BPE fitting to the full 512 tokens, in about 0.4 s.  One line in
# each 20 is a whitespace duplicate and one is malformed, which exercises
# dedupe and skipping.  max_len 256 keeps every line whole, so ids must
# decode back exactly.
TOK_LINES, TOK_FILLERS, TOK_EVERY, TOK_MAX_LEN = 40, (6, 12), 20, 256


@dataclass
class Rep:
    """One timed repetition: the main call, the reuse call, their output."""

    main_s: float
    main_n: int
    apply_s: float
    apply_n: int
    obs: dict
    ops: int


def _report(rep: metrics.MetricsReport) -> list:
    return [rep.accuracy, rep.precision, rep.recall, rep.supports,
            rep.f1_weighted, rep.f1_macro]


def _write_split(work: Path, seed: int, split: str, n: int) -> Path:
    path = work / f"{split}.jsonl"
    gen.write_jsonl(path, gen.model_records(seed, split, n, FILLERS))
    return path


def _load(path: Path) -> list[data.LabeledSample]:
    loaded = data.load_jsonl(path, schema="generic")
    if loaded.label_map != LABELS or loaded.skipped:
        raise RuntimeError(f"generator wrote unexpected data to {path}")
    return loaded.samples


def _examples(vocab, samples) -> list[model.Example]:
    return [model.Example(label=s.label, tokens=bpe.encode(vocab, s.code, MAX_LEN))
            for s in samples]


def _model_config(vocab_len: int, head_kind: str) -> model.ModelConfig:
    encoder = EncoderConfig(d_model=64, n_heads=4, n_layers=2,
                            vocab_size=vocab_len, max_len=MAX_LEN, dropout=0.1)
    return model.ModelConfig(n_classes=len(LABELS), encoder=encoder,
                             head_kind=head_kind, rnn_variant="gru",
                             hidden_units=32, d_rnn=32, dense_units=32,
                             dropout=0.1)


def _predictions(bundle, examples) -> tuple[list[int], float]:
    """Per-sample labels, plus the summed class-1 probability, which
    also catches a change too small to flip a label."""
    probs = [model.forward_example(bundle, ex)[0] for ex in examples]
    return [heads.predict(p) for p in probs], float(sum(p.data[1] for p in probs))


def _prediction_obs(bundle, examples) -> dict:
    preds, prob_sum = _predictions(bundle, examples)
    truth = [ex.label for ex in examples]
    return {"pred_sha": checks.digest(preds), "prob_sum": prob_sum,
            "pred_report": _report(metrics.report(truth, preds, len(LABELS)))}


class TrainGru:
    name = "train-gru"
    record_keys = ("train_loss", "report", "pred_sha", "prob_sum")
    expected_spans = ("tensor.backward", "heads.scan", "heads.classify",
                      "heads.loss", "encoder.forward", "model.forward",
                      "optim.step", "optim.train", "optim.evaluate",
                      "metrics.report")
    forbidden_spans = ("heads.mean_pool", "model.load_checkpoint", "bpe.fit",
                       "bpe.encode", "data.load")
    setup_spans = ("bpe.fit",)

    def setup(self, seed: int, work: Path) -> dict:
        fit = _load(_write_split(work, seed, "fit", FIT))
        samples = {split: _load(_write_split(work, seed, split, n))
                   for split, n in (("train", GRU_TRAIN), ("val", GRU_VAL),
                                    ("heldout", GRU_HELDOUT))}
        vocab = bpe.train_bpe([s.code for s in fit], VOCAB)
        examples = {split: _examples(vocab, rows) for split, rows in samples.items()}
        bundle = model.init_model(_model_config(len(vocab), "rnn"), seed)
        initial = {name: p.data.copy() for name, p in bundle.all_named_parameters()}
        return {"seed": seed, "examples": examples, "bundle": bundle,
                "initial": initial}

    def rep(self, state: dict) -> Rep:
        bundle, ex = state["bundle"], state["examples"]
        for name, p in bundle.all_named_parameters():
            p.data = state["initial"][name].copy()
        config = optim.TrainConfig(lr=1e-3, epochs=1, batch_size=GRU_BATCH,
                                   optimizer="adamw", seed=state["seed"])
        t0 = time.perf_counter()
        result = optim.train(bundle, ex["train"], ex["val"], config)
        t1 = time.perf_counter()
        report = optim.evaluate(bundle, ex["heldout"], len(LABELS))
        t2 = time.perf_counter()
        steps = -(-GRU_TRAIN // GRU_BATCH)
        return Rep(t1 - t0, GRU_TRAIN, t2 - t1, GRU_HELDOUT,
                   {"train_loss": result.log[-1].train_loss,
                    "report": _report(report)},
                   steps + GRU_HELDOUT)

    def final(self, state: dict) -> dict:
        return _prediction_obs(state["bundle"], state["examples"]["heldout"])


class EvalMeanpool:
    name = "eval-meanpool"
    record_keys = ("report", "pred_sha", "prob_sum")
    expected_spans = ("model.load_checkpoint", "optim.evaluate", "model.forward",
                      "encoder.forward", "heads.mean_pool", "heads.classify",
                      "metrics.report")
    forbidden_spans = ("heads.scan", "tensor.backward", "optim.step",
                       "optim.train", "heads.loss", "bpe.fit", "bpe.encode")
    setup_spans = ("bpe.fit",)

    def setup(self, seed: int, work: Path) -> dict:
        fit = _load(_write_split(work, seed, "fit", FIT))
        heldout = _load(_write_split(work, seed, "heldout", POOL_HELDOUT))
        vocab = bpe.train_bpe([s.code for s in fit], VOCAB)
        examples = _examples(vocab, heldout)
        bundle = model.init_model(_model_config(len(vocab), "mean"), seed)
        path = work / "model.ckpt"
        model.save_checkpoint(path, bundle)
        return {"bundle": bundle, "examples": examples, "path": path}

    def rep(self, state: dict) -> Rep:
        t0 = time.perf_counter()
        bundle = model.load_checkpoint(state["path"])
        t1 = time.perf_counter()
        report = optim.evaluate(bundle, state["examples"], len(LABELS))
        t2 = time.perf_counter()
        return Rep(t2 - t0, POOL_HELDOUT, t2 - t1, POOL_HELDOUT,
                   {"report": _report(report)}, POOL_HELDOUT)

    def final(self, state: dict) -> dict:
        obs = _prediction_obs(model.load_checkpoint(state["path"]),
                              state["examples"])
        # the checkpoint stores float32: round the saved model the same way
        saved = state["bundle"]
        for _, p in saved.all_named_parameters():
            p.data = p.data.astype(np.float32).astype(np.float64)
        preds, obs["mem_prob_sum"] = _predictions(saved, state["examples"])
        obs["mem_pred_sha"] = checks.digest(preds)
        return obs


def _ids(prepared) -> list:
    return [[ex.tokens.input_ids for ex in prepared.examples[split]]
            for split in cli.SPLIT_NAMES]


class Tokenize:
    name = "tokenize"
    record_keys = ("vocab_sha", "ids_sha")
    expected_spans = ("bpe.fit", "bpe.encode", "data.load", "data.dedupe",
                      "data.split")
    forbidden_spans = ("tensor.backward", "encoder.forward", "model.forward",
                       "heads.scan", "heads.mean_pool", "heads.classify",
                       "heads.loss", "optim.step", "optim.train",
                       "optim.evaluate")
    setup_spans = ()

    def setup(self, seed: int, work: Path) -> dict:
        path = work / "corpus.jsonl"
        gen.write_jsonl(path, gen.tokenize_lines(seed, TOK_LINES, TOK_FILLERS,
                                                 TOK_EVERY))
        config = cli.RunConfig(data=str(path), out_dir=str(work / "run"),
                               schema="generic", vocab_size=VOCAB,
                               max_len=TOK_MAX_LEN, seed=seed)
        return {"config": config, "vocab_path": work / "vocab.txt"}

    def rep(self, state: dict) -> Rep:
        t0 = time.perf_counter()
        prepared = cli.prepare(state["config"])
        t1 = time.perf_counter()
        again = cli.prepare(state["config"], vocab=prepared.vocab)
        t2 = time.perf_counter()
        lines = sum(len(prepared.examples[s]) for s in cli.SPLIT_NAMES)
        state["prepared"] = prepared
        bpe.save_vocabulary(prepared.vocab, state["vocab_path"])
        obs = {"vocab_sha": hashlib.sha256(state["vocab_path"].read_bytes()).hexdigest(),
               "ids_sha": checks.digest(_ids(prepared)),
               "reuse_ids_sha": checks.digest(_ids(again)),
               "vocab_len": len(prepared.vocab), "vocab_target": VOCAB}
        return Rep(t1 - t0, lines, t2 - t1, lines, obs, 2 * lines)

    def final(self, state: dict) -> dict:
        prepared = state["prepared"]
        failures = 0
        for split in cli.SPLIT_NAMES:
            for sample, ex in zip(getattr(prepared.splits, split),
                                  prepared.examples[split]):
                if (ex.tokens.length >= TOK_MAX_LEN or
                        bpe.decode(prepared.vocab, ex.tokens.input_ids) != sample.code):
                    failures += 1
        return {"roundtrip_failures": failures}


WORKLOADS = {w.name: w for w in (TrainGru(), EvalMeanpool(), Tokenize())}
