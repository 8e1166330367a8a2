"""Acceptance gate: ten end-to-end checks over the whole pipeline.

Each check prints one ``[PASS]``/``[FAIL]`` verdict line (visible with
``pytest -s`` and in failure output) and then asserts, so the module
doubles as a readable report.  Numeric targets are frozen against
independent oracles: hand counts for the metric and n-gram fixtures,
central finite differences for the gradient suite, and closed-form
update algebra for the optimizers.
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from seqcls import tensor as tt
from seqcls import encoder as enc
from seqcls import heads as hd
from seqcls import metrics as mt
from seqcls import ngram as ng
from seqcls.bpe import TokenSequence, encode, train_bpe
from seqcls.cli import RunConfig, cmd_synth, cmd_train
from seqcls.data import dedupe, load_jsonl, split, synth_corpus
from seqcls.model import Example, ModelConfig, init_model
from seqcls.optim import (OPTIMIZERS, OptimizerConfig, TrainConfig,
                          evaluate, make_optimizer, train)
from seqcls.rng import RandomSource


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] check {num}: {label}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- check 1

def _probe_loss(out: tt.Tensor, rng: RandomSource) -> tt.Tensor:
    """Project onto a random constant so every output entry gets a
    distinct, nondegenerate gradient path."""
    probe = tt.Tensor(rng.uniform(-1.0, 1.0, out.shape))
    return tt.sum_all(tt.mul(out, probe))


def _jitter(params, rng: RandomSource) -> None:
    # uniform layer-norm gains hide whole gradient directions
    for name, t in params:
        if name.endswith("gain"):
            t.data = t.data + rng.uniform(-0.2, 0.2, t.data.shape)


def test_01_gradient_suite():
    worst_by_case: dict[str, float] = {}
    start = time.perf_counter()
    for seed in range(5):
        rng = RandomSource(seed).derive("gradcheck")
        cfg = enc.EncoderConfig(d_model=4, n_heads=2, n_layers=1,
                                vocab_size=8, max_len=6, dropout=0.0)
        layer = enc.init_encoder(cfg, rng.derive("enc")).layers[0]
        x = tt.Tensor(rng.uniform(-1.0, 1.0, (4, 4)))
        cases = {}

        table = tt.Tensor(rng.uniform(-1.0, 1.0, (5, 3)), requires_grad=True)
        cases["embedding"] = (
            lambda: _probe_loss(tt.gather_rows(table, [0, 3, 1]), rng.derive("p0")),
            [table])

        attn_params = [t for _, t in layer.attn.named_parameters("a.")]
        cases["attention"] = (
            lambda: _probe_loss(enc.multi_head_attention(layer.attn, x),
                                rng.derive("p1")),
            attn_params)

        mask = enc.additive_mask(4, valid_len=3, causal=True)
        cases["masked attention"] = (
            lambda: _probe_loss(enc.multi_head_attention(layer.attn, x, mask),
                                rng.derive("p2")),
            attn_params)

        cases["feed forward"] = (
            lambda: _probe_loss(enc.feed_forward(layer.ffn, x), rng.derive("p3")),
            [t for _, t in layer.ffn.named_parameters("f.")])

        gain = tt.Tensor(1.0 + rng.uniform(-0.2, 0.2, (4,)), requires_grad=True)
        bias = tt.Tensor(rng.uniform(-0.1, 0.1, (4,)), requires_grad=True)
        cases["layer norm"] = (
            lambda: _probe_loss(tt.layer_norm(x, gain, bias), rng.derive("p4")),
            [gain, bias])

        bridge = hd.init_bridge(4, 3, rng.derive("bridge"))
        cases["bridge"] = (
            lambda: _probe_loss(tt.matmul(x, bridge.w), rng.derive("p5")),
            [t for _, t in bridge.named_parameters("b.")])

        seq = tt.Tensor(rng.uniform(-1.0, 1.0, (1, 3, 3)))
        for variant in ("vanilla", "lstm", "gru"):
            cell = hd.init_cell(variant, 3, 2, rng.derive(variant))
            cases[f"{variant} cell"] = (
                lambda c=cell: _probe_loss(hd.rnn_forward(c, seq, [3]),
                                           rng.derive("p6")),
                [t for _, t in cell.named_parameters("c.")])
        for variant in ("lstm", "gru"):
            bi = hd.init_bicell(variant, 3, 2, rng.derive("bi" + variant))
            cases[f"bi{variant} head"] = (
                lambda b=bi: _probe_loss(hd.birnn_forward(b, seq, [3]),
                                         rng.derive("p7")),
                [t for _, t in bi.named_parameters("bi.")])

        head = hd.init_classifier(3, 3, 2, 0.0, rng.derive("cls"))
        states = tt.Tensor(rng.uniform(-1.0, 1.0, (3, 3)))
        cases["classifier"] = (
            lambda: hd.average_losses(hd.cross_entropy_loss(
                hd.classify(head, states), [0, 0, 0])),
            [t for _, t in head.named_parameters("h.")])

        denoise = enc.init_encoder(cfg, rng.derive("den"))
        den_params = list(denoise.named_parameters())
        _jitter(den_params, rng.derive("jitter"))
        tokens = TokenSequence([3, 5, 6, 7, 5, 4], 6)
        corrupted, targets = enc.span_mask(tokens, rng.derive("mask"), 0.34)
        assert targets, "span mask produced no targets"
        cases["denoising head"] = (
            lambda: enc.denoising_loss(denoise, corrupted, targets),
            [t for _, t in den_params])

        for name, (loss_fn, params) in cases.items():
            err = tt.check_gradients(loss_fn, params)
            worst_by_case[name] = max(worst_by_case.get(name, 0.0), err)

    elapsed = time.perf_counter() - start
    worst = max(worst_by_case.values())
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(1, "gradient suite", ok,
             f"{len(worst_by_case)} layer kinds x 5 seeds, worst rel err "
             f"{worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- check 2

def _oracle(true_labels, predicted_labels, k):
    """Brute-force confusion counting, independent of the library."""
    cm = [[0] * k for _ in range(k)]
    for t, p in zip(true_labels, predicted_labels):
        cm[t][p] += 1
    n = len(true_labels)
    per = []
    for c in range(k):
        tp = cm[c][c]
        col = sum(cm[r][c] for r in range(k))
        row = sum(cm[c])
        p = tp / col if col else 0.0
        r = tp / row if row else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        per.append((p, r, f1, row))
    acc = sum(cm[c][c] for c in range(k)) / n
    pw = sum(p * s for p, _, _, s in per) / n
    rw = sum(r * s for _, r, _, s in per) / n
    fw = sum(f1 * s for _, _, f1, s in per) / n
    pm = sum(p for p, _, _, _ in per) / k
    rm = sum(r for _, r, _, _ in per) / k
    fm = 2 * pm * rm / (pm + rm) if pm + rm else 0.0
    return acc, pw, rw, fw, pm, rm, fm


def test_02_metric_oracle():
    rng = RandomSource(2).derive("metrics")
    worst = 0.0
    for trial in range(1000):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k, 201))
        true_labels = [int(v) for v in rng.integers(0, k, n)]
        if trial % 10 == 0:
            predicted = list(true_labels)
        elif trial % 17 == 0:
            predicted = [0] * n
        else:
            predicted = [int(v) for v in rng.integers(0, k, n)]
        rep = mt.report(true_labels, predicted, k)
        got = (rep.accuracy, rep.precision_weighted, rep.recall_weighted,
               rep.f1_weighted, rep.precision_macro, rep.recall_macro,
               rep.f1_macro)
        want = _oracle(true_labels, predicted, k)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    rep = mt.report([0, 0, 0, 1], [0, 0, 1, 1], 2)
    fixture_ok = (rep.accuracy == 0.75
                  and abs(rep.f1_weighted - 0.7666667) < 5e-6
                  and abs(rep.f1_macro - 0.7894737) < 5e-6)
    ok = worst < 1e-12 and fixture_ok
    _verdict(2, "metric oracle", ok,
             f"1000 random labelings, worst |delta| {worst:.2e}, "
             f"hand fixture acc {rep.accuracy:.2f}")


# ---------------------------------------------------------------- check 3

def test_03_causal_masking():
    rng = RandomSource(3).derive("causal")
    cfg = enc.EncoderConfig(d_model=8, n_heads=2, n_layers=1, vocab_size=32,
                            max_len=8, dropout=0.0, causal=True)
    params = enc.init_encoder(cfg, rng.derive("enc"))
    failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        ids = [int(v) for v in rng.integers(5, 32, n)]
        i = int(rng.integers(0, n - 1))
        perturbed = list(ids)
        for j in range(i + 1, n):
            perturbed[j] = int(rng.integers(5, 32))
        if perturbed == ids:
            perturbed[-1] = (perturbed[-1] - 5 + 1) % 27 + 5
        base = enc.encoder_forward(
            params, TokenSequence(ids, n)).data
        moved = enc.encoder_forward(
            params, TokenSequence(perturbed, n)).data
        if not np.array_equal(base[: i + 1], moved[: i + 1]):
            failures += 1
    _verdict(3, "causal masking", failures == 0,
             f"100 suffix perturbations, {failures} leaks")


# ---------------------------------------------------------------- check 4

def test_04_optimizer_suite():
    norms = {}
    for algo in OPTIMIZERS:
        theta = tt.Tensor(np.full(4, 0.5))  # unit-norm start
        opt = make_optimizer(OptimizerConfig(algorithm=algo, lr=0.01,
                                             weight_decay=0.0),
                             [("theta", theta)])
        for _ in range(500):
            theta.grad = theta.data.copy()  # gradient of 0.5*||theta||^2
            opt.step()
        norms[algo] = float(np.linalg.norm(theta.data))
    converged = all(v < 0.05 for v in norms.values())

    theta = tt.Tensor(np.array([0.7, -0.3]))
    start = theta.data.copy()
    opt = make_optimizer(OptimizerConfig(algorithm="adamw", lr=0.1,
                                         weight_decay=0.01),
                         [("theta", theta)])
    decay_ok = True
    for step in range(1, 101):
        theta.grad = np.zeros_like(theta.data)
        opt.step()
        expected = start * (1.0 - 0.1 * 0.01) ** step
        if np.max(np.abs(theta.data - expected)) > 1e-10:
            decay_ok = False
            break
    ok = converged and decay_ok
    detail = ", ".join(f"{a} |theta|={norms[a]:.4f}" for a in OPTIMIZERS)
    _verdict(4, "optimizer suite", ok,
             detail + f", decoupled decay exact={decay_ok}")


# ---------------------------------------------------------------- check 5

def _token_examples(samples, vocab, max_len):
    return [Example(label=s.label, tokens=encode(vocab, s.code, max_len))
            for s in samples]


def test_05_pipeline_overfit():
    samples = synth_corpus(2, 50, seed=11)
    vocab = train_bpe([s.code for s in samples], vocab_size=270)
    examples = _token_examples(samples, vocab, 24)
    # order is the only class signal: paired samples share token multisets
    pairs_identical = all(
        Counter(examples[i].tokens.input_ids[: examples[i].tokens.length])
        == Counter(examples[i + 1].tokens.input_ids[: examples[i + 1].tokens.length])
        for i in range(0, len(examples), 2))
    config = ModelConfig(
        encoder=enc.EncoderConfig(d_model=64, n_heads=4, n_layers=2,
                                  vocab_size=len(vocab), max_len=24,
                                  dropout=0.1),
        n_classes=2, rnn_variant="gru", hidden_units=32, d_rnn=32,
        dense_units=32, dropout=0.0)
    bundle = init_model(config, 0)
    start = time.perf_counter()
    train(bundle, examples, examples,
          TrainConfig(lr=1e-3, epochs=30, batch_size=1, optimizer="adamw",
                      seed=0, weight_decay=0.0))
    elapsed = time.perf_counter() - start
    acc = evaluate(bundle, examples, 2).accuracy
    ok = pairs_identical and acc >= 0.95 and elapsed < 120.0
    _verdict(5, "pipeline overfit", ok,
             f"train acc {acc:.3f} in <=30 epochs, {elapsed:.0f}s, "
             f"pairs token-identical={pairs_identical}")


# ---------------------------------------------------------------- check 6

def test_06_order_sensitivity_margin():
    splits = split(synth_corpus(2, 50, seed=11), seed=0)
    vocab = train_bpe([s.code for s in splits.train], vocab_size=270)
    train_ex = _token_examples(splits.train, vocab, 24)
    test_ex = _token_examples(splits.test, vocab, 24)

    def fit(seed: int, head_kind: str) -> float:
        config = ModelConfig(
            encoder=enc.EncoderConfig(d_model=64, n_heads=4, n_layers=0,
                                      vocab_size=len(vocab), max_len=24,
                                      dropout=0.0),
            n_classes=2, head_kind=head_kind, rnn_variant="gru",
            hidden_units=32, d_rnn=32, dense_units=32, dropout=0.0)
        bundle = init_model(config, seed)
        train(bundle, train_ex, test_ex,
              TrainConfig(lr=1e-3, epochs=30, batch_size=1,
                          optimizer="adamw", seed=seed, weight_decay=0.0))
        return evaluate(bundle, test_ex, 2).accuracy

    gru = [fit(seed, "rnn") for seed in range(5)]
    pooled = [fit(seed, "mean") for seed in range(5)]
    margin = float(np.mean(gru) - np.mean(pooled))
    _verdict(6, "order-sensitivity margin", margin >= 0.05,
             f"gru test {np.mean(gru):.3f} vs mean-pool {np.mean(pooled):.3f} "
             f"over 5 seeds, margin {margin:+.3f}")


# ---------------------------------------------------------------- check 7

class _FakeClock:
    """Deterministic stand-in for perf_counter."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.5
        return self.now


def test_07_training_determinism(tmp_path):
    data = tmp_path / "corpus.jsonl"
    cmd_synth(2, 12, seed=3, out=data)

    def run(out_name: str) -> tuple[bytes, bytes]:
        out_dir = tmp_path / out_name
        config = RunConfig(data=str(data), out_dir=str(out_dir),
                           schema="generic", lr=1e-2, epochs=2, batch_size=4,
                           optimizer="adamw", seed=5, rnn="gru",
                           hidden_units=4, d_rnn=4, dense_units=4,
                           dropout=0.1, max_len=16, d_model=8, n_heads=2,
                           n_layers=1, vocab_size=270)
        cmd_train(config, clock=_FakeClock())
        return ((out_dir / "results.csv").read_bytes(),
                (out_dir / "model.ckpt").read_bytes())

    results_a, ckpt_a = run("run_a")
    results_b, ckpt_b = run("run_b")
    ok = results_a == results_b and ckpt_a == ckpt_b
    _verdict(7, "training determinism", ok,
             f"results row bytes equal={results_a == results_b}, "
             f"checkpoint bytes equal={ckpt_a == ckpt_b}")


# ---------------------------------------------------------------- check 8

def test_08_split_arithmetic(tmp_path):
    path = tmp_path / "defects.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(25400):
            fh.write(json.dumps({"func": f"int f{i}(void) {{ return {i}; }}",
                                 "target": i % 2, "idx": i}) + "\n")
    loaded = load_jsonl(path, schema="defect")
    kept, removed = dedupe(loaded.samples)
    splits = split(kept, seed=0)
    sizes = (len(splits.train), len(splits.val), len(splits.test))
    ids = [s.source_id for s in splits.train + splits.val + splits.test]
    partition_ok = len(ids) == len(set(ids)) == 25400 and removed == 0
    ok = sizes == (20320, 2540, 2540) and partition_ok
    _verdict(8, "split arithmetic", ok,
             f"25,400 -> {sizes[0]}/{sizes[1]}/{sizes[2]}, "
             f"partition exact={partition_ok}")


# ---------------------------------------------------------------- check 9

def test_09_ngram_exactness():
    model = ng.fit([["a", "b", "a", "b"]], order=2)
    sure = ng.probability(model, ("a",), "b")
    model2 = ng.fit([["a", "b", "a", "c"]], order=2)
    even = ng.probability(model2, ("a",), "b")
    fixtures_ok = sure == Fraction(1) and even == Fraction(1, 2)

    deterministic = [["x", "y", "z"]] * 3
    zero_bits = ng.cross_entropy(ng.fit(deterministic, order=2), deterministic)

    mixed = [["a", "b", "b", "a"], ["b", "a", "c"], ["c", "c", "a", "b"]]
    sums_ok = True
    for order in (1, 2, 3):
        model3 = ng.fit(mixed, order=order)
        for context, by_token in model3.counts.items():
            total = sum((ng.probability(model3, context, token)
                         for token in by_token), Fraction(0))
            if total != Fraction(1):
                sums_ok = False
    ok = fixtures_ok and zero_bits == 0.0 and sums_ok
    _verdict(9, "n-gram exactness", ok,
             f"P(b|a) fixtures {sure}/{even}, deterministic corpus "
             f"{zero_bits} bits, context sums exact={sums_ok}")


# ---------------------------------------------------------------- check 10

def test_10_zero_parameter_fixed_points():
    rng = RandomSource(10).derive("fixed")
    all_zero = True
    for variant in ("lstm", "gru"):
        cell = hd.init_cell(variant, 3, 4, rng.derive(variant))
        for _, t in cell.named_parameters("z."):
            t.data = np.zeros_like(t.data)
        for trial in range(5):
            length = int(rng.integers(1, 7))
            seq = tt.Tensor(rng.uniform(-2.0, 2.0, (1, length, 3)))
            states = hd.rnn_forward(cell, seq, [length])
            if not np.all(states.data == 0.0):
                all_zero = False
    _verdict(10, "zero-parameter fixed points", all_zero,
             "lstm and gru map every input to the exact zero state")
