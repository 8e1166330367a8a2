"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py -q

They cover the input generator's determinism, every correctness check
failing on a perturbed output, loud failure when an expected span never
fires, the interaction table, and the refusal to run without the
program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 0
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("make", [
    lambda seed: gen.model_records(seed, "train", 40, workloads.FILLERS),
    lambda seed: gen.tokenize_lines(seed, 80, workloads.TOK_FILLERS,
                                    workloads.TOK_EVERY),
])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, make):
    blobs = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        path = tmp_path / f"{name}.jsonl"
        gen.write_jsonl(path, make(seed))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] != blobs[2]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict:
    """Seed-0 output of one repetition plus the check pass, per workload."""
    warnings.filterwarnings("ignore", message="skipped")
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        state = workload.setup(SEED, tmp_path_factory.mktemp(name))
        out[name] = {**workload.rep(state).obs, **workload.final(state)}
    return out


def _flip(hexdigest: str) -> str:
    return ("0" if hexdigest[0] != "0" else "1") + hexdigest[1:]


PERTURBATIONS = {
    "train-gru": {
        "train_loss": lambda v: v * (1 + 1e-6),
        "report": lambda v: [v[0] + 1 / 64] + v[1:],
        "pred_sha": _flip,
        "prob_sum": lambda v: v + 1e-6,
        "pred_report": lambda v: [v[0] - 1 / 64] + v[1:],
    },
    "eval-meanpool": {
        "report": lambda v: [v[0] + 1 / 256] + v[1:],
        "pred_sha": _flip,
        "prob_sum": lambda v: v * (1 + 1e-7),
        "mem_prob_sum": lambda v: v + 1e-3,
        "mem_pred_sha": _flip,
    },
    "tokenize": {
        "vocab_sha": _flip,
        "ids_sha": _flip,
        "reuse_ids_sha": _flip,
        "vocab_len": lambda v: v - 1,
        "roundtrip_failures": lambda v: v + 1,
    },
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_outputs_match_recorded_values(outputs, workload):
    recorded = EXPECTED[workload][str(SEED)]
    assert checks.check(workload, outputs[workload], recorded) == []
    assert set(recorded) == set(workloads.WORKLOADS[workload].record_keys)


@pytest.mark.parametrize("workload,key", [
    (w, k) for w, table in PERTURBATIONS.items() for k in table])
def test_each_check_fails_on_a_perturbed_output(outputs, workload, key):
    obs = dict(outputs[workload])
    obs[key] = PERTURBATIONS[workload][key](obs[key])
    assert checks.check(workload, obs, EXPECTED[workload][str(SEED)])


@pytest.mark.parametrize("key", checks.FLOAT_KEYS)
def test_non_finite_values_fail_without_a_recorded_value(key):
    assert checks.check("train-gru", {key: math.nan}, None)


def test_check_pass_fails_when_a_recorded_key_is_missing(outputs):
    class Silent:
        name = "tokenize"
        record_keys = workloads.Tokenize.record_keys

        def final(self, state):
            return {}

    rep = workloads.Rep(1.0, 1, 1.0, 1, {"vocab_sha": outputs["tokenize"]["vocab_sha"]}, 4)
    tally = {"attempted": 4, "failed": 0, "problems": []}
    run._final_check(Silent(), None, [(False, rep)], None, tally)
    assert tally["failed"] == 4
    assert any("ids_sha" in p for p in tally["problems"])


def test_missing_or_forbidden_span_raises():
    totals = {"bpe.fit": {"calls": 1}}
    spans.require(totals, ("bpe.fit",), ("encoder.forward",), "ok")
    with pytest.raises(spans.TraceError, match="bpe.encode"):
        spans.require(totals, ("bpe.fit", "bpe.encode"), (), "renamed")
    with pytest.raises(spans.TraceError, match="bpe.fit"):
        spans.require(totals, (), ("bpe.fit",), "forbidden")


def test_every_traced_name_exists_in_the_program():
    for owner, attr, _, _ in spans.TARGETS:
        assert callable(getattr(owner, attr)), (owner, attr)


def test_interaction_table_covers_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = json.loads((HERE / "interactions.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["per_layer"]]
    assert sorted(table["per_layer"]) == sorted(names)
    e2e = {m["name"] for m in bench["end_to_end"]}
    known = {w["name"] for w in bench["workloads"]}
    assert known == set(workloads.WORKLOADS)
    for entry in table["per_layer"].values():
        for target in entry["moves"]:
            metric, _, workload = target.partition("@")
            assert metric in e2e and workload in known, target
        assert set(entry["flat"]) <= known


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tokenize",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
