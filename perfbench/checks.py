"""Correctness checks on what each workload's entry points returned.

An observation is a flat dict.  ``check`` compares it with a reference
(the value recorded for the seed in ``expected.json``, or the run's own
first repetition) and with the invariants that hold for every seed.  It
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math

# Losses and probability sums may drift by float64 rounding when a
# change reorders arithmetic; everything else (labels, reports, hashes)
# must match exactly.
REL_TOL = 1e-9
FLOAT_KEYS = ("train_loss", "prob_sum")


def digest(values) -> str:
    """sha256 over a canonical JSON rendering of ``values``."""
    blob = json.dumps(values, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _invariants(workload: str, obs: dict) -> list[str]:
    problems = []
    for key in FLOAT_KEYS:
        if key in obs and not math.isfinite(obs[key]):
            problems.append(f"{key} is not finite: {obs[key]}")
    if "pred_report" in obs and "report" in obs and obs["pred_report"] != obs["report"]:
        problems.append("evaluate's report disagrees with the predicted labels")
    if workload == "eval-meanpool" and "mem_pred_sha" in obs and (
            obs["mem_pred_sha"], obs["mem_prob_sum"]) != (
            obs.get("pred_sha"), obs.get("prob_sum")):
        problems.append("loaded checkpoint predicts differently from the saved model")
    if workload == "tokenize":
        if obs.get("vocab_len") != obs.get("vocab_target"):
            problems.append(
                f"vocabulary has {obs.get('vocab_len')} tokens, "
                f"asked for {obs.get('vocab_target')}")
        if obs.get("roundtrip_failures", 0):
            problems.append(
                f"{obs['roundtrip_failures']} line(s) do not decode back to their code")
        if "reuse_ids_sha" in obs and obs["reuse_ids_sha"] != obs.get("ids_sha"):
            problems.append("encoding with the fitted vocabulary gives other ids")
    return problems


def check(workload: str, obs: dict, ref: dict | None) -> list[str]:
    """Problems found in ``obs``; keys present in both are compared."""
    problems = _invariants(workload, obs)
    for key in sorted(set(obs) & set(ref or {})):
        want, got = ref[key], obs[key]
        if key in FLOAT_KEYS:
            if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
                problems.append(f"{key} {got!r} differs from recorded {want!r}")
        elif got != want:
            problems.append(f"{key} {got!r} differs from recorded {want!r}")
    return problems
