#!/usr/bin/env python3
"""seqcls benchmark: seeded workloads through the program's entry points.

    python3 perfbench/run.py --workload train-gru --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Set-up (generate inputs, fit the
set-up vocabulary, encode, initialise or save the model) runs several
times, before and between the timed repetitions, and its median is
``setup_s``.  The timed phase then repeats the
workload's entry-point calls for ``--seconds`` and reports the fastest
repetition's throughput (see ``_end_to_end``).  Every
repetition's output is checked against the values recorded for the seed
in ``expected.json`` (or, for an unrecorded seed, against the first
repetition), and a check pass after the timed loop compares per-sample
predictions or decoded ids.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced repetitions: wrappers from ``spans.py`` record spans
around each layer's public functions, the per-layer metrics come from
the traced repetitions, and the difference between the fastest of each
kind is the tracing overhead.  Spans are written to ``.perfbench/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment, the bases of every ratio and the spread.
"""

from __future__ import annotations

import os

# single-threaded BLAS, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-ups run in batches: one before the timed phase and the rest spread
# through it, so their median sees the same machine phases as the timed
# repetitions.  A batch repeats a cheap set-up until it has taken
# SLOT_BUDGET_S (at most MAX_PER_SLOT times).
SETUP_SLOTS, SLOT_BUDGET_S, MAX_PER_SLOT = 5, 0.2, 40
# at least two traced and one untraced repetition in a traced run
MIN_REPS = 3


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "seqcls" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no seqcls sources under {src}; "
                         "run from the root of a full checkout")
    sys.path[:0] = [str(src), str(HERE)]


def _environment(args) -> dict:
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **{var: os.environ[var] for var in
           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _recorded(workload: str, seed: int) -> dict | None:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _summary(values) -> dict:
    values = sorted(values)
    return {"median": statistics.median(values), "min": values[0],
            "max": values[-1], "n": len(values)}


@dataclass
class SetUps:
    """Runs and times the workload's set-up; the last state is kept."""

    workload: object
    seed: int
    work_root: Path
    tracer: object
    times: list = field(default_factory=list)

    def batch(self):
        first, spent, state = len(self.times), 0.0, None
        while len(self.times) == first or (spent < SLOT_BUDGET_S and
                                           len(self.times) - first < MAX_PER_SLOT):
            work = self.work_root / f"setup{len(self.times)}"
            work.mkdir()
            if self.tracer is not None:
                self.tracer.run_id = f"setup{len(self.times)}"
                self.tracer.install()
            try:
                start = time.perf_counter()
                state = self.workload.setup(self.seed, work)
                self.times.append(time.perf_counter() - start)
            finally:
                if self.tracer is not None:
                    self.tracer.uninstall()
            spent += self.times[-1]
        return state


def _timed(workload, state, seconds: float, tracer, recorded, tally, setups):
    """Repeat the workload for ``seconds`` of timed work, running the
    remaining set-up batches in between; returns [(traced, Rep)]."""
    import checks
    reps = []
    slot, paused = 1, 0.0
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - paused

    while len(reps) < MIN_REPS or elapsed() < seconds:
        traced = tracer is not None and len(reps) % 2 == 0
        if traced:
            tracer.run_id = f"rep{len(reps)}"
            tracer.install()
        try:
            rep = workload.rep(state)
        except Exception:  # a failing entry point is a failed operation
            traceback.print_exc()
            tally["attempted"] += 1
            tally["failed"] += 1
            tally["problems"].append(f"rep {len(reps)} raised")
            break
        finally:
            if tracer is not None:
                tracer.uninstall()
        base = recorded if not reps else {**reps[0][1].obs, **(recorded or {})}
        found = checks.check(workload.name, rep.obs, base)
        tally["attempted"] += rep.ops
        if found:
            tally["failed"] += rep.ops
            tally["problems"].extend(f"rep {len(reps)}: {p}" for p in found)
        reps.append((traced, rep))
        if slot < SETUP_SLOTS and elapsed() >= slot * seconds / SETUP_SLOTS:
            pause = time.perf_counter()
            setups.batch()
            paused += time.perf_counter() - pause
            slot += 1
    for _ in range(slot, SETUP_SLOTS):
        setups.batch()
    return reps


def _final_check(workload, state, reps, recorded, tally) -> None:
    """Per-sample check after the timed loop; a failure fails every op."""
    import checks
    try:
        obs = {**reps[0][1].obs, **workload.final(state)}
        found = checks.check(workload.name, obs, recorded)
        found += [f"output lacks recorded key {key!r}"
                  for key in workload.record_keys if key not in obs]
    except Exception:
        traceback.print_exc()
        found = ["check pass raised"]
    if found:
        tally["failed"] = tally["attempted"]
        tally["problems"].extend(f"check pass: {p}" for p in found)


def _end_to_end(reps, setup_times) -> dict:
    """Throughput of the best repetition; set-up time as a median.

    Other tenants of a shared machine slow it down in phases that last
    seconds, which moves a run's median by 10-30%; they never make code
    faster, so the fastest repetition is the run's steadiest figure.
    The info line keeps the median and spread beside it.
    """
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_s": (max(r.main_n / r.main_s for _, r in reps), "samples/s"),
        "apply_samples_per_s": (max(r.apply_n / r.apply_s for _, r in reps),
                                "samples/s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }


def _aliases(name: str, e2e: dict, reps) -> dict:
    """The same figures under their per-workload names (see README)."""
    if name == "train-gru":
        return {"train_samples_per_s": e2e["samples_per_s"][0],
                "eval_samples_per_s": e2e["apply_samples_per_s"][0]}
    if name == "eval-meanpool":
        return {"eval_samples_per_s": e2e["samples_per_s"][0]}
    return {"prepare_s": min(r.main_s for _, r in reps)}


def _per_layer(workload, tracer, reps, n_setups: int) -> tuple[dict, dict]:
    import spans
    traced = [(i, r) for i, (t, r) in enumerate(reps) if t]
    untraced = [r for t, r in reps if not t]
    timed = tracer.totals(f"rep{i}" for i, _ in traced)
    setup = tracer.totals(f"setup{i}" for i in range(n_setups))
    spans.require(timed, workload.expected_spans, workload.forbidden_spans,
                  f"{workload.name} timed phase")
    spans.require(setup, workload.setup_spans, (), f"{workload.name} set-up")
    n = len(traced)
    train_samples = (sum(r.main_n for _, r in traced)
                     if workload.name == "train-gru" else 0)

    def get(table, span, key):
        return table.get(span, {}).get(key, 0)

    def per_rep(span, key="self_s"):
        return get(timed, span, key) / n

    def per_call(span):
        calls = get(timed, span, "calls")
        return get(timed, span, "count") / calls if calls else 0.0

    overhead = (min(r.main_s for _, r in traced)
                - min(r.main_s for r in untraced))
    metrics = {
        "tensor.tape_records_per_sample": (
            get(timed, "tensor.backward", "count") / train_samples
            if train_samples else 0.0, "count"),
        "tensor.backward_s": (per_rep("tensor.backward"), "s"),
        "tensor.backward_calls": (per_rep("tensor.backward", "calls"), "count"),
        "heads.scan_s": (per_rep("heads.scan"), "s"),
        "heads.scan_calls": (per_rep("heads.scan", "calls"), "count"),
        "heads.mean_pool_s": (per_rep("heads.mean_pool"), "s"),
        "heads.classify_s": (per_rep("heads.classify"), "s"),
        "heads.loss_s": (per_rep("heads.loss"), "s"),
        "encoder.forward_s": (per_rep("encoder.forward"), "s"),
        "encoder.forward_calls": (per_rep("encoder.forward", "calls"), "count"),
        "model.forward_self_s": (per_rep("model.forward"), "s"),
        "model.forward_calls": (per_rep("model.forward", "calls"), "count"),
        "model.load_checkpoint_s": (per_rep("model.load_checkpoint"), "s"),
        "optim.step_s": (per_rep("optim.step"), "s"),
        "optim.step_calls": (per_rep("optim.step", "calls"), "count"),
        "optim.train_self_s": (per_rep("optim.train"), "s"),
        "optim.evaluate_self_s": (per_rep("optim.evaluate"), "s"),
        "metrics.report_s": (per_rep("metrics.report"), "s"),
        "bpe.fit_s": (per_rep("bpe.fit"), "s"),
        "bpe.merges": (per_call("bpe.fit"), "count"),
        "bpe.setup_fit_s": (get(setup, "bpe.fit", "self_s") / n_setups, "s"),
        "bpe.encode_s": (per_rep("bpe.encode"), "s"),
        "bpe.encode_calls": (per_rep("bpe.encode", "calls"), "count"),
        "bpe.tokens_per_line": (per_call("bpe.encode"), "count"),
        "data.load_s": (per_rep("data.load"), "s"),
        "data.dedupe_s": (per_rep("data.dedupe"), "s"),
        "data.split_s": (per_rep("data.split"), "s"),
        "data.lines_skipped": (per_call("data.load"), "count"),
        "data.duplicates_dropped": (per_call("data.dedupe"), "count"),
        "trace.overhead_s": (overhead, "s"),
        "trace.reps": (n, "count"),
    }
    bases = {"traced_reps": n, "untraced_reps": len(untraced),
             "setups": n_setups, "train_samples": train_samples,
             "tape_records": get(timed, "tensor.backward", "count"),
             "traced_main_s": _summary(r.main_s for _, r in traced),
             "untraced_main_s": _summary(r.main_s for r in untraced)}
    return metrics, bases


def run(args) -> int:
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    recorded = _recorded(workload.name, args.seed)
    tracer = spans.Tracer() if args.trace else None
    tally = {"attempted": 0, "failed": 0, "problems": []}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir))
    setups = SetUps(workload, args.seed, work_root, tracer)
    try:
        state = setups.batch()
        reps = _timed(workload, state, args.seconds, tracer, recorded, tally,
                      setups)
        if not reps:
            print("perfbench: no repetition completed", file=sys.stderr)
            return 1
        _final_check(workload, state, reps, recorded, tally)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    setup_times = setups.times

    env = _environment(args)
    info = {"env": env, "recorded_seed": recorded is not None,
            "problems": tally["problems"],
            "setup_s": _summary(setup_times),
            "main_s": _summary(r.main_s for _, r in reps),
            "apply_s": _summary(r.apply_s for _, r in reps),
            "bases": {"reps": len(reps), "setups": len(setup_times),
                      "main_samples_per_rep": reps[0][1].main_n,
                      "apply_samples_per_rep": reps[0][1].apply_n}}
    if args.trace:
        metrics, bases = _per_layer(workload, tracer, reps, len(setup_times))
        info["trace_bases"] = bases
        tracer.write(out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl", env)
    else:
        metrics = _end_to_end(reps, setup_times)
        info["aliases"] = _aliases(workload.name, metrics, reps)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not tally["problems"] and tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-gru", "eval-meanpool", "tokenize"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    # malformed lines in the tokenize corpus are deliberate
    warnings.filterwarnings("ignore", message="skipped")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
