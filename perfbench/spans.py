"""Span recorder for the traced run.

Wrappers are installed from the benchmark's own files around the name
each caller actually looks up (``seqcls.optim.forward_example``, because
``optim`` imports it by name, ``seqcls.model.encoder_forward``, and so
on), so the program itself carries no tracing code.  Each span keeps its
name, start, end, parent span and workload-run id; a layer's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field

from seqcls import bpe, cli, heads, metrics, model, optim, tensor


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    count: int | None = None


# (owner, attribute, span name, count from the call's arguments and result)
TARGETS = (
    (tensor.Tape, "backward", "tensor.backward", lambda a, r: len(a[0])),
    (heads, "rnn_forward", "heads.scan", None),
    (heads, "birnn_forward", "heads.scan", None),
    (heads, "mean_pool_forward", "heads.mean_pool", None),
    (heads, "classify", "heads.classify", None),
    (heads, "cross_entropy_loss", "heads.loss", None),
    (optim, "average_losses", "heads.loss", None),
    (model, "encoder_forward", "encoder.forward", None),
    (optim, "forward_example", "model.forward", None),
    (model, "load_checkpoint", "model.load_checkpoint", None),
    (optim.Optimizer, "step", "optim.step", None),
    (optim, "train", "optim.train", None),
    (optim, "evaluate", "optim.evaluate", None),
    (metrics, "report", "metrics.report", None),
    (cli, "train_bpe", "bpe.fit", lambda a, r: len(r.merges)),
    (bpe, "train_bpe", "bpe.fit", lambda a, r: len(r.merges)),
    (cli, "encode", "bpe.encode", lambda a, r: r.length),
    (cli, "load_jsonl", "data.load", lambda a, r: r.skipped),
    (cli, "dedupe", "data.dedupe", lambda a, r: r[1]),
    (cli, "split", "data.split", None),
)


class TraceError(RuntimeError):
    """An expected span never fired, or a forbidden one did."""


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    run_id: str = ""
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.count = counter(args, result)
            return result
        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self, run_ids) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and summed counts over runs."""
        run_ids = set(run_ids)
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            if span.run_id not in run_ids:
                continue
            entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "count": 0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["count"] += span.count or 0
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


def require(totals: dict, expected, forbidden, phase: str) -> None:
    """Raise if an expected span is missing or a forbidden one fired."""
    missing = sorted(set(expected) - set(totals))
    fired = sorted(set(forbidden) & set(totals))
    if missing or fired:
        raise TraceError(
            f"{phase}: expected spans never fired: {missing}; "
            f"spans that must not fire did: {fired}")
