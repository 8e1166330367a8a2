"""Dataset ingestion, deduplication, deterministic splitting, synthesis.

Two JSONL schemas are accepted: the defect-detection shape
(func/target/idx, target 0 or 1) and a generic shape (code/label with
string or integer labels, mapped to dense indices in sorted order).
Malformed lines are skipped and counted, never fatal unless nothing
parses; a file that is not UTF-8 is a ``DataError``.  Splitting is
stratified 80/10/10 by label with a seeded shuffle; classes with fewer
than 3 samples go wholly to train.  The synthetic corpus generator
produces an order-sensitive class pair: paired samples share the exact
same token multiset and differ only in marker order, so order-blind
models cannot separate them.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

from .errors import DataError, ParameterError
from .rng import RandomSource


def normalize_code(code: str) -> str:
    """Whitespace-insensitive comparison key: collapse runs, strip ends.

    Whitespace is what ``str.isspace`` accepts, the same code points as
    the regex class ``\\s``."""
    return " ".join(code.split())


@dataclass(frozen=True)
class LabeledSample:
    code: str
    label: int
    source_id: str


@dataclass
class LoadedData:
    samples: list[LabeledSample]
    label_map: dict[str, int]
    skipped: int


@dataclass
class DatasetSplits:
    train: list[LabeledSample]
    val: list[LabeledSample]
    test: list[LabeledSample]
    label_map: dict[str, int]


def _parse_defect(record: dict):
    code = record["func"]
    target = record["target"]
    if not isinstance(code, str) or not isinstance(target, int) or isinstance(target, bool):
        raise ValueError("bad field types")
    if target not in (0, 1):
        raise ValueError("target outside {0, 1}")
    return code, target, record.get("idx")


def _parse_generic(record: dict):
    code = record["code"]
    label = record["label"]
    if not isinstance(code, str):
        raise ValueError("bad code type")
    if isinstance(label, bool) or not isinstance(label, (str, int)):
        raise ValueError("bad label type")
    return code, label, record.get("idx", record.get("id"))


_PARSERS = {"defect": _parse_defect, "generic": _parse_generic}


def load_jsonl(path, schema: str) -> LoadedData:
    """Parse one JSON record per line; skip and count malformed lines."""
    if schema not in _PARSERS:
        raise ParameterError(f"unknown schema {schema!r}")
    parser = _PARSERS[schema]
    rows = []
    skipped = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    code, raw_label, source_id = parser(record)
                    if not normalize_code(code):
                        raise ValueError("empty code")
                except (ValueError, KeyError, TypeError):
                    skipped += 1
                    continue
                if source_id is None:
                    source_id = f"line-{line_no}"
                rows.append((code, raw_label, str(source_id)))
    except UnicodeDecodeError as exc:
        raise DataError(f"data file {path} is not UTF-8: {exc}") from exc
    if not rows:
        raise DataError(f"no parseable records in {path}")
    if skipped:
        warnings.warn(f"skipped {skipped} malformed line(s) in {path}")
    # integer labels sort numerically so "10" lands after "2"; a mix of
    # types sorts the distinct string forms, so 1 and "1" are one class
    raw_labels = {r[1] for r in rows}
    if all(isinstance(v, int) for v in raw_labels):
        ordered = sorted(raw_labels)
    else:
        ordered = sorted({str(v) for v in raw_labels})
    label_map = {str(v): i for i, v in enumerate(ordered)}
    samples = [LabeledSample(code=code, label=label_map[str(raw)], source_id=sid)
               for code, raw, sid in rows]
    return LoadedData(samples=samples, label_map=label_map, skipped=skipped)


def dedupe(samples) -> tuple[list[LabeledSample], int]:
    """Drop later samples whose normalized code was already seen."""
    seen: set[str] = set()
    kept = []
    for sample in samples:
        key = normalize_code(sample.code)
        if key in seen:
            continue
        seen.add(key)
        kept.append(sample)
    return kept, len(samples) - len(kept)


def _quota(counts: list[int], total_target: int) -> list[int]:
    """Largest-remainder apportionment of total_target over the counts."""
    pool = sum(counts)
    if pool == 0 or total_target <= 0:
        return [0] * len(counts)
    exact = [total_target * c / pool for c in counts]
    floors = [int(e) for e in exact]
    remainder = total_target - sum(floors)
    order = sorted(range(len(counts)), key=lambda i: (floors[i] - exact[i], i))
    for i in order[:remainder]:
        floors[i] += 1
    return floors


def split(samples, seed: int, label_map: dict[str, int] | None = None) -> DatasetSplits:
    """Seeded, stratified 80/10/10 split; small classes go wholly to train."""
    samples = list(samples)
    if len(samples) < 10:
        raise DataError(f"need >= 10 samples to split, got {len(samples)}")
    labels = {s.label for s in samples}
    if len(labels) < 2:
        raise DataError("need >= 2 classes to split")
    if label_map is None:
        label_map = {str(lbl): lbl for lbl in sorted(labels)}
    shuffled = RandomSource(seed).derive("split").shuffle(samples)
    by_class: dict[int, list[LabeledSample]] = {}
    for sample in shuffled:
        by_class.setdefault(sample.label, []).append(sample)

    small = sorted(lbl for lbl, rows in by_class.items() if len(rows) < 3)
    if small:
        warnings.warn(
            f"classes {small} have < 3 samples and go wholly to train")
    eligible = sorted(lbl for lbl in by_class if lbl not in small)
    counts = [len(by_class[lbl]) for lbl in eligible]
    n = len(samples)
    val_quota = _quota(counts, round(0.1 * n))
    # leave room so at least one sample per class stays in train
    val_quota = [min(q, c - 1) for q, c in zip(val_quota, counts)]
    left = [c - q for c, q in zip(counts, val_quota)]
    test_quota = _quota(counts, round(0.1 * n))
    test_quota = [min(q, m - 1) for q, m in zip(test_quota, left)]

    train: list[LabeledSample] = [s for lbl in small for s in by_class[lbl]]
    val: list[LabeledSample] = []
    test: list[LabeledSample] = []
    for lbl, n_val, n_test in zip(eligible, val_quota, test_quota):
        rows = by_class[lbl]
        val.extend(rows[:n_val])
        test.extend(rows[n_val:n_val + n_test])
        train.extend(rows[n_val + n_test:])
    return DatasetSplits(train=train, val=val, test=test,
                         label_map=dict(label_map))


_FILLERS = (
    "load", "store", "index", "count", "buffer", "size", "next", "prev",
    "copy", "swap", "node", "left", "right", "total", "limit", "check",
)


def synth_corpus(n_classes: int, per_class: int, seed: int) -> list[LabeledSample]:
    """Marker-order classes over a fixed four-word frame.

    Each draw picks two filler words and emits one sample per class:
    class 0 reads ``lead alpha mid omega``, class 1 swaps the markers,
    so paired samples share the exact word multiset and differ only in
    marker order.  Leading with a filler keeps the markers away from
    the string boundary, and markers are never adjacent, so a pair
    tokenizer trained on the corpus keeps the pairs token-identical as
    well.  Extra classes get their own repeated marker token in the
    same frame."""
    if n_classes < 2:
        raise ParameterError(f"need >= 2 classes, got {n_classes}")
    if per_class < 1:
        raise ParameterError(f"need >= 1 sample per class, got {per_class}")
    rng = RandomSource(seed).derive("synth")
    samples = []
    for i in range(per_class):
        lead, mid = (_FILLERS[int(j)] for j in rng.integers(0, len(_FILLERS), 2))
        for label, (m1, m2) in ((0, ("alpha", "omega")), (1, ("omega", "alpha"))):
            samples.append(LabeledSample(
                code=" ".join((lead, m1, mid, m2)), label=label,
                source_id=f"synth-{label}-{i}"))
    for label in range(2, n_classes):
        marker = f"gamma{label}"
        for i in range(per_class):
            lead, mid = (_FILLERS[int(j)] for j in rng.integers(0, len(_FILLERS), 2))
            samples.append(LabeledSample(
                code=" ".join((lead, marker, mid, marker)), label=label,
                source_id=f"synth-{label}-{i}"))
    return samples


def write_manifest(path, splits: DatasetSplits) -> None:
    payload = {
        "label_map": splits.label_map,
        "train": [s.source_id for s in splits.train],
        "val": [s.source_id for s in splits.val],
        "test": [s.source_id for s in splits.test],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=0)
        fh.write("\n")
