"""Seeded, benchmark-owned input generator.

Every line is a small C-like function body.  Each holds one allocation,
one ``free`` and one use of the same pointer among filler statements;
the label is ``bug`` when the use comes after the ``free`` and ``ok``
when it comes before.  Both classes draw from the same statement pool,
so only statement order separates them and a recurrent head has
something to learn that an order-blind one cannot.

Inputs depend on the seed alone, through ``random.Random(seed)``; the
program under test never sees the seed.  The same seed gives the same
bytes, another seed gives other bytes (``perfbench/test_bench.py``).
"""

from __future__ import annotations

import json
import random

_TYPES = ("int", "long", "size_t", "char", "unsigned")
_NAMES = (
    "buf", "len", "idx", "count", "total", "limit", "node", "next", "prev",
    "head", "tail", "size", "offset", "flags", "mode", "state", "key", "val",
)
_FUNCS = ("check", "update", "log_msg", "reset", "push", "pop", "hash",
          "copy_out", "lookup", "emit")
_POINTERS = ("p", "q", "ptr", "obj", "blk")


def _filler(rng: random.Random) -> str:
    a, b = rng.sample(_NAMES, 2)
    pick = rng.randrange(6)
    if pick == 0:
        return f"{a} = {b} + {rng.randrange(1, 64)};"
    if pick == 1:
        return f"if ({a} > {b}) {a} = {b};"
    if pick == 2:
        return f"{rng.choice(_FUNCS)}({a}, {b});"
    if pick == 3:
        return f"{a} += {b}[{rng.randrange(8)}];"
    if pick == 4:
        return f"while ({a} < {b}) {a}++;"
    return f"{rng.choice(_TYPES)} {a} = {rng.randrange(256)};"


def code_line(rng: random.Random, n_fillers: int, label: str) -> str:
    """One function of ``n_fillers`` filler statements plus alloc/use/free."""
    ptr = rng.choice(_POINTERS)
    body = [_filler(rng) for _ in range(n_fillers)]
    use = f"{rng.choice(_FUNCS)}({ptr}, {rng.choice(_NAMES)});"
    free = f"free({ptr});"
    # alloc first, then use/free in label order at random filler gaps
    i, j = sorted(rng.sample(range(n_fillers + 1), 2))
    first, second = (free, use) if label == "bug" else (use, free)
    body.insert(j, second)
    body.insert(i, first)
    body.insert(0, f"{ptr} = malloc({rng.choice(_NAMES)});")
    name = f"{rng.choice(_FUNCS)}_{rng.randrange(100)}"
    return f"{rng.choice(_TYPES)} {name}(char *{ptr}) {{ " + " ".join(body) + " }"


def _filler_count(i: int, fillers: tuple[int, int]) -> int:
    """Cycle through the range, so the total input size barely depends
    on the seed and run-to-run spread reflects the machine, not luck."""
    lo, hi = fillers
    return lo + i % (hi - lo + 1)


def model_records(seed: int, split: str, n: int,
                  fillers: tuple[int, int]) -> list[str]:
    """``n`` generic-schema JSONL lines for one split of a model workload.

    Labels alternate, so every split holds both classes equally.
    """
    rng = random.Random(f"{seed}:{split}")
    out = []
    for i in range(n):
        label = ("bug", "ok")[i % 2]
        code = code_line(rng, _filler_count(i, fillers), label)
        out.append(json.dumps({"code": code, "idx": f"{split}-{i}", "label": label},
                              sort_keys=True))
    return out


def tokenize_lines(seed: int, n: int, fillers: tuple[int, int],
                   every: int) -> list[str]:
    """JSONL text lines for the tokenize workload.

    In each block of ``every`` lines, one repeats an earlier sample with
    its whitespace changed, so ``dedupe`` drops it, and one is
    malformed, so ``load_jsonl`` skips it.  Their positions are fixed,
    so every seed yields the same number of samples.
    """
    rng = random.Random(f"{seed}:tokenize")
    lines: list[str] = []
    samples: list[tuple[str, str]] = []
    for i in range(n):
        slot = i % every
        if slot == every - 1:
            broken = rng.choice((
                '{"code": "int f() {", "label": ',
                json.dumps({"code": 7, "label": "ok"}),
                json.dumps({"text": "x = 1;", "label": "ok"}),
            ))
            lines.append(broken)
            continue
        if slot == every // 2 and samples:
            code, label = rng.choice(samples)
            code = code.replace(" ", "  ", 1).replace("; ", ";\t", 2)
        else:
            label = rng.choice(("bug", "ok"))
            code = code_line(rng, _filler_count(len(samples), fillers), label)
            samples.append((code, label))
        lines.append(json.dumps({"code": code, "idx": f"t-{i}", "label": label},
                                sort_keys=True))
    return lines


def write_jsonl(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
