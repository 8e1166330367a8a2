"""Byte-pair-encoding tokenizer: training, encoding, decoding, vocab files.

The initial alphabet is byte-level: every input byte b maps to the
private symbol chr(0x100 + b), so any string is representable, symbols
never collide with the reserved token names, and vocabulary files stay
free of embedded tabs/newlines.  Loading a vocabulary file rejects any
other token or merge part.

Training merges greedily by pair frequency; equal frequencies break ties
by lexicographic order of the pair, which makes training fully
deterministic for a fixed corpus order.  Each merge replaces the pair
left to right without overlap (``aaaa`` becomes ``aa aa``).  The pair
statistics are kept incrementally, as in Sennrich, Haddow & Birch,
"Neural Machine Translation of Rare Words with Subword Units" (2016):
the corpus is one doubly linked symbol list with a separator between
lines, one index counts every adjacent pair (overlapping ones included)
and another lists the positions where each pair occurs, so a merge
visits only its own positions and adjusts the counts of the pairs
around them.  The best pair comes from a lazy max-heap keyed
``(-count, pair)``, which keeps the tie-break above.

Encoding merges in rounds: each round merges every occurrence of the
adjacent pair whose merge comes first in the merge list, left to right,
then looks again.  It runs on integer symbol ids, not strings: each
vocabulary numbers its tokens, then any byte symbol, merge part or merge
result that the token table lacks, and keeps one table from the pair key
``left_id * stride + right_id`` to the pair's rank (a repeated merge
takes its last rank) and the ``(left, right, joined)`` ids of each rank.
The text's UTF-8 bytes map straight to symbol ids.  A heap keyed
``rank * length + position`` over a linked symbol list finds each
round's pair without rescanning the text, and a pair a round creates
that ranks at or before it enters the heap only after it, so the rounds
stay exact even for a merge list that is not in training order.  Every
symbol id below the vocabulary size is its token id, and every other one
(a byte symbol, merge part or merge result the token table lacks)
encodes as UNK, so ``to_sequence`` only truncates and pads.

The fit ends with every corpus line merged into its final tokens, and
hands their ids back on request (``segments=``), so a caller
that fits on a corpus need not encode it again.  It is what ``encode``
gives each line under the trained merge list: every merge creates a
token that did not exist before, so no pair merged earlier forms again,
and encoding's rank-ordered rounds replay the fit's merges one by one.

Vocabulary file format (UTF-8 text, bit-exact round trip):
  line 1            version tag
  token<TAB>id      one per token, ascending id
  #merges           sentinel
  left<SPACE>right  one merge per line, in priority order
"""

from __future__ import annotations

import heapq
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial

from .errors import DataError, ParameterError

PAD, UNK, MASK, BOS, EOS = "<pad>", "<unk>", "<mask>", "<bos>", "<eos>"
RESERVED = (PAD, UNK, MASK, BOS, EOS)
PAD_ID, UNK_ID, MASK_ID, BOS_ID, EOS_ID = range(5)
MIN_FREQUENCY = 2  # a pair seen fewer times is never merged

_BYTE_OFFSET = 0x100
# built once: CPython caches no one-character strings at or above U+0100
_BYTE_SYMBOLS = tuple(chr(_BYTE_OFFSET + b) for b in range(256))
_BYTE_ALPHABET = frozenset(_BYTE_SYMBOLS)
_FILE_VERSION = "seqcls-bpe-v1"


def _to_symbols(text: str) -> list[str]:
    return [_BYTE_SYMBOLS[b] for b in text.encode("utf-8")]


def _from_token(token: str) -> bytes:
    return bytes(ord(ch) - _BYTE_OFFSET for ch in token)


@dataclass
class TokenSequence:
    """One encoded sample: ids padded to max_len, and the count of real
    (non-PAD) tokens at the front."""

    input_ids: list[int]
    length: int


@dataclass
class BpeVocabulary:
    """Token table plus ordered merge list (priority = position)."""

    token_to_id: dict[str, int]
    merges: list[tuple[str, str]]
    id_to_token: list[str] = field(init=False)
    # encoding's integer tables: the symbol id count (the token ids, then
    # any byte symbol, merge part or merge result the token table lacks);
    # the symbol id of each byte; pair key -> rank; the (left, right,
    # joined) symbol ids of each rank
    _stride: int = field(init=False, repr=False)
    _byte_ids: tuple[int, ...] = field(init=False, repr=False)
    _pair_ranks: dict[int, int] = field(init=False, repr=False)
    _rules: list[tuple[int, int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.id_to_token = [""] * len(self.token_to_id)
        for tok, i in self.token_to_id.items():
            self.id_to_token[i] = tok
        ids = dict(self.token_to_id)

        def symbol_id(symbol: str) -> int:
            return ids.setdefault(symbol, len(ids))

        self._byte_ids = tuple(map(symbol_id, _BYTE_SYMBOLS))
        self._rules = [(symbol_id(left), symbol_id(right),
                        symbol_id(left + right)) for left, right in self.merges]
        stride = self._stride = len(ids)
        # a later rank overwrites an earlier one for a repeated pair
        self._pair_ranks = {left * stride + right: rank
                            for rank, (left, right, _) in enumerate(self._rules)}

    def __len__(self) -> int:
        return len(self.token_to_id)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BpeVocabulary)
                and self.token_to_id == other.token_to_id
                and self.merges == other.merges)


def _base_vocabulary() -> dict[str, int]:
    vocab = {tok: i for i, tok in enumerate(RESERVED)}
    for symbol in _BYTE_SYMBOLS:
        vocab[symbol] = len(vocab)
    return vocab


def _forget(counts: dict, where: dict, pair: tuple[str, str]) -> None:
    """Drop one occurrence of ``pair``; a pair that no longer occurs leaves
    both indexes, since every position left in ``where`` is stale."""
    count = counts[pair] - 1
    if count:
        counts[pair] = count
    else:
        del counts[pair]
        where.pop(pair, None)


def _pop_best(heap: list, counts: dict[tuple[str, str], int]):
    """Pop the pair with the highest count, ties to the smallest pair.

    ``heap`` holds ``(-count, pair)`` entries that may be stale.  Every
    pair still in ``counts`` has an entry whose count is at least its
    current one, so a stale entry whose pair has since dropped is pushed
    back at its current count.  Returns ``(None, 0)`` when no pair is left.
    """
    while heap:
        neg, pair = heapq.heappop(heap)
        count = counts.get(pair, 0)
        if count == -neg:
            return pair, count
        if 0 < count < -neg:
            heapq.heappush(heap, (-count, pair))
    return None, 0


def train_bpe(corpus, vocab_size: int, min_frequency: int = MIN_FREQUENCY,
              *, segments: list | None = None) -> BpeVocabulary:
    """Learn merges greedily by highest pair frequency.

    Stops when the vocabulary reaches ``vocab_size`` or no pair occurs
    at least ``min_frequency`` times.  ``corpus`` is any iterable of
    strings.  Given a list as ``segments``, appends each corpus line's
    final token ids to it, in corpus order: what ``encode`` gives that
    line under the returned vocabulary, before truncation and padding.
    """
    base = _base_vocabulary()
    if vocab_size <= len(base):
        raise ParameterError(
            f"vocab_size must exceed the {len(base)}-token base alphabet, "
            f"got {vocab_size}"
        )
    if min_frequency < 1:
        raise ParameterError(f"min_frequency must be >= 1, got {min_frequency}")

    # One flat symbol list: None before, between and after the lines, and
    # in every slot a merge has emptied.  counts[pair] is the number of
    # adjacent occurrences, overlapping ones included; where[pair] lists
    # every position at which the pair has occurred, stale ones included.
    # Positions live in arrays: a list would hold an int object for each.
    symbols: list[str | None] = [None]
    counts: dict[tuple[str, str], int] = {}
    where: dict[tuple[str, str], array] = defaultdict(partial(array, "l"))
    for text in corpus:
        line = _to_symbols(text)
        for i, pair in enumerate(zip(line, line[1:]), len(symbols)):
            counts[pair] = counts.get(pair, 0) + 1
            where[pair].append(i)
        symbols.extend(line)
        symbols.append(None)
    if len(symbols) == 1:
        raise DataError("empty corpus")
    nxt = array("l", range(1, len(symbols) + 1))
    prv = array("l", range(-1, len(symbols) - 1))
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)

    vocab = dict(base)
    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size:
        pair, count = _pop_best(heap, counts)
        if count < min_frequency:  # count 0: no pair is left
            break
        left, right = pair
        joined = left + right
        merges.append(pair)
        vocab[joined] = len(vocab)
        born: set[tuple[str, str]] = set()
        # ascending positions merge left to right without overlap: aaaa -> aa aa
        for i in sorted(where.pop(pair)):
            if symbols[i] != left:
                continue
            j = nxt[i]
            if symbols[j] != right:
                continue
            before, after = prv[i], nxt[j]
            _forget(counts, where, pair)
            if symbols[before] is not None:
                _forget(counts, where, (symbols[before], left))
                new = (symbols[before], joined)
                counts[new] = counts.get(new, 0) + 1
                where[new].append(before)
                born.add(new)
            if symbols[after] is not None:
                _forget(counts, where, (right, symbols[after]))
                new = (joined, symbols[after])
                counts[new] = counts.get(new, 0) + 1
                where[new].append(i)
                born.add(new)
            symbols[i], symbols[j] = joined, None
            nxt[i], prv[after] = after, i
        for new in born:
            if new in counts:
                heapq.heappush(heap, (-counts[new], new))
    if segments is not None:
        # walk the live slots only; each separator closes one line
        tokens: list[int] = []
        i = nxt[0]
        while i < len(symbols):
            symbol = symbols[i]
            if symbol is None:
                segments.append(tokens)
                tokens = []
            else:
                tokens.append(vocab[symbol])
            i = nxt[i]
    return BpeVocabulary(vocab, merges)


def _apply_merges(vocab: BpeVocabulary, text: str) -> list[int]:
    """Split ``text`` into its token ids: merge in rounds, each round
    merging every occurrence of the adjacent pair with the lowest rank,
    left to right without overlap.  A symbol the token table lacks is UNK."""
    rank_of, rules = vocab._pair_ranks.get, vocab._rules
    stride = vocab._stride
    ids = [vocab._byte_ids[b] for b in text.encode("utf-8")]
    # at both ends and in every slot a merge has emptied; any pair key it
    # is part of is negative, so no rank matches it
    empty = -stride * stride
    seq = [empty, *ids, empty]
    size = len(seq)
    nxt = list(range(1, size + 1))
    prv = list(range(-1, size - 1))
    # key rank * size + position: pops rank by rank, each left to right
    heap = [rank * size + i
            for i, key in enumerate(map(stride.__mul__, ids), 1)
            if (rank := rank_of(key + seq[i + 1])) is not None]
    heapq.heapify(heap)
    # pairs a round creates that rank at or before it (only a hand-edited
    # merge list has them) wait for the round to end; the others enter the
    # heap at once, above every key the round pops, and a pop that finds
    # its pair changed since skips it
    late: list[int] = []
    while heap:
        rank = heap[0] // size
        base = rank * size
        top = base + size
        left, right, joined = rules[rank]
        while heap and heap[0] < top:
            i = heapq.heappop(heap) - base
            if seq[i] != left:
                continue
            j = nxt[i]
            if seq[j] != right:
                continue
            before, after = prv[i], nxt[j]
            seq[i], seq[j] = joined, empty
            nxt[i], prv[after] = after, i
            if (new := rank_of(seq[before] * stride + joined)) is not None:
                if new > rank:
                    heapq.heappush(heap, new * size + before)
                else:
                    late.append(new * size + before)
            if (new := rank_of(joined * stride + seq[after])) is not None:
                if new > rank:
                    heapq.heappush(heap, new * size + i)
                else:
                    late.append(new * size + i)
        if late:
            for key in late:
                heapq.heappush(heap, key)
            late.clear()
    n_tokens = len(vocab)
    return [s if s < n_tokens else UNK_ID for s in seq if s != empty]


def to_sequence(ids: list[int], max_len: int) -> TokenSequence:
    """Pad ``ids`` with PAD / truncate them to ``max_len``.

    Truncation keeps the head of the sequence.
    """
    if max_len < 2:
        raise ParameterError(f"max_len must be >= 2, got {max_len}")
    ids = ids[:max_len]
    length = len(ids)
    return TokenSequence(ids + [PAD_ID] * (max_len - length), length)


def encode(vocab: BpeVocabulary, text: str, max_len: int) -> TokenSequence:
    """Tokenize to ids, padded / truncated by ``to_sequence``."""
    return to_sequence(_apply_merges(vocab, text), max_len)


def decode(vocab: BpeVocabulary, ids) -> str:
    """Inverse of encode up to PAD stripping; UNK renders as its literal."""
    chunks: list[str] = []
    pending = bytearray()
    for i in ids:
        i = int(i)
        if not 0 <= i < len(vocab.id_to_token):
            raise DataError(f"token id {i} outside vocabulary of size {len(vocab)}")
        tok = vocab.id_to_token[i]
        if tok == PAD:
            continue
        if tok in RESERVED:
            if pending:
                chunks.append(pending.decode("utf-8", errors="replace"))
                pending = bytearray()
            chunks.append(tok)
        else:
            pending.extend(_from_token(tok))
    if pending:
        chunks.append(pending.decode("utf-8", errors="replace"))
    return "".join(chunks)


def save_vocabulary(vocab: BpeVocabulary, path) -> None:
    lines = [_FILE_VERSION]
    for i, tok in enumerate(vocab.id_to_token):
        lines.append(f"{tok}\t{i}")
    lines.append("#merges")
    for left, right in vocab.merges:
        lines.append(f"{left} {right}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_vocabulary(path) -> BpeVocabulary:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"vocabulary file {path} is not UTF-8: {exc}") from exc
    if not lines or lines[0] != _FILE_VERSION:
        raise DataError(f"unsupported vocabulary file version in {path}")
    body = lines[1:]
    cut = body.index("#merges") if "#merges" in body else len(body)
    token_to_id: dict[str, int] = {}
    for line in body[:cut]:
        tok, tab, idx = line.rpartition("\t")
        if not (tab and idx.isascii() and idx.isdigit()):
            raise DataError(
                f"token line {line!r} in {path} needs a tab and an integer id")
        token_to_id[tok] = int(idx)
    merges = []
    for line in body[cut + 1:]:
        pair = tuple(line.split(" "))
        if len(pair) != 2:
            raise DataError(
                f"merge line {line!r} in {path} lacks exactly one space")
        if not all(pair):
            raise DataError(f"merge line {line!r} in {path} has an empty part")
        merges.append(pair)
    # decode maps every character of a non-reserved token back to a byte
    for tok in token_to_id:
        if tok not in RESERVED and not _BYTE_ALPHABET.issuperset(tok):
            raise DataError(f"token {tok!r} in {path} has a character "
                            "outside the byte alphabet U+0100-U+01FF")
    for left, right in merges:
        if not _BYTE_ALPHABET.issuperset(left + right):
            raise DataError(f"merge {left!r} {right!r} in {path} has a "
                            "character outside the byte alphabet U+0100-U+01FF")
    if not token_to_id:
        raise DataError(f"no tokens found in {path}")
    if sorted(token_to_id.values()) != list(range(len(token_to_id))):
        raise DataError(f"token ids in {path} are not unique and dense 0..n-1")
    return BpeVocabulary(token_to_id, merges)
