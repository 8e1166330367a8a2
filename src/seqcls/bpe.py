"""Byte-pair-encoding tokenizer: training, encoding, decoding, vocab files.

The initial alphabet is byte-level: every input byte b maps to the
private symbol chr(0x100 + b), so any string is representable, symbols
never collide with the reserved token names, and vocabulary files stay
free of embedded tabs/newlines.  Merges are learned greedily by pair
frequency; equal frequencies break ties by lexicographic order of the
pair, which makes training fully deterministic for a fixed corpus
order.

Vocabulary file format (UTF-8 text, bit-exact round trip):
  line 1            version tag
  token<TAB>id      one per token, ascending id
  #merges           sentinel
  left<SPACE>right  one merge per line, in priority order
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DataError, ParameterError

PAD, UNK, MASK, BOS, EOS = "<pad>", "<unk>", "<mask>", "<bos>", "<eos>"
RESERVED = (PAD, UNK, MASK, BOS, EOS)
PAD_ID, UNK_ID, MASK_ID, BOS_ID, EOS_ID = range(5)

_BYTE_OFFSET = 0x100
_FILE_VERSION = "seqcls-bpe-v1"


def _to_symbols(text: str) -> list[str]:
    return [chr(_BYTE_OFFSET + b) for b in text.encode("utf-8")]


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
    _ranks: dict[tuple[str, str], int] = field(init=False, repr=False)

    def __post_init__(self):
        self.id_to_token = [""] * len(self.token_to_id)
        for tok, i in self.token_to_id.items():
            self.id_to_token[i] = tok
        self._ranks = {pair: r for r, pair in enumerate(self.merges)}

    def __len__(self) -> int:
        return len(self.token_to_id)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BpeVocabulary)
                and self.token_to_id == other.token_to_id
                and self.merges == other.merges)


def _base_vocabulary() -> dict[str, int]:
    vocab = {tok: i for i, tok in enumerate(RESERVED)}
    for b in range(256):
        vocab[chr(_BYTE_OFFSET + b)] = len(vocab)
    return vocab


def _count_pairs(sequences: list[list[str]]) -> dict[tuple[str, str], int]:
    counts: dict[tuple[str, str], int] = {}
    for seq in sequences:
        for i in range(len(seq) - 1):
            pair = (seq[i], seq[i + 1])
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def _merge_sequence(seq: list[str], pair: tuple[str, str], joined: str) -> list[str]:
    """Replace occurrences of ``pair`` left to right, non-overlapping."""
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == pair[0] and seq[i + 1] == pair[1]:
            out.append(joined)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def train_bpe(corpus, vocab_size: int, min_frequency: int = 2) -> BpeVocabulary:
    """Learn merges greedily by highest pair frequency.

    Stops when the vocabulary reaches ``vocab_size`` or no pair occurs
    at least ``min_frequency`` times.  ``corpus`` is any iterable of
    strings.
    """
    base = _base_vocabulary()
    if vocab_size <= len(base):
        raise ParameterError(
            f"vocab_size must exceed the {len(base)}-token base alphabet, "
            f"got {vocab_size}"
        )
    if min_frequency < 1:
        raise ParameterError(f"min_frequency must be >= 1, got {min_frequency}")
    sequences = [_to_symbols(text) for text in corpus]
    if not sequences:
        raise DataError("empty corpus")

    vocab = dict(base)
    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size:
        counts = _count_pairs(sequences)
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < min_frequency:
            break
        pair = min(p for p, c in counts.items() if c == best_count)
        joined = pair[0] + pair[1]
        merges.append(pair)
        vocab[joined] = len(vocab)
        sequences = [_merge_sequence(seq, pair, joined) for seq in sequences]
    return BpeVocabulary(vocab, merges)


def _apply_merges(vocab: BpeVocabulary, symbols: list[str]) -> list[str]:
    ranks = vocab._ranks
    seq = symbols
    while len(seq) > 1:
        best_rank, best_pair = None, None
        for i in range(len(seq) - 1):
            r = ranks.get((seq[i], seq[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (seq[i], seq[i + 1])
        if best_pair is None:
            break
        seq = _merge_sequence(seq, best_pair, best_pair[0] + best_pair[1])
    return seq


def encode(vocab: BpeVocabulary, text: str, max_len: int) -> TokenSequence:
    """Tokenize, map to ids, then pad with PAD / truncate to ``max_len``.

    Truncation keeps the head of the sequence.  Symbols missing from the
    vocabulary map to UNK.
    """
    if max_len < 2:
        raise ParameterError(f"max_len must be >= 2, got {max_len}")
    tokens = _apply_merges(vocab, _to_symbols(text))
    ids = [vocab.token_to_id.get(tok, UNK_ID) for tok in tokens][:max_len]
    length = len(ids)
    return TokenSequence(ids + [PAD_ID] * (max_len - length), length)


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
    merges = [tuple(line.split(" ")) for line in body[cut + 1:]]
    if any(len(pair) != 2 for pair in merges):
        raise DataError(f"a merge line in {path} lacks exactly one space")
    if not token_to_id:
        raise DataError(f"no tokens found in {path}")
    if sorted(token_to_id.values()) != list(range(len(token_to_id))):
        raise DataError(f"token ids in {path} are not unique and dense 0..n-1")
    return BpeVocabulary(token_to_id, merges)
