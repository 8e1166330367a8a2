"""BPE training, encode/decode round trips, and vocabulary files."""

import numpy as np
import pytest

from seqcls import bpe
from seqcls.errors import DataError, ParameterError


def train_small(corpus, extra_tokens=10, min_frequency=2):
    return bpe.train_bpe(corpus, vocab_size=261 + extra_tokens,
                         min_frequency=min_frequency)


class TestTraining:
    def test_first_merge_by_pair_count(self):
        # "aaab": ("a","a") occurs twice (overlapping positions), ("a","b") once.
        vocab = train_small(["aaab"], extra_tokens=1, min_frequency=2)
        assert len(vocab.merges) == 1
        assert vocab.merges[0] == (bpe._to_symbols("a")[0], bpe._to_symbols("a")[0])

    def test_unique_characters_yield_no_merges(self):
        vocab = train_small(["abcdefg"], extra_tokens=5)
        assert vocab.merges == []

    def test_retrain_is_deterministic(self):
        corpus = ["for i in range(10):", "for j in range(20):", "while x < 3:"]
        a = train_small(corpus, extra_tokens=20)
        b = train_small(corpus, extra_tokens=20)
        assert a == b

    def test_tie_break_is_lexicographic(self):
        # "ab" and "cd" both occur twice; ("a","b") sorts first.
        vocab = train_small(["ab", "ab", "cd", "cd"], extra_tokens=1)
        assert vocab.merges[0] == tuple(bpe._to_symbols("ab"))

    def test_vocab_size_too_small_rejected(self):
        with pytest.raises(ParameterError):
            bpe.train_bpe(["abc"], vocab_size=100)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            bpe.train_bpe([], vocab_size=300)

    def test_ids_are_dense_and_unique(self):
        vocab = train_small(["aaabbbab" * 4], extra_tokens=6)
        ids = sorted(vocab.token_to_id.values())
        assert ids == list(range(len(vocab)))

    def test_merged_token_parts_exist(self):
        vocab = train_small(["abababab"], extra_tokens=6)
        for left, right in vocab.merges:
            assert left in vocab.token_to_id
            assert right in vocab.token_to_id


class TestEncode:
    def test_empty_text_is_all_pad(self):
        vocab = train_small(["ab"])
        seq = bpe.encode(vocab, "", max_len=5)
        assert seq.input_ids == [bpe.PAD_ID] * 5
        assert seq.length == 0

    def test_padding_and_mask(self):
        vocab = train_small(["xyz"], extra_tokens=1, min_frequency=99)
        seq = bpe.encode(vocab, "xyz", max_len=6)
        assert seq.length == 3
        assert bpe.PAD_ID not in seq.input_ids[:3]
        assert seq.input_ids[3:] == [bpe.PAD_ID] * 3

    def test_merge_application(self):
        vocab = train_small(["aaab"], extra_tokens=1)
        seq = bpe.encode(vocab, "aaab", max_len=8)
        aa = vocab.token_to_id["".join(bpe._to_symbols("aa"))]
        a = vocab.token_to_id[bpe._to_symbols("a")[0]]
        b = vocab.token_to_id[bpe._to_symbols("b")[0]]
        assert seq.input_ids[:3] == [aa, a, b]

    def test_truncation_keeps_prefix(self):
        vocab = train_small(["qrs"], min_frequency=99)
        seq = bpe.encode(vocab, "qrstuv", max_len=3)
        assert seq.length == 3
        assert bpe.decode(vocab, seq.input_ids) == "qrs"

    def test_unknown_symbol_maps_to_unk(self):
        vocab = train_small(["ab"])
        # Hand-build a vocabulary missing one byte symbol.
        stripped = {t: i for t, i in vocab.token_to_id.items()
                    if t != bpe._to_symbols("z")[0]}
        crippled = bpe.BpeVocabulary(
            {t: r for r, (t, _) in enumerate(sorted(stripped.items(), key=lambda kv: kv[1]))},
            [],
        )
        seq = bpe.encode(crippled, "az", max_len=4)
        assert bpe.UNK_ID in seq.input_ids
        assert bpe.UNK in bpe.decode(crippled, seq.input_ids)

    def test_max_len_too_small_rejected(self):
        vocab = train_small(["ab"])
        with pytest.raises(ParameterError):
            bpe.encode(vocab, "ab", max_len=1)


class TestDecode:
    def test_round_trip(self):
        corpus = ["def add(a, b):\n    return a + b", "int main() { return 0; }"]
        vocab = train_small(corpus, extra_tokens=30)
        for text in corpus + ["return0;", "日本語のコード"]:
            seq = bpe.encode(vocab, text, max_len=128)
            assert bpe.decode(vocab, seq.input_ids) == text

    def test_all_pad_decodes_to_empty(self):
        vocab = train_small(["ab"])
        assert bpe.decode(vocab, [bpe.PAD_ID] * 4) == ""

    def test_unknown_id_rejected(self):
        vocab = train_small(["ab"])
        with pytest.raises(DataError):
            bpe.decode(vocab, [len(vocab) + 5])


class TestProperties:
    def test_round_trip_random_ascii(self):
        rng = np.random.default_rng(11)
        alphabet = list("abcdefghij(){};=+ \n")
        corpus = ["".join(rng.choice(alphabet, size=rng.integers(1, 40)))
                  for _ in range(30)]
        vocab = train_small(corpus, extra_tokens=40)
        for text in corpus:
            seq = bpe.encode(vocab, text, max_len=256)
            assert bpe.decode(vocab, seq.input_ids) == text

    def test_mask_popcount(self):
        vocab = train_small(["aabbaabb"], extra_tokens=8)
        for text, max_len in [("aabb", 16), ("aabbaabbaabbaabb", 4), ("", 6)]:
            seq = bpe.encode(vocab, text, max_len)
            raw = len(bpe._apply_merges(vocab, bpe._to_symbols(text)))
            assert seq.length == min(raw, max_len)

    def test_encoding_independent_of_batching(self):
        corpus = ["foo bar", "bar foo foo"]
        vocab = train_small(corpus, extra_tokens=16)
        alone = bpe.encode(vocab, "foo bar", max_len=32).input_ids
        for other in ["bar", "foo foo foo", ""]:
            bpe.encode(vocab, other, max_len=32)
            assert bpe.encode(vocab, "foo bar", max_len=32).input_ids == alone


class TestVocabularyFile:
    def test_save_load_round_trip(self, tmp_path):
        vocab = train_small(["the quick brown fox " * 3], extra_tokens=25)
        path = tmp_path / "vocab.txt"
        bpe.save_vocabulary(vocab, path)
        assert bpe.load_vocabulary(path) == vocab

    def test_save_is_byte_stable(self, tmp_path):
        vocab = train_small(["alpha beta gamma " * 2], extra_tokens=12)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        bpe.save_vocabulary(vocab, p1)
        bpe.save_vocabulary(bpe.load_vocabulary(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("not-a-vocab\n")
        with pytest.raises(DataError):
            bpe.load_vocabulary(path)

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:3] + ["notab"] + lines[3:],
        lambda lines: lines[:3] + ["tok\tx7"] + lines[3:],
        lambda lines: lines + ["one two three"],
        lambda lines: lines + ["nospace"],
        lambda lines: [lines[0], lines[1].replace("\t0", "\t900")] + lines[2:],
        lambda lines: [lines[0], lines[1].replace("\t0", "\t1")] + lines[2:],
    ], ids=["no-tab", "non-int-id", "merge-two-spaces", "merge-no-space",
            "id-gap", "id-repeated"])
    def test_malformed_lines_raise_data_error(self, tmp_path, edit):
        vocab = train_small(["alpha beta alpha beta"], extra_tokens=4)
        path = tmp_path / "vocab.txt"
        bpe.save_vocabulary(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(DataError):
            bpe.load_vocabulary(path)

    def test_invalid_utf8_raises_data_error(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"seqcls-bpe-v1\n\xc4\tx\n")
        with pytest.raises(DataError):
            bpe.load_vocabulary(path)
