"""BPE training, encode/decode round trips, and vocabulary files."""

import numpy as np
import pytest

from seqcls import bpe
from seqcls.errors import DataError, ParameterError


def train_small(corpus, extra_tokens=10, min_frequency=2):
    return bpe.train_bpe(corpus, vocab_size=261 + extra_tokens,
                         min_frequency=min_frequency)


# Reference implementation: recount every pair after every merge, rescan
# the whole sequence after every encode round.  The fast paths in
# seqcls.bpe must give the same vocabulary, merges and ids.

def count_pairs(sequences):
    counts = {}
    for seq in sequences:
        for i in range(len(seq) - 1):
            pair = (seq[i], seq[i + 1])
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def merge_sequence(seq, pair, joined):
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


def reference_train_bpe(corpus, vocab_size, min_frequency=2):
    sequences = [bpe._to_symbols(text) for text in corpus]
    vocab = bpe._base_vocabulary()
    merges = []
    while len(vocab) < vocab_size:
        counts = count_pairs(sequences)
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < min_frequency:
            break
        pair = min(p for p, c in counts.items() if c == best_count)
        joined = pair[0] + pair[1]
        merges.append(pair)
        vocab[joined] = len(vocab)
        sequences = [merge_sequence(seq, pair, joined) for seq in sequences]
    return bpe.BpeVocabulary(vocab, merges)


def reference_apply_merges(vocab, symbols):
    ranks = {pair: r for r, pair in enumerate(vocab.merges)}
    seq = symbols
    while len(seq) > 1:
        best_rank, best_pair = None, None
        for i in range(len(seq) - 1):
            r = ranks.get((seq[i], seq[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (seq[i], seq[i + 1])
        if best_pair is None:
            break
        seq = merge_sequence(seq, best_pair, best_pair[0] + best_pair[1])
    return seq


def reference_ids(vocab, text):
    tokens = reference_apply_merges(vocab, bpe._to_symbols(text))
    return [vocab.token_to_id.get(tok, bpe.UNK_ID) for tok in tokens]


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
            raw = len(bpe._apply_merges(vocab, text))
            assert seq.length == min(raw, max_len)

    def test_encoding_independent_of_batching(self):
        corpus = ["foo bar", "bar foo foo"]
        vocab = train_small(corpus, extra_tokens=16)
        alone = bpe.encode(vocab, "foo bar", max_len=32).input_ids
        for other in ["bar", "foo foo foo", ""]:
            bpe.encode(vocab, other, max_len=32)
            assert bpe.encode(vocab, "foo bar", max_len=32).input_ids == alone


def random_corpus(rng, alphabet):
    """Lines of random draws, long single-character runs and empty strings."""
    lines = []
    for _ in range(int(rng.integers(1, 9))):
        kind = rng.integers(0, 4)
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(str(rng.choice(alphabet)) * int(rng.integers(1, 40)))
        else:
            lines.append("".join(rng.choice(alphabet, size=rng.integers(1, 60))))
    return lines


class TestReferenceEquivalence:
    ALPHABETS = [list("a"), list("ab"), list("aab "), list("é日𝄞a "),
                 list("abcdefgh(){};= \n")]

    @pytest.mark.parametrize("min_frequency", [1, 2, 3])
    def test_training_and_encoding_match_the_reference(self, min_frequency):
        rng = np.random.default_rng(100 + min_frequency)
        for trial in range(60):
            alphabet = self.ALPHABETS[trial % len(self.ALPHABETS)]
            corpus = random_corpus(rng, alphabet)
            vocab_size = 261 + int(rng.integers(1, 120))
            fast = bpe.train_bpe(corpus, vocab_size, min_frequency)
            slow = reference_train_bpe(corpus, vocab_size, min_frequency)
            assert fast.token_to_id == slow.token_to_id, corpus
            assert fast.merges == slow.merges, corpus
            probes = corpus + random_corpus(rng, alphabet)
            for text in probes:
                seq = bpe.encode(fast, text, max_len=512)
                assert seq.input_ids[:seq.length] == reference_ids(slow, text)

    def test_training_stops_when_no_pair_is_left(self):
        rng = np.random.default_rng(7)
        for alphabet in self.ALPHABETS:
            corpus = random_corpus(rng, alphabet)
            # far more room than merges: training ends for lack of pairs
            fast = bpe.train_bpe(corpus, 261 + 5000, min_frequency=1)
            slow = reference_train_bpe(corpus, 261 + 5000, min_frequency=1)
            assert fast == slow
            assert len(fast) < 261 + 5000
            for text in corpus:
                assert len(bpe._apply_merges(fast, text)) <= 1

    def test_shuffled_merge_list_encodes_like_the_reference(self, tmp_path):
        rng = np.random.default_rng(8)
        for trial in range(30):
            alphabet = self.ALPHABETS[trial % len(self.ALPHABETS)]
            corpus = random_corpus(rng, alphabet)
            trained = bpe.train_bpe(corpus, 261 + 60, min_frequency=1)
            merges = list(trained.merges)
            rng.shuffle(merges)
            path = tmp_path / "shuffled.txt"
            bpe.save_vocabulary(bpe.BpeVocabulary(trained.token_to_id, merges),
                                path)
            vocab = bpe.load_vocabulary(path)
            assert vocab.merges == merges
            for text in corpus + random_corpus(rng, alphabet):
                seq = bpe.encode(vocab, text, max_len=512)
                assert seq.input_ids[:seq.length] == reference_ids(vocab, text)

    def test_repeated_merge_takes_its_last_rank(self, tmp_path):
        a, b, c = bpe._to_symbols("abc")
        vocab = bpe.BpeVocabulary(bpe._base_vocabulary(),
                                  [(a, b), (b, c), (a, b)])
        # ("a","b") ranks 2, after ("b","c"); the base table lacks "bc"
        assert bpe._apply_merges(vocab, "abc") == [vocab.token_to_id[a],
                                                   bpe.UNK_ID]
        rng = np.random.default_rng(9)
        for trial in range(30):
            alphabet = self.ALPHABETS[trial % len(self.ALPHABETS)]
            corpus = random_corpus(rng, alphabet)
            trained = bpe.train_bpe(corpus, 261 + 60, min_frequency=1)
            merges = list(trained.merges)
            for _ in range(len(merges)):
                merges.insert(int(rng.integers(0, len(merges) + 1)),
                              merges[int(rng.integers(0, len(merges)))])
            path = tmp_path / "repeated.txt"
            bpe.save_vocabulary(bpe.BpeVocabulary(trained.token_to_id, merges),
                                path)
            vocab = bpe.load_vocabulary(path)
            assert vocab.merges == merges
            for text in corpus + random_corpus(rng, alphabet):
                seq = bpe.encode(vocab, text, max_len=512)
                assert seq.input_ids[:seq.length] == reference_ids(vocab, text)

    def check_stripped(self, seed, strip):
        """Encode like the reference under a trained merge list whose token
        table lacks the tokens ``strip`` picks; returns the UNK count."""
        rng = np.random.default_rng(seed)
        unks = 0
        for trial in range(30):
            alphabet = self.ALPHABETS[trial % len(self.ALPHABETS)]
            corpus = random_corpus(rng, alphabet)
            trained = bpe.train_bpe(corpus, 261 + 60, min_frequency=1)
            dropped = strip(trained, rng)
            kept = [t for t in trained.id_to_token if t not in dropped]
            vocab = bpe.BpeVocabulary({t: i for i, t in enumerate(kept)},
                                      trained.merges)
            for text in corpus + random_corpus(rng, alphabet):
                seq = bpe.encode(vocab, text, max_len=512)
                ids = seq.input_ids[:seq.length]
                assert ids == reference_ids(vocab, text)
                unks += ids.count(bpe.UNK_ID)
        return unks

    def test_merges_missing_from_the_token_table_encode_to_unk(self):
        def strip(trained, rng):
            # about half of the merge results; a dropped result that is a
            # later merge's part leaves that part missing too
            return {left + right for left, right in trained.merges
                    if rng.random() < 0.5}
        assert self.check_stripped(10, strip) > 0

    def test_vocabulary_without_a_byte_symbol(self):
        def strip(trained, rng):
            used = sorted({s for pair in trained.merges for s in pair}
                          & set(bpe._BYTE_SYMBOLS))
            # half of the byte symbols the merges use, rounded up
            picks = rng.permutation(len(used))[:(len(used) + 1) // 2]
            return {used[k] for k in picks}
        assert self.check_stripped(11, strip) > 0


class TestFitSegments:
    """train_bpe's segments equal what encoding each corpus line gives."""

    def check(self, corpus, vocab_size, min_frequency):
        segments = []
        vocab = bpe.train_bpe(corpus, vocab_size, min_frequency,
                              segments=segments)
        assert vocab == bpe.train_bpe(corpus, vocab_size, min_frequency)
        assert len(segments) == len(corpus)
        for text, ids in zip(corpus, segments):
            assert ids == bpe._apply_merges(vocab, text), text
            assert ids == reference_ids(vocab, text), text
        return vocab, segments

    @pytest.mark.parametrize("min_frequency", [1, 2, 3])
    def test_random_corpora(self, min_frequency):
        rng = np.random.default_rng(200 + min_frequency)
        for trial in range(60):
            alphabet = TestReferenceEquivalence.ALPHABETS[
                trial % len(TestReferenceEquivalence.ALPHABETS)]
            corpus = random_corpus(rng, alphabet)
            self.check(corpus, 261 + int(rng.integers(1, 120)), min_frequency)

    def test_runs_empty_lines_and_multibyte_text(self):
        corpus = ["aaaa", "", "aaaaa", "é日𝄞 é日𝄞", "", "aaaa é日"]
        vocab, segments = self.check(corpus, 261 + 40, 1)
        assert segments[1] == segments[4] == []
        assert bpe.decode(vocab, segments[0]) == "aaaa"

    def test_vocabulary_cap_stops_the_fit_early(self):
        corpus = ["def add(a, b): return a + b"] * 3 + ["int main() { }"]
        for extra in (1, 2, 5):
            vocab, _ = self.check(corpus, 261 + extra, 2)
            assert len(vocab.merges) == extra

    def test_no_pair_reaches_min_frequency(self):
        corpus = ["abc", "def", ""]
        vocab, segments = self.check(corpus, 261 + 10, 2)
        assert vocab.merges == []
        assert segments == [[vocab.token_to_id[s] for s in bpe._to_symbols(text)]
                            for text in corpus]


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
        lambda lines: lines + [bpe._to_symbols("a")[0] + " "],
        lambda lines: lines + [" " + bpe._to_symbols("a")[0]],
        lambda lines: lines + [" "],
        lambda lines: [lines[0], lines[1].replace("\t0", "\t900")] + lines[2:],
        lambda lines: [lines[0], lines[1].replace("\t0", "\t1")] + lines[2:],
    ], ids=["no-tab", "non-int-id", "merge-two-spaces", "merge-no-space",
            "merge-empty-right", "merge-empty-left", "merge-both-empty",
            "id-gap", "id-repeated"])
    def test_malformed_lines_raise_data_error(self, tmp_path, edit):
        vocab = train_small(["alpha beta alpha beta"], extra_tokens=4)
        path = tmp_path / "vocab.txt"
        bpe.save_vocabulary(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(DataError):
            bpe.load_vocabulary(path)

    def test_token_outside_byte_alphabet_rejected(self, tmp_path):
        # the byte symbol for "a" renamed to a plain "a"
        vocab = train_small(["alpha beta alpha beta"], extra_tokens=4)
        path = tmp_path / "vocab.txt"
        bpe.save_vocabulary(vocab, path)
        symbol = bpe._to_symbols("a")[0]
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(f"\n{symbol}\t", "\na\t", 1),
                        encoding="utf-8")
        with pytest.raises(DataError, match="byte alphabet"):
            bpe.load_vocabulary(path)

    def test_merge_outside_byte_alphabet_rejected(self, tmp_path):
        vocab = train_small(["alpha beta alpha beta"], extra_tokens=4)
        path = tmp_path / "vocab.txt"
        bpe.save_vocabulary(vocab, path)
        path.write_text(path.read_text(encoding="utf-8") + "a b\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match="byte alphabet"):
            bpe.load_vocabulary(path)

    def test_invalid_utf8_raises_data_error(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"seqcls-bpe-v1\n\xc4\tx\n")
        with pytest.raises(DataError):
            bpe.load_vocabulary(path)
