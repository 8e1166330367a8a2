"""Seeded fuzzing of every file seqcls reads back.

Checkpoints, SQF1 embedding files and vocab.txt files are corrupted by
truncation, single-bit flips, oversized length fields and non-finite
payloads.  A corrupt file may still load (a flipped mantissa bit is a
valid weight), but when loading fails it must fail with a library
error: DataError, or DimensionError for a tensor shape mismatch.  Any
other exception escapes the test and fails it.
"""

import struct

import numpy as np
import pytest

from seqcls import bpe
from seqcls import encoder as enc
from seqcls import model as md
from seqcls.encoder import EncoderConfig
from seqcls.errors import DataError, DimensionError, SeqclsError
from seqcls.rng import RandomSource

FLIPS = 300
CUTS = 60


def bit_flips(blob: bytes, rng: RandomSource):
    for bit in rng.integers(0, 8 * len(blob), FLIPS):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << int(bit % 8)
        yield bytes(flipped)


def truncations(blob: bytes, rng: RandomSource):
    for cut in sorted({int(c) for c in rng.integers(0, len(blob), CUTS)}):
        yield blob[:cut]


def loads_or_library_error(loader, path, blob: bytes) -> bool:
    """True when the blob loads, False when it fails with a SeqclsError."""
    path.write_bytes(blob)
    try:
        loader(path)
    except SeqclsError as exc:
        assert type(exc) in (DataError, DimensionError), repr(exc)
        return False
    return True


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    config = md.ModelConfig(
        n_classes=2,
        encoder=EncoderConfig(d_model=4, n_heads=2, n_layers=1,
                              vocab_size=12, max_len=6, dropout=0.0),
        rnn_variant="bilstm", hidden_units=3, d_rnn=3,
        dense_units=3, dropout=0.0)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    md.save_checkpoint(path, md.init_model(config, seed=3))
    return path.read_bytes()


@pytest.fixture(scope="module")
def embeddings_blob(tmp_path_factory):
    rng = RandomSource(4)
    samples = [(rng.uniform(-1, 1, (n, 3)), n % 2) for n in (2, 5, 1)]
    path = tmp_path_factory.mktemp("emb") / "emb.sqf1"
    enc.save_embeddings(path, samples)
    return path.read_bytes()


@pytest.fixture(scope="module")
def vocab_blob(tmp_path_factory):
    vocab = bpe.train_bpe(["alpha beta gamma alpha beta", "gamma delta é"],
                          vocab_size=280)
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    bpe.save_vocabulary(vocab, path)
    return path.read_bytes()


def checkpoint_length_fields(blob: bytes):
    """(offset, format) of each length field up to the first tensor's data."""
    (config_len,) = struct.unpack_from("<I", blob, 8)
    count_at = 12 + config_len
    name_len_at = count_at + 4
    (name_len,) = struct.unpack_from("<H", blob, name_len_at)
    ndim_at = name_len_at + 2 + name_len
    return [(8, "<I"), (count_at, "<I"), (name_len_at, "<H"),
            (ndim_at, "<B"), (ndim_at + 1, "<I")]


def with_max(blob: bytes, offset: int, fmt: str) -> bytes:
    size = struct.calcsize(fmt)
    top = (1 << (8 * size)) - 1
    return blob[:offset] + struct.pack(fmt, top) + blob[offset + size:]


class TestCheckpointFuzz:
    def test_every_truncation_fails_cleanly(self, tmp_path, checkpoint_blob):
        path = tmp_path / "cut.ckpt"
        for blob in truncations(checkpoint_blob, RandomSource(10)):
            assert not loads_or_library_error(md.load_checkpoint, path, blob)

    def test_bit_flips_load_or_fail_cleanly(self, tmp_path, checkpoint_blob):
        path = tmp_path / "flip.ckpt"
        outcomes = [loads_or_library_error(md.load_checkpoint, path, blob)
                    for blob in bit_flips(checkpoint_blob, RandomSource(11))]
        # most flips land in float payloads and load; header flips must not
        assert any(outcomes) and not all(outcomes)

    def test_oversized_length_fields_fail_cleanly(self, tmp_path,
                                                  checkpoint_blob):
        path = tmp_path / "big.ckpt"
        for offset, fmt in checkpoint_length_fields(checkpoint_blob):
            blob = with_max(checkpoint_blob, offset, fmt)
            assert not loads_or_library_error(md.load_checkpoint, path, blob)

    def test_non_finite_payloads_rejected(self, tmp_path, checkpoint_blob):
        path = tmp_path / "nan.ckpt"
        rng = RandomSource(12)
        # the last tensor's f32 values end the file
        for value in (np.nan, np.inf, -np.inf):
            at = len(checkpoint_blob) - 4 * int(rng.integers(1, 3))
            path.write_bytes(checkpoint_blob[:at] + struct.pack("<f", value)
                             + checkpoint_blob[at + 4:])
            with pytest.raises(DataError, match="non-finite"):
                md.load_checkpoint(path)


class TestEmbeddingFileFuzz:
    def test_every_truncation_fails_cleanly(self, tmp_path, embeddings_blob):
        path = tmp_path / "cut.sqf1"
        for blob in truncations(embeddings_blob, RandomSource(20)):
            assert not loads_or_library_error(enc.load_embeddings, path, blob)

    def test_bit_flips_load_or_fail_cleanly(self, tmp_path, embeddings_blob):
        path = tmp_path / "flip.sqf1"
        outcomes = [loads_or_library_error(enc.load_embeddings, path, blob)
                    for blob in bit_flips(embeddings_blob, RandomSource(21))]
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize("offset, fmt", [(4, "<I"), (8, "<I"), (12, "<I"),
                                             (8, "<Q")])
    def test_oversized_length_fields_fail_cleanly(self, tmp_path,
                                                  embeddings_blob, offset, fmt):
        # count, n, d of the first sample, and n and d together
        path = tmp_path / "big.sqf1"
        blob = with_max(embeddings_blob, offset, fmt)
        assert not loads_or_library_error(enc.load_embeddings, path, blob)

    def test_non_finite_payloads_rejected(self, tmp_path, embeddings_blob):
        path = tmp_path / "inf.sqf1"
        rng = RandomSource(22)
        for value in (np.nan, np.inf, -np.inf):
            # first sample: 2x3 floats after the 16-byte header
            at = 16 + 4 * int(rng.integers(0, 6))
            path.write_bytes(embeddings_blob[:at] + struct.pack("<f", value)
                             + embeddings_blob[at + 4:])
            with pytest.raises(DataError, match="non-finite"):
                enc.load_embeddings(path)


class TestVocabularyFileFuzz:
    def test_truncations_load_or_fail_cleanly(self, tmp_path, vocab_blob):
        path = tmp_path / "cut.txt"
        for blob in truncations(vocab_blob, RandomSource(30)):
            loads_or_library_error(bpe.load_vocabulary, path, blob)

    def test_bit_flips_load_or_fail_cleanly(self, tmp_path, vocab_blob):
        path = tmp_path / "flip.txt"
        outcomes = [loads_or_library_error(bpe.load_vocabulary, path, blob)
                    for blob in bit_flips(vocab_blob, RandomSource(31))]
        assert not all(outcomes)

    def test_alphabet_violations_fail_cleanly(self, tmp_path, vocab_blob):
        # one character of a token or merge part moved outside U+0100-U+01FF
        path = tmp_path / "alphabet.txt"
        lines = vocab_blob.decode("utf-8").splitlines()
        first = 1 + len(bpe.RESERVED)
        rng = RandomSource(32)
        for at in rng.integers(first, len(lines), 80):
            line = lines[at]
            if line == "#merges":
                continue
            body = line.rpartition("\t")[0] if "\t" in line else line
            spots = [k for k, ch in enumerate(body) if ch != " "]
            k = spots[int(rng.integers(0, len(spots)))]
            low, high = ((0x21, 0x100), (0x200, 0x3000))[at % 2]
            char = chr(int(rng.integers(low, high)))
            mutated = list(lines)
            mutated[at] = line[:k] + char + line[k + 1:]
            blob = ("\n".join(mutated) + "\n").encode("utf-8")
            assert not loads_or_library_error(bpe.load_vocabulary, path, blob)

    def test_oversized_ids_fail_cleanly(self, tmp_path, vocab_blob):
        path = tmp_path / "big.txt"
        text = vocab_blob.decode("utf-8")
        for huge in ("4294967295", "9" * 40):
            blob = text.replace("<unk>\t1\n", f"<unk>\t{huge}\n").encode()
            assert not loads_or_library_error(bpe.load_vocabulary, path, blob)
