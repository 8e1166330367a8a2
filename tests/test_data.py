"""Tests for JSONL loading, dedupe, stratified splits, synthetic data."""

import json
import re
import sys

import numpy as np
import pytest

from seqcls.data import (
    DatasetSplits,
    LabeledSample,
    dedupe,
    load_jsonl,
    normalize_code,
    split,
    synth_corpus,
    write_manifest,
)
from seqcls.errors import DataError, ParameterError


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            if isinstance(record, str):
                fh.write(record + "\n")
            else:
                fh.write(json.dumps(record) + "\n")
    return path


def make_samples(class_counts, prefix="s"):
    samples = []
    uid = 0
    for label, count in enumerate(class_counts):
        for i in range(count):
            samples.append(LabeledSample(
                code=f"fn_{label}_{i} () {{ return {uid}; }}",
                label=label, source_id=f"{prefix}-{uid}"))
            uid += 1
    return samples


class TestLoadJsonl:
    def test_defect_record_fields(self, tmp_path):
        path = write_lines(tmp_path / "d.jsonl", [
            {"func": "int main(){}", "target": 0, "idx": 7},
            {"func": "void g(){}", "target": 1, "idx": 8},
        ])
        loaded = load_jsonl(path, schema="defect")
        assert loaded.samples[0] == LabeledSample("int main(){}", 0, "7")
        assert loaded.samples[1].label == 1
        assert loaded.label_map == {"0": 0, "1": 1}
        assert loaded.skipped == 0

    def test_malformed_lines_skipped_with_warning(self, tmp_path):
        path = write_lines(tmp_path / "d.jsonl", [
            {"func": "a(){}", "target": 0, "idx": 1},
            "{this is not json",
            {"func": "b(){}", "target": 1, "idx": 2},
        ])
        with pytest.warns(UserWarning, match="skipped 1 malformed"):
            loaded = load_jsonl(path, schema="defect")
        assert len(loaded.samples) == 2
        assert loaded.skipped == 1

    def test_bad_target_and_missing_keys_are_malformed(self, tmp_path):
        path = write_lines(tmp_path / "d.jsonl", [
            {"func": "a(){}", "target": 2, "idx": 1},
            {"func": "b(){}", "idx": 2},
            {"target": 0, "idx": 3},
            {"func": "c(){}", "target": True, "idx": 4},
            {"func": "   ", "target": 0, "idx": 5},
            {"func": "ok(){}", "target": 0, "idx": 6},
        ])
        with pytest.warns(UserWarning, match="skipped 5 malformed"):
            loaded = load_jsonl(path, schema="defect")
        assert [s.source_id for s in loaded.samples] == ["6"]

    def test_zero_parseable_records_is_an_error(self, tmp_path):
        path = write_lines(tmp_path / "d.jsonl", ["nope", "{\"a\": 1}"])
        with pytest.raises(DataError):
            load_jsonl(path, schema="defect")

    def test_generic_string_labels_map_in_sorted_order(self, tmp_path):
        path = write_lines(tmp_path / "g.jsonl", [
            {"code": "x = 1", "label": "positive"},
            {"code": "y = 2", "label": "negative"},
            {"code": "z = 3", "label": "positive"},
        ])
        loaded = load_jsonl(path, schema="generic")
        assert loaded.label_map == {"negative": 0, "positive": 1}
        assert [s.label for s in loaded.samples] == [1, 0, 1]

    def test_generic_without_id_uses_line_number(self, tmp_path):
        path = write_lines(tmp_path / "g.jsonl", [
            {"code": "x", "label": 0},
            {"code": "y", "label": 1},
        ])
        loaded = load_jsonl(path, schema="generic")
        assert [s.source_id for s in loaded.samples] == ["line-0", "line-1"]

    def test_generic_and_defect_schemas_agree_on_equivalent_records(self, tmp_path):
        body = ["int f(){return 0;}", "int g(){return 1;}"]
        defect = write_lines(tmp_path / "d.jsonl", [
            {"func": body[0], "target": 0, "idx": 1},
            {"func": body[1], "target": 1, "idx": 2},
        ])
        generic = write_lines(tmp_path / "g.jsonl", [
            {"code": body[0], "label": 0, "idx": 1},
            {"code": body[1], "label": 1, "idx": 2},
        ])
        a = load_jsonl(defect, schema="defect")
        b = load_jsonl(generic, schema="generic")
        assert a.samples == b.samples
        assert a.label_map == b.label_map

    def test_unknown_schema_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            load_jsonl(tmp_path / "x.jsonl", schema="mystery")

    def test_file_that_is_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"code": "x = 1", "label": 0}\n'
                         b'{"code": "y = \xff", "label": 1}\n')
        with pytest.raises(DataError, match=r"latin1\.jsonl is not UTF-8"):
            load_jsonl(path, schema="generic")

    def test_mixed_int_and_string_labels_map_densely(self, tmp_path):
        path = write_lines(tmp_path / "g.jsonl", [
            {"code": "a = 0", "label": 0},
            {"code": "b = 1", "label": 1},
            {"code": "c = 1", "label": "1"},
            {"code": "d = 0", "label": 0},
        ])
        loaded = load_jsonl(path, schema="generic")
        assert loaded.label_map == {"0": 0, "1": 1}
        assert [s.label for s in loaded.samples] == [0, 1, 1, 0]


class TestDedupe:
    def test_trailing_blank_lines_collapse_to_one_sample(self):
        first = LabeledSample("int main(){}\n\n\n", 0, "a")
        second = LabeledSample("int main(){}", 0, "b")
        kept, removed = dedupe([first, second])
        assert kept == [first]
        assert removed == 1

    def test_whitespace_runs_do_not_distinguish(self):
        kept, removed = dedupe([
            LabeledSample("x  =   1", 0, "a"),
            LabeledSample("x = 1", 1, "b"),
            LabeledSample("x=1", 0, "c"),
        ])
        assert [s.source_id for s in kept] == ["a", "c"]
        assert removed == 1

    def test_first_occurrence_wins(self):
        rows = [LabeledSample("same", i, f"id{i}") for i in range(4)]
        kept, removed = dedupe(rows)
        assert kept == [rows[0]]
        assert removed == 3

    def test_clean_input_is_untouched(self):
        rows = make_samples([3, 3])
        kept, removed = dedupe(rows)
        assert kept == rows
        assert removed == 0
        assert normalize_code("a\tb\n") == "a b"


def regex_normalize(code):
    """The regex form normalize_code replaced, kept as its oracle."""
    return re.sub(r"\s+", " ", code).strip()


class TestNormalizeCode:
    ALL = "".join(map(chr, range(sys.maxunicode + 1)))
    # every code point that either str.isspace or the regex \s accepts
    SPACES = sorted(set(re.findall(r"\s", ALL)) | {c for c in ALL if c.isspace()})

    def test_whitespace_sets_agree(self):
        assert set(re.findall(r"\s", self.ALL)) == set(self.SPACES)
        assert all(ch.isspace() for ch in self.SPACES)
        assert len(self.SPACES) == 29

    def test_each_whitespace_code_point_matches_the_regex_form(self):
        for ch in self.SPACES:
            for text in (ch, f"a{ch}b", f"{ch}a{ch * 3}b{ch}", f"a {ch}\t{ch}b"):
                assert normalize_code(text) == regex_normalize(text), repr(text)

    def test_random_strings_match_the_regex_form(self):
        rng = np.random.default_rng(5)
        alphabet = self.SPACES + list("ab{};\u00e9\u65e5\U0001d11e")
        for _ in range(2000):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 24))))
            assert normalize_code(text) == regex_normalize(text), repr(text)


class TestSplit:
    def test_hundred_samples_split_80_10_10(self):
        splits = split(make_samples([50, 50]), seed=3)
        assert (len(splits.train), len(splits.val), len(splits.test)) == (80, 10, 10)

    def test_large_corpus_split_sizes_exact(self):
        samples = make_samples([12699, 7621, 5080])
        splits = split(samples, seed=11)
        assert len(samples) == 25400
        assert len(splits.train) == 20320
        assert len(splits.val) == 2540
        assert len(splits.test) == 2540

    def test_splits_partition_the_input(self):
        samples = make_samples([40, 25, 15])
        splits = split(samples, seed=5)
        ids = [s.source_id for s in splits.train + splits.val + splits.test]
        assert len(ids) == len(set(ids)) == len(samples)
        assert set(ids) == {s.source_id for s in samples}

    def test_split_is_stratified_within_one_sample(self):
        samples = make_samples([60, 30, 10])
        splits = split(samples, seed=9)
        for label, count in enumerate([60, 30, 10]):
            n_val = sum(1 for s in splits.val if s.label == label)
            n_test = sum(1 for s in splits.test if s.label == label)
            assert abs(n_val - 0.1 * count) <= 1.0
            assert abs(n_test - 0.1 * count) <= 1.0

    def test_every_class_appears_in_train(self):
        splits = split(make_samples([5, 5, 5, 5]), seed=1)
        assert {s.label for s in splits.train} == {0, 1, 2, 3}

    def test_tiny_class_goes_wholly_to_train_with_warning(self):
        samples = make_samples([30, 30, 2])
        with pytest.warns(UserWarning, match="< 3 samples"):
            splits = split(samples, seed=4)
        rare_train = [s for s in splits.train if s.label == 2]
        assert len(rare_train) == 2
        assert all(s.label != 2 for s in splits.val + splits.test)

    def test_same_seed_reproduces_the_split(self):
        samples = make_samples([20, 20])
        a = split(samples, seed=7)
        b = split(samples, seed=7)
        for part in ("train", "val", "test"):
            assert [s.source_id for s in getattr(a, part)] == \
                [s.source_id for s in getattr(b, part)]

    def test_different_seeds_differ(self):
        samples = make_samples([50, 50])
        a = split(samples, seed=0)
        b = split(samples, seed=1)
        assert [s.source_id for s in a.val] != [s.source_id for s in b.val]

    def test_too_few_samples_rejected(self):
        with pytest.raises(DataError):
            split(make_samples([4, 4]), seed=0)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            split(make_samples([12]), seed=0)

    def test_random_corpora_hit_target_sizes(self):
        import numpy as np
        rng = np.random.Generator(np.random.Philox(key=77))
        for trial in range(20):
            counts = [int(rng.integers(5, 40))
                      for _ in range(int(rng.integers(2, 5)))]
            samples = make_samples(counts, prefix=f"t{trial}")
            splits = split(samples, seed=trial)
            n = len(samples)
            assert len(splits.val) == round(0.1 * n)
            assert len(splits.test) == round(0.1 * n)
            assert len(splits.train) == n - 2 * round(0.1 * n)


class TestSynthCorpus:
    def test_two_by_fifty_is_balanced(self):
        samples = synth_corpus(2, 50, seed=0)
        assert len(samples) == 100
        assert sum(1 for s in samples if s.label == 0) == 50
        assert sum(1 for s in samples if s.label == 1) == 50

    def test_paired_samples_share_token_multisets(self):
        samples = synth_corpus(2, 25, seed=3)
        for i in range(25):
            a = samples[2 * i].code.split()
            b = samples[2 * i + 1].code.split()
            assert sorted(a) == sorted(b)
            assert a != b

    def test_marker_order_encodes_the_label(self):
        for sample in synth_corpus(2, 40, seed=5):
            tokens = sample.code.split()
            first = tokens.index("alpha")
            second = tokens.index("omega")
            assert (first < second) == (sample.label == 0)

    def test_generation_is_seed_deterministic(self):
        assert synth_corpus(2, 30, seed=9) == synth_corpus(2, 30, seed=9)
        assert synth_corpus(2, 30, seed=9) != synth_corpus(2, 30, seed=10)

    def test_extra_classes_get_distinct_markers(self):
        samples = synth_corpus(4, 10, seed=2)
        assert len(samples) == 40
        for sample in samples:
            if sample.label >= 2:
                assert sample.code.split().count(f"gamma{sample.label}") == 2

    def test_bad_parameters_rejected(self):
        with pytest.raises(ParameterError):
            synth_corpus(1, 10, seed=0)
        with pytest.raises(ParameterError):
            synth_corpus(2, 0, seed=0)


class TestManifest:
    def test_round_trip_lists_ids_per_split(self, tmp_path):
        splits = split(make_samples([30, 30]), seed=2)
        path = tmp_path / "manifest.json"
        write_manifest(path, splits)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(payload) == ["label_map", "test", "train", "val"]
        assert payload["train"] == [s.source_id for s in splits.train]
        assert payload["val"] == [s.source_id for s in splits.val]
        assert payload["test"] == [s.source_id for s in splits.test]
        assert payload["label_map"] == {"0": 0, "1": 1}


class TestPipelineIdempotence:
    def test_load_dedupe_split_is_stable_on_clean_data(self, tmp_path):
        records = [{"func": f"int f{i}(){{return {i};}}", "target": i % 2,
                    "idx": i} for i in range(40)]
        path = write_lines(tmp_path / "clean.jsonl", records)
        loaded = load_jsonl(path, schema="defect")
        deduped, removed = dedupe(loaded.samples)
        assert removed == 0
        again, removed_again = dedupe(deduped)
        assert again == deduped and removed_again == 0
        first = split(deduped, seed=6, label_map=loaded.label_map)
        second = split(deduped, seed=6, label_map=loaded.label_map)
        assert first == second
        assert isinstance(first, DatasetSplits)
