"""Manifest file format and synthetic dataset generation."""

import hashlib
import json
import math
import random
import re
import statistics

import pytest

from voxbench.errors import CorpusIOError, ManifestFormatError
from voxbench.manifest import (
    DURATION_MAX_S,
    DURATION_MIN_S,
    DURATION_SIGMA,
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    _question_words,
    _words,
    load_manifest,
    synthesize_manifest,
    write_manifest,
)
from voxbench.retrieval import corpus_paths, load_documents
from voxbench.types import UtteranceRecord


def reference_synthesize(count, mean_duration_s, docs_dir, seed):
    """Reference synthesis: load the whole corpus first, then draw from
    that list with the same random calls."""
    docs = load_documents(docs_dir)
    rng = random.Random(seed)
    mu = math.log(mean_duration_s) - DURATION_SIGMA ** 2 / 2.0
    width = len(str(count - 1))
    records = []
    for i in range(count):
        doc = docs[rng.randrange(len(docs))]
        duration = min(max(rng.lognormvariate(mu, DURATION_SIGMA), DURATION_MIN_S),
                       DURATION_MAX_S)
        sampled = " ".join(_question_words(_words(doc.text), rng))
        records.append(UtteranceRecord(
            f"utt-{i:0{width}d}", round(duration, 3),
            f"Regarding {doc.doc_id}, can you explain how {sampled} should be handled?",
            f"speaker-{'ab'[i % 2]}", doc.doc_id))
    return records


def sample_records():
    return [
        UtteranceRecord("utt-0", 6.36, "plain ascii question?", "speaker-a", "doc01"),
        UtteranceRecord("utt-1", 2.125, "unicode café ✅ text", "speaker-b", None),
        UtteranceRecord("utt-2", 19.999, "third one here", "", "doc07"),
    ]


class TestRoundTrip:
    def test_every_field_survives_exactly(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_manifest(sample_records(), path)
        assert load_manifest(path) == sample_records()

    def test_header_line_shape(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_manifest(sample_records(), path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(first) == {"format": MANIFEST_FORMAT,
                                     "version": MANIFEST_VERSION}

    def test_one_record_per_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_manifest(sample_records(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + len(sample_records())
        for line in lines[1:]:
            assert set(json.loads(line)) == {"id", "audio_duration_s",
                                             "reference_transcript",
                                             "speaker_tag", "expected_doc_id"}

    def test_rewrites_are_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifest(sample_records(), p1)
        write_manifest(sample_records(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_blank_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_manifest(sample_records(), path)
        path.write_text(path.read_text(encoding="utf-8") + "\n\n",
                        encoding="utf-8")
        assert len(load_manifest(path)) == 3


class TestLoadErrors:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestFormatError, match="cannot read"):
            load_manifest(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ManifestFormatError, match="empty"):
            load_manifest(path)

    def test_header_not_json(self, tmp_path):
        path = self.write_lines(tmp_path, ["not json at all"])
        with pytest.raises(ManifestFormatError, match="line 1"):
            load_manifest(path)

    def test_header_wrong_format_name(self, tmp_path):
        path = self.write_lines(
            tmp_path, [json.dumps({"format": "something-else", "version": 1})])
        with pytest.raises(ManifestFormatError, match="header"):
            load_manifest(path)

    def test_header_wrong_version(self, tmp_path):
        path = self.write_lines(
            tmp_path, [json.dumps({"format": MANIFEST_FORMAT, "version": 99})])
        with pytest.raises(ManifestFormatError, match="version 99"):
            load_manifest(path)

    def test_bad_record_line_is_reported_with_its_number(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [json.dumps({"format": MANIFEST_FORMAT, "version": 1}),
             json.dumps({"id": "utt-0", "audio_duration_s": 3.0,
                         "reference_transcript": "ok", "speaker_tag": "",
                         "expected_doc_id": None}),
             "{broken",
             ])
        with pytest.raises(ManifestFormatError, match="line 3"):
            load_manifest(path)

    def test_record_missing_fields(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [json.dumps({"format": MANIFEST_FORMAT, "version": 1}),
             json.dumps({"id": "utt-0"})])
        with pytest.raises(ManifestFormatError, match="line 2"):
            load_manifest(path)

    def record_line(self, tmp_path, **fields):
        """A manifest whose line 2 is a good record and line 3 the same
        record under id ``utt-1`` with ``fields`` replaced."""
        good = {"id": "utt-0", "audio_duration_s": 3.0,
                "reference_transcript": "ok", "speaker_tag": "",
                "expected_doc_id": None}
        return self.write_lines(
            tmp_path,
            [json.dumps({"format": MANIFEST_FORMAT, "version": 1}),
             json.dumps(good), json.dumps({**good, "id": "utt-1", **fields})])

    @pytest.mark.parametrize("fields, named", [
        ({"audio_duration_s": "6.3"}, "audio_duration_s"),
        ({"audio_duration_s": True}, "audio_duration_s"),
        ({"audio_duration_s": None}, "audio_duration_s"),
        ({"reference_transcript": ["a", "list"]}, "reference_transcript"),
        ({"id": 7}, "id"),
        ({"speaker_tag": None}, "speaker_tag"),
        ({"expected_doc_id": 3}, "expected_doc_id"),
    ])
    def test_record_field_of_the_wrong_json_type(self, tmp_path, fields, named):
        path = self.record_line(tmp_path, **fields)
        with pytest.raises(ManifestFormatError,
                           match=f"line 3: wrong JSON type for {named}$"):
            load_manifest(path)

    @pytest.mark.parametrize("fields, problem", [
        ({"audio_duration_s": -1.0}, "audio_duration_s must be finite and > 0"),
        ({"audio_duration_s": 0}, "audio_duration_s must be finite and > 0"),
        ({"audio_duration_s": float("nan")}, "audio_duration_s must be finite"),
        ({"id": ""}, "id must be non-empty"),
        ({"reference_transcript": "  "}, "reference_transcript must contain"),
        ({"expected_doc_id": ""}, "expected_doc_id must be None or non-empty"),
    ])
    def test_invalid_record_names_its_line_and_problem(self, tmp_path, fields,
                                                       problem):
        path = self.record_line(tmp_path, **fields)
        with pytest.raises(ManifestFormatError, match="line 3: " + problem):
            load_manifest(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = self.record_line(tmp_path, id="utt-0")
        with pytest.raises(ManifestFormatError,
                           match="line 3: duplicate id 'utt-0', first on line 2$"):
            load_manifest(path)

    def test_integer_duration_loads_as_a_float(self, tmp_path):
        path = self.record_line(tmp_path, audio_duration_s=6)
        record = load_manifest(path)[1]
        assert record.audio_duration_s == 6.0
        assert type(record.audio_duration_s) is float


class TestSynthesize:
    def test_same_seed_same_records(self, docs_dir):
        a = synthesize_manifest(20, 6.36, docs_dir, seed=42)
        b = synthesize_manifest(20, 6.36, docs_dir, seed=42)
        assert a == b

    def test_different_seeds_differ(self, docs_dir):
        a = synthesize_manifest(20, 6.36, docs_dir, seed=1)
        b = synthesize_manifest(20, 6.36, docs_dir, seed=2)
        assert a != b

    def test_ids_speakers_and_grounding(self, docs_dir):
        records = synthesize_manifest(12, 6.36, docs_dir, seed=7)
        assert [r.id for r in records] == [f"utt-{i:02d}" for i in range(12)]
        assert all(r.speaker_tag == ("speaker-a" if i % 2 == 0 else "speaker-b")
                   for i, r in enumerate(records))
        for record in records:
            assert record.expected_doc_id is not None
            assert f"Regarding {record.expected_doc_id}," in record.reference_transcript
            assert record.reference_transcript.endswith("should be handled?")

    def test_durations_are_clamped_and_rounded(self, docs_dir):
        records = synthesize_manifest(200, 6.36, docs_dir, seed=11)
        for record in records:
            assert DURATION_MIN_S <= record.audio_duration_s <= DURATION_MAX_S
            assert record.audio_duration_s == round(record.audio_duration_s, 3)

    def test_mean_duration_tracks_the_request(self, docs_dir):
        records = synthesize_manifest(500, 6.36, docs_dir, seed=42)
        mean = statistics.fmean(r.audio_duration_s for r in records)
        # log-normal with sigma 0.35 over 500 draws: the sample mean lands
        # well within 0.3 s of the requested mean
        assert math.isclose(mean, 6.36, abs_tol=0.3)

    def test_round_trips_through_a_file(self, docs_dir, tmp_path):
        records = synthesize_manifest(30, 6.36, docs_dir, seed=5)
        path = tmp_path / "synth.jsonl"
        write_manifest(records, path)
        assert load_manifest(path) == records

    def test_output_is_pinned(self, docs_dir, tmp_path):
        # Digest of the manifest as generated when every draw re-tokenized
        # its document; tokenizing each document once must not change it.
        path = tmp_path / "pinned.jsonl"
        write_manifest(synthesize_manifest(400, 6.36, docs_dir, seed=5), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6a42a9d37347b3de57a256b1802be71c9c88692deba423be67c201cbb4830c3f")

    @staticmethod
    def edge_corpus(root):
        """Names whose stem order differs from their name order, a dotfile,
        a file named just ``.txt``, an ignored ``.TXT``, and a document
        with no words."""
        root.mkdir()
        bodies = {"a.txt": "alpha bravo charlie", "a-b.txt": "delta echo\r\nfoxtrot",
                  "a.b.txt": "golf hotel", ".hidden.txt": "india juliet kilo",
                  ".txt": "lima mike", "b.txt": "-- ?! ...", "C.TXT": "never listed"}
        for name, body in bodies.items():
            (root / name).write_text(body, encoding="utf-8")
        return root

    def test_drawing_lazily_matches_drawing_from_the_loaded_corpus(self, tmp_path):
        docs = self.edge_corpus(tmp_path / "docs")
        for seed in range(5):
            got = synthesize_manifest(60, 6.36, docs, seed)
            assert got == reference_synthesize(60, 6.36, docs, seed)
        drawn = {r.expected_doc_id for r in got}
        assert drawn == {"a", "a-b", "a.b", ".hidden", ".txt", "b"}

    def test_only_drawn_documents_are_read(self, tmp_path):
        docs = self.edge_corpus(tmp_path / "docs")
        (docs / "zz-bad.txt").write_bytes(b"caf\xe9 latin-1")
        n = len(corpus_paths(docs))
        # Seed 1's first draw is not the last file, zz-bad; with 200 draws
        # every file is drawn.
        assert random.Random(1).randrange(n) != n - 1
        assert synthesize_manifest(1, 6.36, docs, seed=1)
        with pytest.raises(CorpusIOError, match=re.escape(str(docs / "zz-bad.txt"))):
            synthesize_manifest(200, 6.36, docs, seed=1)

    def test_input_validation(self, docs_dir):
        with pytest.raises(ValueError):
            synthesize_manifest(0, 6.36, docs_dir, seed=1)
        with pytest.raises(ValueError):
            synthesize_manifest(5, 0.0, docs_dir, seed=1)
