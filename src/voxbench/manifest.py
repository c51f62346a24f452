"""Dataset manifest format and synthetic dataset generation.

A manifest is line-delimited: the first line is a JSON header object
naming the format and version, every following line is one utterance
record as a JSON object. The format is append-friendly and diffs cleanly.
Round-tripping a record list through a file preserves every field
exactly (floats included, via JSON shortest-repr doubles).
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path
from typing import Sequence

from .errors import ManifestFormatError
from .retrieval import corpus_paths, read_document
from .types import UtteranceRecord, utterance_violations

MANIFEST_FORMAT = "voxbench-manifest"
MANIFEST_VERSION = 1

# Duration model for synthetic datasets: log-normal around the requested
# mean, clamped to a plausible utterance range.
DURATION_SIGMA = 0.35
DURATION_MIN_S = 2.0
DURATION_MAX_S = 20.0

_QUESTION_WORDS = 10
_WORD_ONLY = re.compile(r"[^0-9A-Za-z-]+")

# The JSON type of each record field; records parse integers as floats.
_FIELD_TYPES = {"id": str, "audio_duration_s": float, "reference_transcript": str,
                "speaker_tag": str, "expected_doc_id": (str, type(None))}
_RECORD_DECODER = json.JSONDecoder(parse_int=float)


def write_manifest(records: Sequence[UtteranceRecord], path: str | Path) -> None:
    lines = [json.dumps({"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION},
                        separators=(",", ":"))]
    for rec in records:
        row = {
            "id": rec.id,
            "audio_duration_s": rec.audio_duration_s,
            "reference_transcript": rec.reference_transcript,
            "speaker_tag": rec.speaker_tag,
            "expected_doc_id": rec.expected_doc_id,
        }
        lines.append(json.dumps(row, separators=(",", ":"), ensure_ascii=False))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> list[UtteranceRecord]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestFormatError(f"cannot read manifest {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ManifestFormatError(f"manifest {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ManifestFormatError(f"manifest {path} line 1: bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != MANIFEST_FORMAT:
        raise ManifestFormatError(f"manifest {path} line 1 is not a {MANIFEST_FORMAT} header")
    if header.get("version") != MANIFEST_VERSION:
        raise ManifestFormatError(
            f"manifest {path} has version {header.get('version')}, "
            f"expected {MANIFEST_VERSION}")
    records: list[UtteranceRecord] = []
    first_line: dict[str, int] = {}

    def bad(message: str) -> ManifestFormatError:
        return ManifestFormatError(f"manifest {path} line {lineno}: {message}")

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            row = _RECORD_DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise bad(str(exc)) from exc
        if not isinstance(row, dict) or not _FIELD_TYPES.keys() <= row.keys():
            raise bad(f"record must carry fields {tuple(_FIELD_TYPES)}")
        wrong = [name for name, kind in _FIELD_TYPES.items()
                 if not isinstance(row[name], kind)]
        if wrong:
            raise bad(f"wrong JSON type for {', '.join(wrong)}")
        record = UtteranceRecord(
            id=row["id"],
            audio_duration_s=row["audio_duration_s"],
            reference_transcript=row["reference_transcript"],
            speaker_tag=row["speaker_tag"],
            expected_doc_id=row["expected_doc_id"],
        )
        problems = utterance_violations(record)
        if problems:
            raise bad("; ".join(problems))
        seen = first_line.setdefault(record.id, lineno)
        if seen != lineno:
            raise bad(f"duplicate id {record.id!r}, first on line {seen}")
        records.append(record)
    return records


def _words(text: str) -> list[str]:
    return [w for w in (_WORD_ONLY.sub("", t) for t in text.lower().split()) if w]


def _question_words(words: list[str], rng: random.Random) -> list[str]:
    if not words:
        return ["this", "topic"]
    return [rng.choice(words) for _ in range(_QUESTION_WORDS)]


def synthesize_manifest(count: int, mean_duration_s: float,
                        docs_dir: str | Path, seed: int) -> list[UtteranceRecord]:
    """Fabricate ``count`` utterances grounded in a document corpus.

    Durations are drawn log-normal with the requested mean (sigma fixed at
    DURATION_SIGMA) and clamped to [DURATION_MIN_S, DURATION_MAX_S]. Each
    transcript is a question template over words sampled from one
    document, and expected_doc_id names that document. Same seed, same
    corpus: byte-identical manifests.

    Documents are drawn from ``corpus_paths(docs_dir)`` and only the drawn
    ones are read, each once, so at most ``count`` files are opened and a
    file that is never drawn is never read.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not mean_duration_s > 0.0:
        raise ValueError(f"mean_duration_s must be > 0, got {mean_duration_s}")
    paths = corpus_paths(docs_dir)
    rng = random.Random(seed)
    mu = math.log(mean_duration_s) - DURATION_SIGMA ** 2 / 2.0
    width = len(str(count - 1))
    records: list[UtteranceRecord] = []
    # doc_id and words of each drawn position in ``paths``, read and
    # tokenized once: a small corpus is drawn from hundreds of times, a
    # large one mostly once per document.
    drawn: dict[int, tuple[str, list[str]]] = {}
    for i in range(count):
        pick = rng.randrange(len(paths))
        duration = min(max(rng.lognormvariate(mu, DURATION_SIGMA), DURATION_MIN_S),
                       DURATION_MAX_S)
        if pick not in drawn:
            doc = read_document(paths[pick])
            drawn[pick] = doc.doc_id, _words(doc.text)
        doc_id, words = drawn[pick]
        sampled = " ".join(_question_words(words, rng))
        transcript = (f"Regarding {doc_id}, can you explain how "
                      f"{sampled} should be handled?")
        records.append(UtteranceRecord(
            id=f"utt-{i:0{width}d}",
            audio_duration_s=round(duration, 3),
            reference_transcript=transcript,
            speaker_tag=f"speaker-{'ab'[i % 2]}",
            expected_doc_id=doc_id,
        ))
    return records
