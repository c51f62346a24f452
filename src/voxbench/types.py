"""Immutable data model shared by every pipeline component.

All values are frozen dataclasses: once constructed they can be handed
across threads without locking. Validation is deliberately separate from
construction: ``utterance_violations`` checks a manifest record and
``timings_violations`` a run's report row, each returning a list of
human-readable problems (empty when the value is well formed) so callers
can aggregate several values before deciding to raise.

Time conventions:

* Stage durations (``asr_s``, ``rag_s``, ...) are modeled seconds read
  from ``StageClock``, the only code that converts them to real seconds,
  so they are comparable across runs at different scales.
* Fields named ``*_at_s`` are modeled seconds relative to the
  response-generation epoch of the current utterance (marked after the
  synthesizer's warmup, just before generation starts), except where
  noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def word_count(text: str) -> int:
    """Number of whitespace-delimited words in ``text``."""
    return len(text.split())


@dataclass(frozen=True)
class UtteranceRecord:
    """One spoken input to the pipeline.

    Attributes:
        id: Unique identifier within a dataset.
        audio_duration_s: Length of the source audio in seconds.
        reference_transcript: Ground-truth text of the utterance. The
            simulated recognizer returns it verbatim.
        speaker_tag: Free-form speaker label ("" when unknown).
        expected_doc_id: Document the utterance is about, when known.
            Used by dataset synthesis so retrieval quality is checkable.
    """

    id: str
    audio_duration_s: float
    reference_transcript: str
    speaker_tag: str = ""
    expected_doc_id: str | None = None


@dataclass(frozen=True)
class Transcript:
    """Recognizer output for one utterance."""

    text: str
    word_count: int
    asr_elapsed_s: float


@dataclass(frozen=True)
class Sentence:
    """One segmenter emission.

    ``index`` counts emissions for the current utterance from 0 with no
    gaps. ``emitted_at_s`` is seconds since the generation epoch.
    """

    index: int
    text: str
    emitted_at_s: float


@dataclass(frozen=True)
class AudioSegment:
    """Synthesized audio for one sentence.

    ``synthesized_duration_s`` is the length of the produced audio;
    ``synth_elapsed_s`` is how long synthesis took. ``completed_at_s`` is
    seconds since the generation epoch at which synthesis finished.
    """

    sentence_index: int
    synthesized_duration_s: float
    synth_elapsed_s: float
    completed_at_s: float


@dataclass(frozen=True)
class StageTimings:
    """Per-utterance latency record, one row of the benchmark report.

    Attributes:
        asr_s: Transcription time.
        rag_s: Retrieval time (query embedding, search, prompt assembly
            and the retrieval backend's simulated latency).
        llm_s: Token generation time, first-token wait included.
        tts_s: Sum of per-sentence synthesis times. Synthesis overlaps
            generation, so this is a work total, not a wall-clock span.
        total_s: Wall clock from ASR start to completion of the last
            audio segment. Overlap makes total_s smaller than the sum of
            the stage columns on multi-sentence runs.
        asr_words_per_sec: Transcript words divided by asr_s.
        llm_tokens_per_sec_obs: Decode throughput, tokens divided by
            (llm_s - ttft_s); excludes the first-token wait.
        asr_rtf_obs: asr_s divided by the audio duration.
        ttft_s: First token time, measured from the generation epoch.
        ttfa_s: Completion time of the first audio segment, measured from
            the generation epoch.
        cosine_similarity: Cosine between the transcript embedding and
            the response embedding.
        sentence_count: Number of sentences emitted for the utterance.

    Failed runs may carry NaN in columns that were never reached.
    """

    utterance_id: str
    asr_s: float
    rag_s: float
    llm_s: float
    tts_s: float
    total_s: float
    asr_words_per_sec: float
    llm_tokens_per_sec_obs: float
    asr_rtf_obs: float
    ttft_s: float
    ttfa_s: float
    cosine_similarity: float
    sentence_count: int


def utterance_violations(rec: UtteranceRecord) -> list[str]:
    """Check an UtteranceRecord; return a list of violated invariants."""
    problems: list[str] = []
    if not rec.id:
        problems.append("id must be non-empty")
    if not math.isfinite(rec.audio_duration_s) or rec.audio_duration_s <= 0.0:
        problems.append("audio_duration_s must be finite and > 0")
    if not rec.reference_transcript.strip():
        problems.append("reference_transcript must contain non-whitespace text")
    if rec.expected_doc_id is not None and not rec.expected_doc_id:
        problems.append("expected_doc_id must be None or non-empty")
    return problems


def timings_violations(t: StageTimings) -> list[str]:
    problems: list[str] = []
    if not t.utterance_id:
        problems.append("utterance_id must be non-empty")
    for name in ("asr_s", "rag_s", "llm_s", "tts_s", "total_s", "ttft_s", "ttfa_s"):
        value = getattr(t, name)
        if math.isfinite(value) and value < 0.0:
            problems.append(f"{name} must be >= 0")
    floor = max(t.asr_s, t.rag_s, t.llm_s)
    if math.isfinite(t.total_s) and math.isfinite(floor) and t.total_s + 1e-9 < floor:
        problems.append("total_s must be >= each individual stage time")
    if math.isfinite(t.ttfa_s) and math.isfinite(t.ttft_s) and t.ttfa_s < t.ttft_s:
        problems.append("ttfa_s must be >= ttft_s")
    if math.isfinite(t.cosine_similarity) and not -1.0 <= t.cosine_similarity <= 1.0:
        problems.append("cosine_similarity must lie in [-1, 1]")
    if t.sentence_count < 0:
        problems.append("sentence_count must be >= 0")
    return problems
