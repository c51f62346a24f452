"""Domain type construction and validation."""

import dataclasses
import math

import pytest

from voxbench.types import (
    StageTimings,
    UtteranceRecord,
    timings_violations,
    utterance_violations,
    word_count,
)


def good_timings(**overrides):
    base = dict(utterance_id="u1", asr_s=0.049, rag_s=0.008, llm_s=0.67,
                tts_s=0.286, total_s=0.934, asr_words_per_sec=394.18,
                llm_tokens_per_sec_obs=80.06, asr_rtf_obs=0.0077,
                ttft_s=0.106, ttfa_s=0.678, cosine_similarity=0.873,
                sentence_count=2)
    base.update(overrides)
    return StageTimings(**base)


def test_word_count():
    assert word_count("") == 0
    assert word_count("   ") == 0
    assert word_count("one two  three\nfour") == 4


def test_values_are_frozen():
    rec = UtteranceRecord("u1", 6.36, "Say hello.")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.id = "other"


def test_valid_utterance_has_no_violations():
    rec = UtteranceRecord("u1", 6.36, "Say hello.", "speaker-a", "doc00")
    assert utterance_violations(rec) == []


def test_utterance_violations_are_listed():
    rec = UtteranceRecord("", -1.0, "   ", expected_doc_id="")
    problems = utterance_violations(rec)
    assert len(problems) == 4
    assert any("id" in p for p in problems)
    assert any("audio_duration_s" in p for p in problems)


def test_utterance_rejects_non_finite_duration():
    assert utterance_violations(UtteranceRecord("u", math.inf, "hi"))
    assert utterance_violations(UtteranceRecord("u", math.nan, "hi"))


def test_timings_happy_path():
    assert timings_violations(good_timings()) == []


def test_timings_ttfa_before_ttft_is_flagged():
    assert timings_violations(good_timings(ttfa_s=0.05)) == ["ttfa_s must be >= ttft_s"]


def test_timings_total_below_stage_floor_is_flagged():
    assert timings_violations(good_timings(total_s=0.3))


def test_timings_cosine_out_of_range_is_flagged():
    assert timings_violations(good_timings(cosine_similarity=1.5))


def test_timings_nan_cells_are_tolerated():
    # Failed runs carry NaN in unreached columns; validation skips them.
    t = good_timings(ttfa_s=math.nan, ttft_s=math.nan, cosine_similarity=math.nan)
    assert timings_violations(t) == []
