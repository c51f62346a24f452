"""Simulated pipeline stages and the clock they share.

Each simulator blocks for a modeled duration instead of doing real work,
which makes end-to-end orchestration measurable at any speed. Delays,
instants and elapsed values are modeled seconds at every scale; only
``StageClock`` converts them to real ones. With ``jitter_frac = 0``
every modeled delay is a pure function of config and input; with jitter
enabled each delay is scaled by a uniform factor in
[1 - jitter_frac, 1 + jitter_frac] drawn from the clock's RNG.

The Protocol classes at the bottom are the extension point for real
model adapters. They share the simulator signatures; no real adapter is
bundled here.
"""

from __future__ import annotations

import math
import os
import random
import re
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from .config import PipelineConfig
from .retrieval import VectorIndex
from .segmenter import CLOSERS, TERMINATORS
from .types import AudioSegment, Sentence, Transcript, UtteranceRecord, word_count

# A timer sleep wakes late by Linux's default 50 us timer slack plus
# scheduling. Measured on a 2-core VM, delay past the requested time (us):
#
#   sleep length   p50     p90       p99
#   65 us          56      58-60     -
#   200 us         60-66   -         -
#   2.4 ms         -       100-120   -
#   10 ms          -       -         <= 212
#
# So sleep_until makes at most two timer sleeps: one to _NEAR_S before the
# deadline, which covers a long sleep's p99, then one to _SLACK_S before
# it, which a short sleep's ~56-66 us delay carries just past the deadline.
_NEAR_S = 0.00025
_SLACK_S = 0.000045
# pause sleeps to one sleep(0) step, ~the timer slack, before its deadline
# and yields the rest, which keeps its overshoot near 1 us.
_STEP_S = 0.00006
_yield = getattr(os, "sched_yield", lambda: time.sleep(0))  # none on Windows

# Words in the lead sentence of a fabricated reply. Together with the
# 12-word follow-up windows this keeps the default two-sentence reply at
# 45 words.
LEAD_SENTENCE_WORDS = 33
WINDOW_WORDS = 12

WARMUP_TEXT = "Warmup."
COLD_START_MULTIPLIER = 3.0

_LEAD_TEMPLATE = ("The most relevant document for this question is {doc_id}, and "
                  "the key points it makes are summarized next:")
_FALLBACK_LEAD = ("No matching document was found, so the following is a generic "
                  "placeholder answer assembled from fixed filler text:")
_FALLBACK_WORDS = ("the system keeps answering at its usual pace while indexing "
                   "recovers and new documents arrive for later questions").split()


@dataclass(frozen=True)
class TokenEvent:
    """One streamed token: its text, trailing whitespace included. The
    sink's caller stamps the time it arrived."""

    text: str


class StageClock:
    """Modeled-time source shared by the stages of one run: the only code
    that converts, at ``time_scale`` real seconds per modeled second."""

    def __init__(self, time_scale: float = 1.0, rng: random.Random | None = None) -> None:
        if not (time_scale > 0.0 and math.isfinite(time_scale)):
            raise ValueError(f"time_scale must be finite and > 0, got {time_scale}")
        self.time_scale = float(time_scale)
        self.rng = rng if rng is not None else random.Random()
        self._origin = time.perf_counter()

    def now(self) -> float:
        """Modeled seconds since the clock was made."""
        return (time.perf_counter() - self._origin) / self.time_scale

    def jitter(self, jitter_frac: float) -> float:
        """Draw one multiplicative jitter factor (1.0 when jitter is off)."""
        if jitter_frac <= 0.0:
            return 1.0
        return self.rng.uniform(1.0 - jitter_frac, 1.0 + jitter_frac)

    def sleep_until(self, deadline: float) -> None:
        """Sleep until the modeled instant ``deadline``: at most two timer
        sleeps, then ``sleep(0)`` steps only if the last one woke early."""
        if not math.isfinite(deadline):
            raise ValueError(f"deadline must be finite, got {deadline}")
        end = self._origin + deadline * self.time_scale
        for guard in (_NEAR_S, _SLACK_S):
            remaining = end - time.perf_counter()
            if remaining > guard:
                time.sleep(remaining - guard)
        while time.perf_counter() < end:
            time.sleep(0)

    def pause(self, seconds: float) -> float:
        """Block for ``seconds`` of modeled time; return the modeled time
        that passed, which is what gets reported. The last step yields,
        so the overshoot is ~1 us, not up to one step."""
        start = self.now()
        deadline = start + max(seconds, 0.0)
        self.sleep_until(deadline - _STEP_S / self.time_scale)
        while self.now() < deadline:
            _yield()  # releases the GIL, unlike a bare busy loop
        return self.now() - start

    def unscale_since(self, start: float) -> float:
        """Return the real seconds since modeled instant ``start`` and move
        the origin so ``now()`` counts them once, at 1x. Only safe while no
        other worker of the run is waiting on the clock."""
        real = (self.now() - start) * self.time_scale
        self._origin += real * (1.0 - self.time_scale)
        return real


def stream_tokens(response: str) -> list[str]:
    """Split a response into whitespace-delimited tokens, each carrying its
    trailing whitespace, so concatenation reproduces the response exactly."""
    return [m.group(0) for m in re.finditer(r"\s*\S+\s*", response)]


class SimulatedAsr:
    """Transcription stand-in: blocks proportionally to audio length and
    returns the reference transcript verbatim."""

    def __init__(self, config: PipelineConfig, clock: StageClock) -> None:
        self._config = config
        self._clock = clock

    def transcribe(self, utterance: UtteranceRecord) -> Transcript:
        cfg = self._config
        target = utterance.audio_duration_s * cfg.asr_rtf * self._clock.jitter(cfg.jitter_frac)
        elapsed = self._clock.pause(target)
        text = utterance.reference_transcript
        return Transcript(text=text, word_count=word_count(text), asr_elapsed_s=elapsed)


class SimulatedLlm:
    """Token streamer: waits for the first-token latency, then delivers the
    prepared response one token at a time at the configured rate."""

    def __init__(self, config: PipelineConfig, clock: StageClock) -> None:
        self._config = config
        self._clock = clock

    def generate(self, prompt: str, response: str,
                 sink: Callable[[TokenEvent], None]) -> None:
        # Anchor first: tokenizing then runs inside the first-token wait.
        start = self._clock.now()
        cfg = self._config
        clock = self._clock
        tokens = stream_tokens(response)
        interval = 1.0 / cfg.llm_tokens_per_sec
        # Absolute deadlines, so per-token sleep overshoot cannot accumulate.
        due = cfg.llm_ttft_s * clock.jitter(cfg.jitter_frac)
        for token in tokens:
            clock.sleep_until(start + due)
            sink(TokenEvent(token))
            due += interval * clock.jitter(cfg.jitter_frac)
        # The trailing wait models the end-of-sequence step, so the call
        # lasts ttft plus one interval per token; an empty response still
        # pays the first-token wait before stopping.
        clock.sleep_until(start + due)


class SimulatedTts:
    """Synthesis stand-in: audio length follows the speaking rate, and the
    blocking time follows the synthesis real-time factor.

    The first synthesis after construction pays a one-time cold-start
    penalty of COLD_START_MULTIPLIER times the normal cost unless
    ``warmup()`` absorbed it first. One instance serves one run.
    """

    def __init__(self, config: PipelineConfig, clock: StageClock) -> None:
        self._config = config
        self._clock = clock
        self._warmed = False

    def warmup(self) -> None:
        """Synthesize a throwaway sentence, paying the cold start."""
        self._synthesize_text(WARMUP_TEXT, sentence_index=0)

    def synthesize(self, sentence: Sentence) -> AudioSegment:
        """Block as if synthesizing ``sentence``; return its segment.

        ``completed_at_s`` is NaN: only the orchestrator knows the
        generation epoch, so it stamps the finish time.
        """
        if not sentence.text.strip():
            raise ValueError("cannot synthesize an empty sentence")
        return self._synthesize_text(sentence.text, sentence_index=sentence.index)

    def _synthesize_text(self, text: str, sentence_index: int) -> AudioSegment:
        cfg = self._config
        duration = word_count(text) / cfg.speaking_rate_wps
        target = duration * cfg.tts_rtf * self._clock.jitter(cfg.jitter_frac)
        if not self._warmed:
            target *= COLD_START_MULTIPLIER
            self._warmed = True
        elapsed = self._clock.pause(target)
        return AudioSegment(sentence_index=sentence_index,
                            synthesized_duration_s=duration,
                            synth_elapsed_s=elapsed,
                            completed_at_s=math.nan)


def _clean_words(text: str) -> list[str]:
    """Harvest words from document text, dropping sentence punctuation so a
    fabricated reply contains exactly the boundaries it intends to."""
    return text.translate(str.maketrans("", "", TERMINATORS + CLOSERS)).split()


def _window(words: Sequence[str], start: int, count: int) -> list[str]:
    return [words[(start + i) % len(words)] for i in range(count)]


def make_response(prompt: str, results: Sequence[tuple[str, float]],
                  index: VectorIndex, target_sentences: int) -> str:
    """Fabricate a deterministic reply grounded in the top retrieved document.

    Sentence 1 names the top doc_id and quotes the document's opening
    words, padded to LEAD_SENTENCE_WORDS words; each further sentence is a
    successive 12-word window of the document, terminated with a period.
    Exactly ``target_sentences`` sentences come back. Without results a
    fixed placeholder reply of the same shape is produced.
    """
    if target_sentences < 1:
        raise ValueError(f"target_sentences must be >= 1, got {target_sentences}")
    if results:
        top_id = results[0][0]
        lead_intro = _LEAD_TEMPLATE.format(doc_id=top_id).split()
        words = _clean_words(index.document(top_id).text) or list(_FALLBACK_WORDS)
    else:
        lead_intro = _FALLBACK_LEAD.split()
        words = list(_FALLBACK_WORDS)

    pad = max(LEAD_SENTENCE_WORDS - len(lead_intro), 0)
    lead_words = lead_intro + _window(words, 0, pad)
    sentences = [" ".join(lead_words) + "."]
    offset = pad
    for _ in range(target_sentences - 1):
        sentences.append(" ".join(_window(words, offset, WINDOW_WORDS)) + ".")
        offset += WINDOW_WORDS
    return " ".join(sentences)


class AsrStage(Protocol):
    """Transcription adapter interface (real adapters plug in here)."""

    def transcribe(self, utterance: UtteranceRecord) -> Transcript: ...


class LlmStage(Protocol):
    """Generation adapter interface. ``response`` is the text to stream;
    a real adapter is free to ignore it and generate from the prompt.
    ``generate`` calls ``sink`` once per token and returns when the
    stream ends, letting whatever ``sink`` raises propagate unchanged;
    the caller stamps every instant."""

    def generate(self, prompt: str, response: str,
                 sink: Callable[[TokenEvent], None]) -> None: ...


class TtsStage(Protocol):
    """Synthesis adapter interface."""

    def warmup(self) -> None: ...

    def synthesize(self, sentence: Sentence) -> AudioSegment: ...


@dataclass
class StageSet:
    """The three stages plus the clock they share, owned by one run."""

    asr: AsrStage
    llm: LlmStage
    tts: TtsStage
    clock: StageClock


def build_simulated_stages(config: PipelineConfig, seed: int | None = None) -> StageSet:
    """Fresh simulators sharing one clock; ``seed`` fixes the jitter RNG."""
    rng = random.Random(config.rng_seed if seed is None else seed)
    clock = StageClock(time_scale=config.time_scale, rng=rng)
    return StageSet(asr=SimulatedAsr(config, clock),
                    llm=SimulatedLlm(config, clock),
                    tts=SimulatedTts(config, clock),
                    clock=clock)
