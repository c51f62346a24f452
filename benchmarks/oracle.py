"""Exact schedule oracle and output check for jitter-free voxbench runs.

``schedule`` is a pure function of the config, the utterance's audio
length and the reply's sentence word counts. It returns the timeline a
run would report if every modeled delay took exactly its modeled time and
orchestration cost nothing, in modeled seconds:

* head = audio * asr_rtf + rag_latency + 3 * (1 word / wps) * tts_rtf.
  The last term is the synthesizer's cold-start warmup of a one-word
  sentence at three times the normal cost. The generation epoch is the
  end of the head.
* Sentence i (not the last) is emitted at ``ttft + (cum_tokens_i - 1) /
  rate``, counted from the epoch: the token that carries the terminator
  also carries the trailing space that decides the boundary.
* The last sentence is emitted at flush, ``ttft + n_tokens / rate``.
* Synthesis is one consumer: ``busy = max(busy, emit) + words / wps *
  tts_rtf``. ttfa is the first sentence's completion and total is
  head + the last completion.

Every real delay is at least its modeled one, so a reported value below
the oracle means the oracle is wrong, not the run.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from voxbench import PipelineConfig, UtteranceResult, VectorIndex, embed, make_response

COLD_START_MULTIPLIER = 3.0

_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")


@dataclass(frozen=True)
class Timeline:
    """Modeled seconds. ``epoch_s``/``total_s`` count from ASR start;
    ``ttft_s``, ``emits``, ``done`` and ``ttfa_s`` from the epoch."""

    asr_s: float
    rag_s: float
    warmup_s: float
    epoch_s: float
    ttft_s: float
    emits: tuple[float, ...]
    done: tuple[float, ...]
    ttfa_s: float
    total_s: float


def sentence_words(reply: str) -> list[int]:
    """Word count of each sentence of a fabricated reply."""
    return [len(s.split()) for s in _SENTENCE_END.split(reply.strip())]


def schedule(config: PipelineConfig, audio_duration_s: float,
             words: list[int]) -> Timeline:
    if config.jitter_frac != 0.0:
        raise ValueError("the schedule oracle is exact only with jitter_frac = 0")
    if not words:
        raise ValueError("a reply has at least one sentence")
    interval = 1.0 / config.llm_tokens_per_sec
    synth_per_word = config.tts_rtf / config.speaking_rate_wps
    asr = audio_duration_s * config.asr_rtf
    rag = config.rag_latency_s
    warmup = COLD_START_MULTIPLIER * synth_per_word
    epoch = asr + rag + warmup
    ttft = config.llm_ttft_s
    n_tokens = sum(words)
    emits = []
    cum = 0
    for w in words[:-1]:
        cum += w
        emits.append(ttft + (cum - 1) * interval)
    emits.append(ttft + n_tokens * interval)
    done = []
    busy = 0.0
    for emit, w in zip(emits, words):
        busy = max(busy, emit) + w * synth_per_word
        done.append(busy)
    return Timeline(asr_s=asr, rag_s=rag, warmup_s=warmup, epoch_s=epoch,
                    ttft_s=ttft, emits=tuple(emits), done=tuple(done),
                    ttfa_s=done[0], total_s=epoch + done[-1])


class OracleError(RuntimeError):
    """A run reported less time than the exact schedule allows."""


def check_not_below(result: UtteranceResult, timeline: Timeline,
                    time_scale: float) -> None:
    """Raise OracleError if total/ttft/ttfa fall more than 1 us of real
    time below the oracle."""
    slack = 1e-6 / time_scale
    t = result.timings
    for name, reported, modeled in (("total_s", t.total_s, timeline.total_s),
                                    ("ttft_s", t.ttft_s, timeline.ttft_s),
                                    ("ttfa_s", t.ttfa_s, timeline.ttfa_s)):
        if not reported >= modeled - slack:
            raise OracleError(
                f"{t.utterance_id}: reported {name}={reported!r} is below the "
                f"oracle's {modeled!r} by more than 1 us of real time")


class OutputChecker:
    """Checks one utterance's outputs against independent references.

    The search reference is a full sort of every score, ties broken by
    doc_id, over a matrix copied once from the index's public entries.
    """

    def __init__(self, config: PipelineConfig, index: VectorIndex) -> None:
        self._config = config
        self._index = index
        entries = index.entries
        by_id = sorted(range(len(entries)), key=lambda row: entries[row][0])
        self._ids = [entries[row][0] for row in by_id]
        self._matrix = np.stack([entries[row][1] for row in by_id])
        self._topk: dict[str, list[tuple[str, float]]] = {}

    def expected_topk(self, transcript: str) -> list[tuple[str, float]]:
        cached = self._topk.get(transcript)
        if cached is None:
            scores = self._matrix @ embed(transcript, self._config.embed_dim)
            # Rows are in doc_id order, so a stable sort on -score breaks
            # ties by doc_id.
            order = np.argsort(-scores, kind="stable")[:self._config.retrieval_k]
            cached = [(self._ids[row], float(scores[row])) for row in order]
            self._topk[transcript] = cached
        return cached

    def expected_reply(self, result: UtteranceResult) -> str:
        return make_response(result.prompt, result.retrieved, self._index,
                             self._config.response_sentences)

    def problems(self, result: UtteranceResult, transcript: str, reply: str,
                 timeline: Timeline) -> list[str]:
        """``reply`` is ``expected_reply(result)``; ``timeline`` its schedule."""
        found = []
        if result.response != reply:
            found.append("response differs from make_response")
        if len(timeline.done) != self._config.response_sentences:
            found.append(f"reply splits into {len(timeline.done)} sentences, "
                         f"not {self._config.response_sentences}")
        want = self.expected_topk(transcript)
        got = list(result.retrieved)
        if ([d for d, _ in got] != [d for d, _ in want]
                or not all(math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)
                           for (_, a), (_, b) in zip(got, want))):
            found.append(f"retrieved {got} != full-sort top-k {want}")
        if result.timings.sentence_count != len(timeline.done):
            found.append(f"sentence_count {result.timings.sentence_count} != "
                         f"oracle {len(timeline.done)}")
        if not result.eos_sent == result.consumer_saw_eos == 1:
            found.append(f"eos_sent={result.eos_sent} "
                         f"consumer_saw_eos={result.consumer_saw_eos}")
        if not result.timings.ttfa_s >= result.timings.ttft_s:
            found.append("ttfa_s < ttft_s")
        return found
