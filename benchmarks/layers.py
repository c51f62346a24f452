"""Per-layer timing, measured from outside the program.

The traced pass hands ``run_dataset`` a stage factory whose stages wrap
the simulators and stamp ``perf_counter`` at each call boundary. The
orchestrator's own steps show up as the gaps between those stamps:

    transcribe return -> warmup entry     retrieval + rag pause + thread start
    warmup return -> generate entry       epoch wake-up + make_response
    sink call                             segmenter + frame encode + channel put
    ship return -> synthesize entry       channel handoff

Retrieval, segmenter and wire costs are timed by direct calls to their
public functions over the workload's own transcripts, replies and
sentences. All values are real microseconds unless the name says
otherwise.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from voxbench import (
    PipelineConfig,
    SentenceSegmenter,
    StageSet,
    UtteranceResult,
    build_prompt,
    build_simulated_stages,
    decode_frame,
    embed,
    encode_frame,
    make_response,
    search,
    summarize,
)
from voxbench.cli import write_summary_json, write_timings_csv
from voxbench.stages import stream_tokens
from voxbench.types import word_count

from oracle import COLD_START_MULTIPLIER

# A token that ends a sentence: terminator, closers, then whitespace.
_COMPLETES_SENTENCE = re.compile(r"[.!?][\"')\]]*\s+$")

# Direct-call samples per layer; bounds the micro-loops on large_corpus,
# where one search takes tens of milliseconds.
QUERY_SAMPLES = 60

now = time.perf_counter


@dataclass
class Spans:
    """Call-boundary stamps (perf_counter seconds) for one utterance."""

    factory_at: float
    audio_s: float = 0.0
    asr: tuple[float, float] = (0.0, 0.0)
    warmup: tuple[float, float] = (0.0, 0.0)
    generate: tuple[float, float] = (0.0, 0.0)
    # (entry, return, token text) per sink call, in token order.
    sinks: list[tuple[float, float, str]] = field(default_factory=list)
    # (entry, return, words) per synthesize call, in sentence order.
    synths: list[tuple[float, float, int]] = field(default_factory=list)


class _Asr:
    def __init__(self, inner, spans: Spans) -> None:
        self._inner, self._spans = inner, spans

    def transcribe(self, utterance):
        self._spans.audio_s = utterance.audio_duration_s
        t = now()
        try:
            return self._inner.transcribe(utterance)
        finally:
            self._spans.asr = (t, now())


class _Llm:
    def __init__(self, inner, spans: Spans) -> None:
        self._inner, self._spans = inner, spans

    def generate(self, prompt, response, sink):
        sinks = self._spans.sinks

        def traced_sink(event):
            t = now()
            try:
                sink(event)
            finally:
                sinks.append((t, now(), event.text))

        t = now()
        try:
            return self._inner.generate(prompt, response, traced_sink)
        finally:
            self._spans.generate = (t, now())


class _Tts:
    def __init__(self, inner, spans: Spans) -> None:
        self._inner, self._spans = inner, spans

    def warmup(self):
        t = now()
        try:
            return self._inner.warmup()
        finally:
            self._spans.warmup = (t, now())

    def synthesize(self, sentence):
        t = now()
        try:
            return self._inner.synthesize(sentence)
        finally:
            self._spans.synths.append((t, now(), word_count(sentence.text)))


def traced_factory(log: list[Spans]) -> Callable[[PipelineConfig, int], StageSet]:
    """A ``run_dataset`` stage factory that appends one Spans per utterance."""

    def factory(config: PipelineConfig, seed: int) -> StageSet:
        spans = Spans(factory_at=now())
        log.append(spans)
        inner = build_simulated_stages(config, seed=seed)
        return StageSet(asr=_Asr(inner.asr, spans), llm=_Llm(inner.llm, spans),
                        tts=_Tts(inner.tts, spans), clock=inner.clock)

    return factory


def _us(seconds: float) -> float:
    return seconds * 1e6


class LayerSamples:
    """Per-layer sample lists, folded into p50/p90 metrics at the end."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def metrics(self) -> dict[str, float]:
        out = dict(self.values)
        for name, values in self.samples.items():
            p50, p90 = np.percentile(values, [50, 90])
            out[f"{name}_p50"] = float(p50)
            out[f"{name}_p90"] = float(p90)
        return out


def add_span_metrics(layers: LayerSamples, log: list[Spans],
                     results: list[UtteranceResult], batch_starts: set[int],
                     config: PipelineConfig) -> None:
    """Fold the traced pass's spans into stage and orchestrator metrics.

    ``log[i]`` belongs to ``results[i]``; failed utterances are skipped.
    ``batch_starts`` holds the indexes of utterances that began a new
    ``run_dataset`` call; the utterance before one has no measurable tail.
    """
    scale = config.time_scale
    synth_per_word = config.tts_rtf / config.speaking_rate_wps
    interval = 1.0 / config.llm_tokens_per_sec
    high_water = 0
    tokens, sentences = [], []
    for i, (sp, result) in enumerate(zip(log, results)):
        if result.failed:
            continue
        layers.add("stages.asr_overshoot_us",
                   _us(sp.asr[1] - sp.asr[0] - sp.audio_s * config.asr_rtf * scale))
        layers.add("orchestrator.rag_to_warmup_us",
                   _us(sp.warmup[0] - sp.asr[1] - config.rag_latency_s * scale))
        layers.add("stages.warmup_overshoot_us",
                   _us(sp.warmup[1] - sp.warmup[0]
                       - COLD_START_MULTIPLIER * synth_per_word * scale))
        layers.add("orchestrator.epoch_wake_us", _us(sp.generate[0] - sp.warmup[1]))

        # Return of the call that put each sentence on the channel: the
        # sink call of its last token, or generate's return for the
        # sentence flushed after the stream ends.
        ship_returns = []
        for n, (entry, ret, text) in enumerate(sp.sinks):
            due = sp.generate[0] + (config.llm_ttft_s + n * interval) * scale
            layers.add("stages.token_late_us", _us(entry - due))
            layers.add("orchestrator.sink_us", _us(ret - entry))
            if _COMPLETES_SENTENCE.search(text):
                layers.add("orchestrator.ship_us", _us(ret - entry))
                ship_returns.append(ret)
        in_stream = len(ship_returns)
        if in_stream < len(sp.synths):
            ship_returns.append(sp.generate[1])

        # free[j]: when the consumer became ready to dequeue sentence j.
        free = [sp.warmup[1]] + [ret for _, ret, _ in sp.synths[:-1]]
        busy = 0.0
        for j, (entry, ret, words) in enumerate(sp.synths):
            layers.add("stages.synth_overshoot_us",
                       _us(ret - entry - words * synth_per_word * scale))
            layers.add("orchestrator.handoff_us",
                       _us(entry - max(ship_returns[j], free[j])))
            # Channel depth right after sentence j's put: j itself plus each
            # earlier sentence whose consumer was still busy when the put
            # had returned. A lower bound, so it never exceeds capacity. The
            # flushed sentence's put time is unseen; it counts itself only.
            queued = 1
            if j < in_stream:
                queued += sum(1 for k in range(j) if free[k] > ship_returns[j])
            high_water = max(high_water, queued)
            busy += ret - entry
        span = sp.synths[-1][1] - sp.warmup[1]
        layers.add("orchestrator.consumer_idle_frac", 1.0 - busy / span)
        if i + 1 < len(log) and i + 1 not in batch_starts:
            layers.add("orchestrator.tail_us", _us(log[i + 1].factory_at - sp.synths[-1][1]))
        tokens.append(len(sp.sinks))
        sentences.append(len(sp.synths))
    layers.values["orchestrator.queue_high_water"] = float(high_water)
    layers.values["orchestrator.tokens"] = float(np.median(tokens))
    layers.values["orchestrator.sentences"] = float(np.median(sentences))


def add_direct_call_metrics(layers: LayerSamples, results: list[UtteranceResult],
                            transcripts: list[str], config: PipelineConfig,
                            index, work: Path) -> None:
    """Time the public retrieval, stages, segmenter, wire, metrics and
    report functions directly on the workload's own inputs and outputs."""
    dim, k = config.embed_dim, config.retrieval_k
    seen = set()
    for text in transcripts:
        if text in seen or len(seen) == QUERY_SAMPLES:
            continue
        seen.add(text)
        t0 = now()
        vec = embed(text, dim)
        t1 = now()
        hits = search(index, vec, k)
        t2 = now()
        prompt = build_prompt(text, hits, index)
        t3 = now()
        make_response(prompt, hits, index, config.response_sentences)
        t4 = now()
        layers.add("retrieval.embed_us", _us(t1 - t0))
        layers.add("retrieval.search_us", _us(t2 - t1))
        layers.add("retrieval.build_prompt_us", _us(t3 - t2))
        layers.add("stages.make_response_us", _us(t4 - t3))

    replies = {r.response for r in results[:QUERY_SAMPLES]}
    for reply in replies:
        tokens = stream_tokens(reply)
        segmenter = SentenceSegmenter()
        t0 = now()
        for n, token in enumerate(tokens):
            segmenter.feed(token, float(n))
        segmenter.flush(float(len(tokens)))
        layers.add("segmenter.feed_us_per_token", _us(now() - t0) / len(tokens))

    for result in results[:QUERY_SAMPLES]:
        for sentence in result.sentences:
            t0 = now()
            data = encode_frame(sentence)
            t1 = now()
            decode_frame(data)
            t2 = now()
            layers.add("wire.encode_us", _us(t1 - t0))
            layers.add("wire.decode_us", _us(t2 - t1))
            layers.add("wire.frame_bytes", float(len(data)))

    ok = [r for r in results if not r.failed]
    t0 = now()
    summary = summarize([r.timings for r in ok]) if ok else None
    t1 = now()
    write_timings_csv(results, work / "per_utterance.csv")
    write_summary_json(summary, len(results), len(results) - len(ok), work / "summary.json")
    t2 = now()
    layers.values["metrics.summarize_ms"] = (t1 - t0) * 1e3
    layers.values["cli.report_ms"] = (t2 - t1) * 1e3
