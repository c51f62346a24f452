"""End-to-end pipeline orchestration for one utterance or a dataset.

Schedule for one utterance:

1. Transcribe the full utterance up front (serial).
2. Embed the transcript, search the index, assemble the prompt. The
   retrieval backend's modeled latency is paid here too.
3. Start the synthesis consumer, the run's one worker thread. It warms
   the synthesizer, then polls the bounded sentence channel; each frame is
   decoded and synthesized, and an end-of-stream frame finishes the run.
4. Fabricate the reply during warmup (harness work, kept off the timed
   path). Then mark the generation epoch and generate on the calling
   thread: stream the reply through the sentence segmenter, encode and
   enqueue each completed sentence, then flush and enqueue exactly one
   end-of-stream frame.
5. Join the consumer and assemble the timing record.

The consumer starts before generation, so the first sentence is
synthesized the moment it is emitted and synthesis of sentence i overlaps
generation of sentences i+1 and later. On failure in either side a shared
cancellation flag stops the other within one token interval or one poll
interval, and the run is marked failed. Every wait is bounded by
``_JOIN_GRACE_S``: the warmup, the consumer join, and generation from the
epoch, where a ``put`` still blocked on a full channel or a token arriving
after that deadline fails the run. A ``generate`` call that never returns
is not bounded.
"""

from __future__ import annotations

import math
import queue
import random
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from . import metrics
from .config import PipelineConfig
from .errors import GenerationAbortedError
from .retrieval import VectorIndex, build_prompt, embed, search
from .segmenter import SentenceSegmenter
from .stages import StageSet, TokenEvent, build_simulated_stages, make_response
from .types import (
    AudioSegment,
    Sentence,
    StageTimings,
    UtteranceRecord,
    utterance_violations,
)
from .wire import KIND_END, decode_frame, encode_end, encode_frame, frame_to_sentence

# Real-seconds bound on each wait of a run; generous so slow CI machines
# fail loudly by timeout only when something is actually wedged.
_JOIN_GRACE_S = 60.0


class SentenceChannel:
    """Bounded FIFO of encoded frames between producer and consumer.

    ``poll`` blocks for at most one poll interval and returns None on
    timeout; a timeout is a retry signal, not a failure. ``put`` blocks
    while the channel is full, waking regularly to honor cancellation.
    """

    def __init__(self, capacity: int, poll_timeout_real_s: float) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if poll_timeout_real_s <= 0.0:
            raise ValueError("poll timeout must be > 0")
        self._queue: queue.Queue[bytes] = queue.Queue(maxsize=capacity)
        self._poll_s = poll_timeout_real_s

    def put(self, data: bytes, cancelled: Callable[[], bool]) -> bool:
        """Enqueue ``data``; returns False if cancelled while full."""
        while True:
            try:
                self._queue.put(data, timeout=self._poll_s)
                return True
            except queue.Full:
                if cancelled():
                    return False

    def poll(self) -> bytes | None:
        try:
            return self._queue.get(timeout=self._poll_s)
        except queue.Empty:
            return None


@dataclass(frozen=True)
class UtteranceResult:
    """Everything observable about one utterance run.

    ``warmup_completed_at_s`` and ``llm_epoch_at_s`` are seconds from run
    (ASR) start; warmup always completes before the epoch. ``eos_sent``
    and ``consumer_saw_eos`` count end-of-stream frames enqueued and
    consumed (both exactly 1 on a clean run).
    """

    timings: StageTimings
    sentences: tuple[Sentence, ...]
    segments: tuple[AudioSegment, ...]
    prompt: str
    response: str
    retrieved: tuple[tuple[str, float], ...]
    failed: bool
    error: str | None
    warmup_completed_at_s: float
    llm_epoch_at_s: float
    eos_sent: int
    consumer_saw_eos: int


@dataclass
class _RunState:
    """Mutable scratch shared by the coordinator and its worker."""

    sentences: list[Sentence] = field(default_factory=list)
    segments: list[AudioSegment] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    response: str = ""
    ttft_s: float | None = None
    token_count: int = 0
    llm_elapsed_s: float = math.nan
    warmup_completed_at_s: float = math.nan
    epoch_real: float = math.nan
    llm_epoch_at_s: float = math.nan
    eos_sent: int = 0
    consumer_saw_eos: int = 0


def _nan_timings(utterance: UtteranceRecord) -> StageTimings:
    n = math.nan
    return StageTimings(utterance_id=utterance.id, asr_s=n, rag_s=n, llm_s=n,
                        tts_s=n, total_s=n, asr_words_per_sec=n,
                        llm_tokens_per_sec_obs=n, asr_rtf_obs=n, ttft_s=n,
                        ttfa_s=n, cosine_similarity=n, sentence_count=0)


def run_utterance(utterance: UtteranceRecord, config: PipelineConfig,
                  index: VectorIndex, stages: StageSet) -> UtteranceResult:
    """Run the full pipeline for one utterance; never raises for stage
    failures, which instead mark the result as failed."""
    config.ensure_valid()
    problems = utterance_violations(utterance)
    if problems:
        raise ValueError(f"invalid utterance {utterance.id!r}: " + "; ".join(problems))

    clock = stages.clock
    scale = clock.time_scale
    run_start = clock.now()

    def run_elapsed() -> float:
        return (clock.now() - run_start) / scale

    state = _RunState()

    # 1. Upfront transcription, serial.
    try:
        transcript = stages.asr.transcribe(utterance)
    except Exception as exc:
        state.failures.append(("asr", str(exc)))
        return _failed_result(utterance, state, run_elapsed())

    # 2. Retrieval: real embed/search/prompt work plus modeled backend
    # latency. The real work is measured in real (unscaled) seconds; only
    # modeled delays participate in time scaling.
    try:
        rag_begin = clock.now()
        query_vec = embed(transcript.text, config.embed_dim)
        retrieved = search(index, query_vec, config.retrieval_k)
        prompt = build_prompt(transcript.text, retrieved, index)
        compute_s = clock.now() - rag_begin
        rag_s = compute_s + clock.pause(config.rag_latency_s * clock.jitter(config.jitter_frac))
    except Exception as exc:
        state.failures.append(("rag", str(exc)))
        return _failed_result(utterance, state, run_elapsed())

    channel = SentenceChannel(config.queue_capacity,
                              config.queue_poll_timeout_s * scale)
    cancel = threading.Event()
    warmup_done = threading.Event()

    def llm_elapsed() -> float:
        return (clock.now() - state.epoch_real) / scale

    def consume() -> None:
        try:
            stages.tts.warmup()
            state.warmup_completed_at_s = run_elapsed()
            warmup_done.set()
            while True:
                data = channel.poll()
                if data is None:
                    if cancel.is_set():
                        return
                    continue
                frame, _ = decode_frame(data)
                if frame.kind == KIND_END:
                    state.consumer_saw_eos += 1
                    return
                segment = stages.tts.synthesize(frame_to_sentence(frame))
                segment = replace(segment, completed_at_s=llm_elapsed())
                state.segments.append(segment)
        except Exception as exc:
            state.failures.append(("tts", str(exc)))
            cancel.set()
        finally:
            warmup_done.set()  # never leave the coordinator waiting

    def produce(response: str) -> None:
        deadline = state.epoch_real + _JOIN_GRACE_S

        def stop() -> bool:
            return cancel.is_set() or clock.now() > deadline

        try:
            state.response = response
            segmenter = SentenceSegmenter()

            def ship(sentence: Sentence) -> None:
                state.sentences.append(sentence)
                if not channel.put(encode_frame(sentence), stop):
                    raise GenerationAbortedError("channel still full at cancel or deadline")

            def sink(event: TokenEvent) -> None:
                if stop():
                    raise GenerationAbortedError("token after cancel or deadline")
                for sentence in segmenter.feed(event.text, llm_elapsed()):
                    ship(sentence)

            summary = stages.llm.generate(prompt, response, sink)
            tail = segmenter.flush(llm_elapsed())
            if tail is not None:
                ship(tail)
            if channel.put(encode_end(segmenter.next_index, llm_elapsed()), stop):
                state.eos_sent += 1
            state.token_count = summary.token_count
            state.llm_elapsed_s = summary.llm_elapsed_s
            state.ttft_s = segmenter.ttft()
        except Exception as exc:
            state.failures.append(("llm", str(exc)))
            cancel.set()

    # 3-4. Consumer first, as warmup precedes the epoch; reply made meanwhile.
    consumer = threading.Thread(target=consume, name=f"tts-{utterance.id}")
    consumer.start()
    try:
        response = make_response(prompt, retrieved, index, config.response_sentences)
    except Exception as exc:
        state.failures.append(("llm", str(exc)))
        cancel.set()
    if not warmup_done.wait(timeout=_JOIN_GRACE_S):
        state.failures.append(("tts", "warmup did not finish in time"))
        cancel.set()
    else:
        if not cancel.is_set():
            state.epoch_real = clock.now()
            state.llm_epoch_at_s = run_elapsed()
            produce(response)
        consumer.join(timeout=_JOIN_GRACE_S)
        if consumer.is_alive():
            state.failures.append(("tts", "consumer did not finish in time"))
            cancel.set()

    if state.failures:
        return _failed_result(utterance, state, run_elapsed(),
                              asr_s=transcript.asr_elapsed_s, rag_s=rag_s,
                              prompt=prompt, retrieved=retrieved)

    # 5. Assemble the record.
    segments = tuple(state.segments)
    sentences = tuple(state.sentences)
    ttft_s = state.ttft_s if state.ttft_s is not None else math.nan
    ttfa_s = segments[0].completed_at_s if segments else math.nan
    last_done = max((s.completed_at_s for s in segments), default=math.nan)
    total_s = state.llm_epoch_at_s + last_done if segments else run_elapsed()
    tts_s = math.fsum(s.synth_elapsed_s for s in segments)
    decode_s = state.llm_elapsed_s - ttft_s
    tok_rate = state.token_count / decode_s if decode_s > 0 else 0.0
    response_vec = embed(state.response, config.embed_dim)
    timings = StageTimings(
        utterance_id=utterance.id,
        asr_s=transcript.asr_elapsed_s,
        rag_s=rag_s,
        llm_s=state.llm_elapsed_s,
        tts_s=tts_s,
        total_s=total_s,
        asr_words_per_sec=metrics.words_per_sec(transcript.word_count,
                                                transcript.asr_elapsed_s),
        llm_tokens_per_sec_obs=tok_rate,
        asr_rtf_obs=metrics.rtf(transcript.asr_elapsed_s, utterance.audio_duration_s),
        ttft_s=ttft_s,
        ttfa_s=ttfa_s,
        cosine_similarity=metrics.cosine(query_vec, response_vec),
        sentence_count=len(sentences),
    )
    return UtteranceResult(
        timings=timings, sentences=sentences, segments=segments,
        prompt=prompt, response=state.response, retrieved=tuple(retrieved),
        failed=False, error=None,
        warmup_completed_at_s=state.warmup_completed_at_s,
        llm_epoch_at_s=state.llm_epoch_at_s,
        eos_sent=state.eos_sent, consumer_saw_eos=state.consumer_saw_eos,
    )


def _failed_result(utterance: UtteranceRecord, state: _RunState, now_s: float,
                   asr_s: float = math.nan, rag_s: float = math.nan,
                   prompt: str = "", retrieved: Sequence[tuple[str, float]] = ()
                   ) -> UtteranceResult:
    error = "; ".join(f"{stage}: {msg}" for stage, msg in state.failures)
    timings = replace(_nan_timings(utterance), asr_s=asr_s, rag_s=rag_s,
                      total_s=now_s, sentence_count=len(state.sentences))
    return UtteranceResult(
        timings=timings, sentences=tuple(state.sentences),
        segments=tuple(state.segments), prompt=prompt, response=state.response,
        retrieved=tuple(retrieved), failed=True, error=error,
        warmup_completed_at_s=state.warmup_completed_at_s,
        llm_epoch_at_s=state.llm_epoch_at_s,
        eos_sent=state.eos_sent, consumer_saw_eos=state.consumer_saw_eos,
    )


StageFactory = Callable[[PipelineConfig, int], StageSet]


def _default_stage_factory(config: PipelineConfig, seed: int) -> StageSet:
    return build_simulated_stages(config, seed=seed)


def run_dataset(records: Sequence[UtteranceRecord], config: PipelineConfig,
                index: VectorIndex,
                stage_factory: StageFactory = _default_stage_factory,
                ) -> tuple[list[UtteranceResult], metrics.RunSummary | None]:
    """Run every record sequentially with fresh stages per utterance.

    Per-utterance stage seeds derive deterministically from the config
    seed, so the same inputs reproduce the same jitter sequence. Failed
    utterances stay in the result list but are excluded from the summary;
    with no successes the summary is None.
    """
    if not records:
        raise ValueError("run_dataset needs at least one utterance")
    config.ensure_valid()
    master = random.Random(config.rng_seed)
    results: list[UtteranceResult] = []
    for record in records:
        seed = master.getrandbits(62)
        stages = stage_factory(config, seed)
        results.append(run_utterance(record, config, index, stages))
    ok = [r.timings for r in results if not r.failed]
    summary = metrics.summarize(ok) if ok else None
    return results, summary
