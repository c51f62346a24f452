"""End-to-end pipeline orchestration for one utterance or a dataset.

``run_utterance`` and ``run_dataset`` both run each utterance through one
straight-line coordinator. Each phase runs only if no earlier one failed,
the run's state lives in its locals, and one result is built at the end on
every path. Schedule for one utterance:

1. Transcribe the full utterance up front (serial).
2. Embed the transcript, search the index, assemble the prompt. The
   retrieval backend's modeled latency is paid here too.
3. Hand the synthesis job to the synthesis worker, the run's one worker
   thread. It warms the synthesizer, then reads the bounded sentence
   channel (a plain ``queue.Queue``); each frame is decoded and
   synthesized, and the end-of-stream frame finishes it.
4. Fabricate the reply during warmup (harness work, kept off the timed
   path). Then mark the generation epoch and at once generate on the
   calling thread: stream the reply through the sentence segmenter,
   encode and enqueue each completed sentence, then flush. Stages return
   content only; every instant of the run is stamped here from the epoch.
5. Enqueue exactly one end-of-stream frame and wait for the job's done
   signal.
6. Assemble the result. A failed run keeps the ASR and retrieval times
   it reached, the time to the failure and its sentence count; every
   other timing column is NaN.

The job is handed over before generation, so the first sentence is
synthesized the moment it is emitted and synthesis of sentence i overlaps
generation of sentences i+1 and later.

One synthesis worker serves every utterance of a ``run_dataset`` call
(``run_utterance`` starts its own), so no thread start sits between the
end of retrieval and warmup. The worker is a daemon thread that takes one
job at a time from its queue and exits when the call returns. It is
replaced only when its thread has died or when a job is still running at
its deadline: that stuck thread is left behind, and the next utterance
gets a fresh one.

One real-time deadline, ``_JOIN_GRACE_S`` after retrieval ends, bounds
every wait: the warmup, each ``put`` and ``get`` on the channel, and the
wait for the job's done signal. No wait wakes up early to check a flag,
because two rules hold on every path that hands over a job. The stream
always ends: the coordinator enqueues the end-of-stream frame after a
failure too. The job always reads to that frame: once either side has
failed it stops synthesizing but keeps draining, so a producer blocked on
a full channel is freed at once. The side that fails first sets a shared
flag, which the producer checks, with the deadline, at every token. A run
with any failure is marked failed. A ``generate`` call that never returns
is not bounded.
"""

from __future__ import annotations

import math
import queue
import random
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, replace
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

# Real seconds from the end of retrieval to the deadline that bounds every
# wait of a run; generous so slow CI machines fail loudly by timeout only
# when something is actually wedged.
_JOIN_GRACE_S = 60.0


@dataclass(frozen=True)
class UtteranceResult:
    """Everything observable about one utterance run.

    ``warmup_completed_at_s`` and ``llm_epoch_at_s`` are modeled seconds
    from run (ASR) start; warmup always completes before the epoch.
    ``eos_sent`` and ``consumer_saw_eos`` count end-of-stream frames
    enqueued and consumed (both exactly 1 on a clean run).
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


class _SynthesisWorker:
    """The daemon thread that runs each utterance's synthesis job in turn.

    A thread starts at the first hand-off, and again only after the last
    one died or was abandoned on a job still running at its deadline.
    """

    def __init__(self) -> None:
        self._jobs: queue.SimpleQueue[Callable[[], None] | None] = queue.SimpleQueue()
        self._thread: threading.Thread | None = None

    def submit(self, job: Callable[[], None], name: str) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=_serve, args=(self._jobs,),
                                            name=name, daemon=True)
            self._thread.start()
        self._jobs.put(job)

    def abandon(self) -> None:
        """Leave the thread to exit once its stuck job returns."""
        self._jobs.put(None)
        self._jobs = queue.SimpleQueue()
        self._thread = None

    def stop(self) -> None:
        """Let the thread exit once it has no job left."""
        self._jobs.put(None)


def _serve(jobs: queue.SimpleQueue[Callable[[], None] | None]) -> None:
    while (job := jobs.get()) is not None:
        job()


def run_utterance(utterance: UtteranceRecord, config: PipelineConfig,
                  index: VectorIndex, stages: StageSet) -> UtteranceResult:
    """Run the full pipeline for one utterance; never raises for stage
    failures, which instead mark the result as failed."""
    worker = _SynthesisWorker()
    try:
        return _run(utterance, config, index, stages, worker)
    finally:
        worker.stop()


def _run(utterance: UtteranceRecord, config: PipelineConfig, index: VectorIndex,
         stages: StageSet, worker: _SynthesisWorker) -> UtteranceResult:
    """The coordinator of one utterance; its synthesis job goes to ``worker``."""
    config.ensure_valid()
    problems = utterance_violations(utterance)
    if problems:
        raise ValueError(f"invalid utterance {utterance.id!r}: " + "; ".join(problems))

    frames: queue.Queue[bytes] = queue.Queue(maxsize=config.queue_capacity)
    failed = threading.Event()
    warmup_done = threading.Event()
    done = threading.Event()
    segmenter = SentenceSegmenter()

    clock = stages.clock
    run_start = clock.now()
    failures: list[tuple[str, str]] = []
    sentences: list[Sentence] = []
    segments: list[AudioSegment] = []
    prompt = response = ""
    retrieved: Sequence[tuple[str, float]] = ()
    asr_s = rag_s = llm_s = ttft_s = math.nan
    warmup_completed_at_s = epoch = llm_epoch_at_s = math.nan
    token_count = eos_sent = consumer_saw_eos = 0

    # 1. Upfront transcription, serial.
    try:
        transcript = stages.asr.transcribe(utterance)
        asr_s = transcript.asr_elapsed_s
    except Exception as exc:
        failures.append(("asr", str(exc)))

    # 2. Retrieval: real embed/search/prompt work plus modeled backend
    # latency. The clock counts the real work once, at 1x: in rag_s and
    # in every later instant. No other worker is waiting on it yet.
    if not failures:
        try:
            rag_begin = clock.now()
            query_vec = embed(transcript.text, index.dim)
            hits = search(index, query_vec, config.retrieval_k)
            text = build_prompt(transcript.text, hits, index)
            rag_s = clock.unscale_since(rag_begin) + clock.pause(
                config.rag_latency_s * clock.jitter(config.jitter_frac))
            retrieved, prompt = hits, text  # reported only once retrieval finished
        except Exception as exc:
            failures.append(("rag", str(exc)))

    def fail(stage: str, message: str) -> None:
        failures.append((stage, message))
        failed.set()

    def left() -> float:
        return max(0.0, deadline - time.perf_counter())

    def consume() -> None:
        nonlocal warmup_completed_at_s, consumer_saw_eos
        try:
            stages.tts.warmup()
            warmup_completed_at_s = clock.now() - run_start
        except Exception as exc:
            fail("tts", str(exc))
        finally:
            warmup_done.set()  # never leave the coordinator waiting
        while True:
            try:
                data = frames.get(timeout=left())
            except queue.Empty:
                fail("tts", "stream did not end in time")
                return
            try:
                frame, _ = decode_frame(data)
                if frame.kind == KIND_END:
                    consumer_saw_eos += 1
                    return
                if not failed.is_set():  # after a failure, only drain
                    segment = stages.tts.synthesize(frame_to_sentence(frame))
                    segments.append(replace(segment, completed_at_s=clock.now() - epoch))
            except Exception as exc:
                fail("tts", str(exc))

    def job() -> None:
        try:
            consume()
        except BaseException:
            fail("tts", "synthesis worker died")
            raise
        finally:
            done.set()

    def ship(sentence: Sentence) -> None:
        sentences.append(sentence)
        try:
            frames.put(encode_frame(sentence), timeout=left())
        except queue.Full:
            raise GenerationAbortedError("channel still full at the deadline") from None

    def sink(event: TokenEvent) -> None:
        nonlocal token_count, ttft_s
        if failed.is_set() or time.perf_counter() > deadline:
            raise GenerationAbortedError("token after a failure or the deadline")
        at_s = clock.now() - epoch
        token_count += 1
        if event.text and math.isnan(ttft_s):
            ttft_s = at_s
        for sentence in segmenter.feed(event.text, at_s):
            ship(sentence)

    if not failures:
        # 3-4. Synthesis job first, as warmup precedes the epoch; reply
        # made meanwhile, then generation on this thread.
        deadline = time.perf_counter() + _JOIN_GRACE_S
        worker.submit(job, f"tts-{utterance.id}")
        try:
            reply = make_response(prompt, retrieved, index, config.response_sentences)
        except Exception as exc:
            fail("llm", str(exc))
        if warmup_done.wait(timeout=left()) and not failed.is_set():
            response = reply
            try:
                epoch = clock.now()
                llm_epoch_at_s = epoch - run_start
                stages.llm.generate(prompt, response, sink)
                llm_s = clock.now() - epoch
                tail = segmenter.flush(llm_s)
                if tail is not None:
                    ship(tail)
            except Exception as exc:
                fail("llm", str(exc))

        # 5. End the stream on every path, so a live job always finishes.
        # A channel still full at the deadline means a stuck job, which
        # the wait reports; its thread is left behind. Before the epoch
        # the frame carries time 0.0.
        end_at = 0.0 if math.isnan(epoch) else clock.now() - epoch
        with suppress(queue.Full):
            frames.put(encode_end(len(sentences), end_at), timeout=left())
            eos_sent += 1
        if not done.wait(timeout=left()):
            worker.abandon()
            stuck = "consumer" if warmup_done.is_set() else "warmup"
            fail("tts", f"{stuck} did not finish in time")

    # 6. One result for every path. A failed run reports the phases it
    # finished (ASR, retrieval), the time to the failure and the sentences
    # emitted; every other column is NaN.
    total_s = clock.now() - run_start
    tts_s = ttfa_s = asr_wps = tok_rate = asr_rtf = cosine = math.nan
    if failures:
        llm_s = ttft_s = math.nan
    else:
        if segments:
            ttfa_s = segments[0].completed_at_s
            total_s = llm_epoch_at_s + max(s.completed_at_s for s in segments)
        tts_s = math.fsum(s.synth_elapsed_s for s in segments)
        decode_s = llm_s - ttft_s
        tok_rate = token_count / decode_s if decode_s > 0 else 0.0
        asr_wps = metrics.words_per_sec(transcript.word_count, asr_s)
        asr_rtf = metrics.rtf(asr_s, utterance.audio_duration_s)
        cosine = metrics.cosine(query_vec, embed(response, index.dim))
    timings = StageTimings(
        utterance_id=utterance.id, asr_s=asr_s, rag_s=rag_s, llm_s=llm_s,
        tts_s=tts_s, total_s=total_s, asr_words_per_sec=asr_wps,
        llm_tokens_per_sec_obs=tok_rate, asr_rtf_obs=asr_rtf, ttft_s=ttft_s,
        ttfa_s=ttfa_s, cosine_similarity=cosine, sentence_count=len(sentences),
    )
    return UtteranceResult(
        timings=timings, sentences=tuple(sentences), segments=tuple(segments),
        prompt=prompt, response=response, retrieved=tuple(retrieved),
        failed=bool(failures),
        error="; ".join(f"{stage}: {msg}" for stage, msg in failures) or None,
        warmup_completed_at_s=warmup_completed_at_s, llm_epoch_at_s=llm_epoch_at_s,
        eos_sent=eos_sent, consumer_saw_eos=consumer_saw_eos,
    )


StageFactory = Callable[[PipelineConfig, int], StageSet]


def run_dataset(records: Sequence[UtteranceRecord], config: PipelineConfig,
                index: VectorIndex,
                stage_factory: StageFactory = build_simulated_stages,
                ) -> tuple[list[UtteranceResult], metrics.RunSummary | None]:
    """Run every record sequentially with fresh stages per utterance and
    one synthesis worker for all of them.

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
    worker = _SynthesisWorker()
    try:
        for record in records:
            seed = master.getrandbits(62)
            stages = stage_factory(config, seed)
            results.append(_run(record, config, index, stages, worker))
    finally:
        worker.stop()
    ok = [r.timings for r in results if not r.failed]
    summary = metrics.summarize(ok) if ok else None
    return results, summary
