"""Producer/consumer orchestration: ordering, failure paths, determinism."""

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

from voxbench import orchestrator, stages
from voxbench.config import PipelineConfig
from voxbench.orchestrator import run_dataset, run_utterance
from voxbench.retrieval import embed, search
from voxbench.stages import StageSet, TokenEvent, build_simulated_stages
from voxbench.types import AudioSegment, UtteranceRecord, timings_violations


@pytest.fixture(autouse=True)
def no_worker_thread_outlives_the_test():
    """A worker thread alive after its run would go on driving its stage."""
    yield
    for thread in threading.enumerate():
        if thread.name.startswith(("tts-", "llm-")):
            thread.join(timeout=1.0)
            assert not thread.is_alive(), f"worker thread {thread.name} leaked"


def utterance(i=0, duration=4.0):
    return UtteranceRecord(
        id=f"utt-{i:03d}",
        audio_duration_s=duration,
        reference_transcript="Regarding doc03, how should signal jitter on the "
                             "uplink channel be handled during handover?",
        speaker_tag="speaker-a",
        expected_doc_id="doc03",
    )


def fresh_stages(config, seed=7):
    return build_simulated_stages(config, seed=seed)


class TestRunUtteranceHappyPath:
    def test_clean_run_invariants(self, fast_config, fast_index):
        result = run_utterance(utterance(), fast_config, fast_index,
                               fresh_stages(fast_config))
        assert not result.failed
        assert result.error is None
        assert result.eos_sent == 1
        assert result.consumer_saw_eos == 1
        assert [s.index for s in result.sentences] == [0, 1]
        assert [g.sentence_index for g in result.segments] == [0, 1]
        assert result.warmup_completed_at_s < result.llm_epoch_at_s
        assert timings_violations(result.timings) == []

    def test_response_survives_the_wire_losslessly(self, fast_config, fast_index):
        result = run_utterance(utterance(), fast_config, fast_index,
                               fresh_stages(fast_config))
        assert " ".join(s.text for s in result.sentences) == result.response

    def test_timing_identities(self, fast_config, fast_index):
        result = run_utterance(utterance(), fast_config, fast_index,
                               fresh_stages(fast_config))
        t = result.timings
        assert t.ttfa_s == result.segments[0].completed_at_s
        assert t.ttfa_s >= t.ttft_s
        assert t.tts_s == pytest.approx(
            math.fsum(g.synth_elapsed_s for g in result.segments))
        last = max(g.completed_at_s for g in result.segments)
        assert t.total_s == pytest.approx(result.llm_epoch_at_s + last)
        assert t.sentence_count == fast_config.response_sentences

    def test_prompt_and_retrieval_grounding(self, fast_config, fast_index):
        result = run_utterance(utterance(), fast_config, fast_index,
                               fresh_stages(fast_config))
        assert len(result.retrieved) == fast_config.retrieval_k
        top_id = result.retrieved[0][0]
        assert f"[doc: {top_id}]" in result.prompt
        assert result.prompt.rstrip().endswith(
            "Question: " + utterance().reference_transcript)
        assert f"is {top_id}," in result.response
        assert 0.0 < result.timings.cosine_similarity <= 1.0

    def test_modeled_rates_are_recovered(self, fast_config, fast_index):
        # Modeled values are lower bounds; scheduling noise divided by the
        # time scale only ever inflates the measurement, so the ceiling is
        # deliberately loose here (the precision check lives at a larger
        # time scale in the acceptance suite).
        result = run_utterance(utterance(), fast_config, fast_index,
                               fresh_stages(fast_config))
        t = result.timings
        assert fast_config.asr_rtf <= t.asr_rtf_obs < fast_config.asr_rtf * 2
        assert fast_config.llm_ttft_s <= t.ttft_s < fast_config.llm_ttft_s + 0.05
        assert t.llm_tokens_per_sec_obs == pytest.approx(
            fast_config.llm_tokens_per_sec, rel=0.5)

    def test_reply_fabrication_stays_out_of_the_first_token_time(
            self, fast_config, fast_index, monkeypatch):
        # The reply is fabricated during warmup, before the epoch, so even
        # 30 ms of real fabrication (3 s modeled here) adds nothing to TTFT.
        real_make_response = orchestrator.make_response

        def slow_make_response(*args):
            time.sleep(0.03)
            return real_make_response(*args)

        monkeypatch.setattr(orchestrator, "make_response", slow_make_response)
        result = run_utterance(utterance(), fast_config, fast_index,
                               fresh_stages(fast_config))
        assert not result.failed, result.error
        assert fast_config.llm_ttft_s <= result.timings.ttft_s < 1.0

    def test_retrieval_compute_counts_once_at_1x(self, fast_config, fast_index,
                                                 monkeypatch):
        # At scale 0.01 a search that spends 20 ms of real time moves rag_s
        # and total_s by about 0.02 s, not by 0.02 / 0.01 = 2 s. Real stalls
        # elsewhere still count at 1/scale, hence the loose ceiling.
        base = run_utterance(utterance(), fast_config, fast_index, fresh_stages(fast_config))

        def busy_search(*args):
            end = time.perf_counter() + 0.02
            while time.perf_counter() < end:
                pass
            return search(*args)

        monkeypatch.setattr(orchestrator, "search", busy_search)
        slow = run_utterance(utterance(), fast_config, fast_index, fresh_stages(fast_config))
        assert not base.failed and not slow.failed, (base.error, slow.error)
        assert slow.timings.rag_s >= 0.02
        assert slow.llm_epoch_at_s >= slow.timings.asr_s + slow.timings.rag_s
        assert slow.timings.total_s - base.timings.total_s < 1.0

    def test_tokenizing_runs_inside_the_first_token_wait(self, fast_index,
                                                         monkeypatch):
        # At scale 1.0 a tokenizer that takes half the first-token wait
        # must not push the first token out: the generator anchors its
        # pacing before it tokenizes, and the epoch precedes that anchor.
        config = PipelineConfig(embed_dim=64, time_scale=1.0,
                                llm_tokens_per_sec=1000.0, response_sentences=1)
        slow_s = config.llm_ttft_s / 2
        real_stream_tokens = stages.stream_tokens

        def slow_stream_tokens(response):
            time.sleep(slow_s)
            return real_stream_tokens(response)

        monkeypatch.setattr(stages, "stream_tokens", slow_stream_tokens)
        result = run_utterance(utterance(), config, fast_index, fresh_stages(config))
        assert not result.failed, result.error
        ttft_s = result.timings.ttft_s
        assert config.llm_ttft_s <= ttft_s < config.llm_ttft_s + slow_s / 2

    def test_ttft_is_the_stamp_of_the_first_nonempty_token(self, fast_config,
                                                           fast_index):
        llm = _EmptyFirstLlm(pause_s=0.02)
        base = fresh_stages(fast_config)
        result = run_utterance(utterance(), fast_config, fast_index,
                               StageSet(asr=base.asr, llm=llm, tts=base.tts,
                                        clock=base.clock))
        assert not result.failed, result.error
        t = result.timings
        # The reply arrives as one token, which completes sentence 0 and
        # so stamps it with the same instant; the empty token came first.
        assert [s.index for s in result.sentences] == [0, 1]
        assert t.ttft_s == result.sentences[0].emitted_at_s
        assert t.ttft_s >= llm.pause_s / fast_config.time_scale
        assert t.llm_s >= t.ttft_s

    def test_synthesis_overlaps_generation(self, fast_index):
        config = PipelineConfig(embed_dim=64, time_scale=0.02,
                                response_sentences=5)
        result = run_utterance(utterance(), config, fast_index,
                               fresh_stages(config))
        t = result.timings
        serial = t.asr_s + t.rag_s + t.llm_s + t.tts_s
        assert t.total_s < serial

    def test_many_sentences_arrive_in_order(self, fast_config, fast_index):
        config = replace(fast_config, response_sentences=8)
        result = run_utterance(utterance(), config, fast_index,
                               fresh_stages(config))
        assert [s.index for s in result.sentences] == list(range(8))
        assert [g.sentence_index for g in result.segments] == list(range(8))

    def test_query_dimension_comes_from_the_index(self, fast_config,
                                                  small_index):
        # fast_config says 64 dims; the index was built at 256
        result = run_utterance(utterance(), fast_config, small_index,
                               fresh_stages(fast_config))
        assert not result.failed, result.error
        text = utterance().reference_transcript
        expected = search(small_index, embed(text, small_index.dim),
                          fast_config.retrieval_k)
        assert result.retrieved == tuple(expected)

    def test_invalid_utterance_raises(self, fast_config, fast_index):
        bad = UtteranceRecord("u", -1.0, "text")
        with pytest.raises(ValueError, match="invalid utterance"):
            run_utterance(bad, fast_config, fast_index,
                          fresh_stages(fast_config))

    def test_invalid_config_raises(self, fast_index):
        from voxbench.errors import ConfigError
        bad = PipelineConfig(llm_tokens_per_sec=0.0)
        with pytest.raises(ConfigError):
            run_utterance(utterance(), bad, fast_index,
                          fresh_stages(PipelineConfig()))


class TestDeterminism:
    def test_rerun_with_same_seed_reproduces_the_run(self, fast_config, fast_index):
        a = run_utterance(utterance(), fast_config, fast_index,
                          fresh_stages(fast_config, seed=123))
        b = run_utterance(utterance(), fast_config, fast_index,
                          fresh_stages(fast_config, seed=123))
        assert a.response == b.response
        assert [s.text for s in a.sentences] == [s.text for s in b.sentences]
        assert ([g.synthesized_duration_s for g in a.segments]
                == [g.synthesized_duration_s for g in b.segments])
        assert a.timings.cosine_similarity == b.timings.cosine_similarity
        # Measured wall times carry scheduling noise amplified by the tiny
        # time scale; only the modeled floor is stable enough to assert.
        floor = (fast_config.llm_ttft_s
                 + 45 / fast_config.llm_tokens_per_sec)
        assert a.timings.llm_s >= floor
        assert b.timings.llm_s >= floor


class _EmptyFirstLlm:
    """Sends an empty token, then the whole reply ``pause_s`` real seconds
    later as one token."""

    def __init__(self, pause_s):
        self.pause_s = pause_s

    def generate(self, prompt, response, sink):
        sink(TokenEvent(""))
        time.sleep(self.pause_s)
        sink(TokenEvent(response))


class _BrokenTts:
    """Synthesizer that warms up fine and then dies on the first sentence."""

    def __init__(self, fail_warmup=False):
        self.fail_warmup = fail_warmup

    def warmup(self):
        if self.fail_warmup:
            raise RuntimeError("no synth voice available")

    def synthesize(self, sentence):
        raise RuntimeError("synth backend crashed")


class _BrokenAsr:
    def transcribe(self, utterance):
        raise RuntimeError("decoder missing")


def _offline_search(index, query, k):
    raise RuntimeError("index offline")


class _SilentLlm:
    """Streams one empty token and no text."""

    def generate(self, prompt, response, sink):
        sink(TokenEvent(""))


class _TimedAsr:
    """Transcribes as ``inner`` does but reports ``elapsed_s``."""

    def __init__(self, inner, elapsed_s):
        self.inner = inner
        self.elapsed_s = elapsed_s

    def transcribe(self, utterance):
        return replace(self.inner.transcribe(utterance), asr_elapsed_s=self.elapsed_s)


class _TimedTts:
    """Synthesizes as ``inner`` does but reports ``elapsed_s``."""

    def __init__(self, inner, elapsed_s):
        self.inner = inner
        self.elapsed_s = elapsed_s

    def warmup(self):
        self.inner.warmup()

    def synthesize(self, sentence):
        return replace(self.inner.synthesize(sentence), synth_elapsed_s=self.elapsed_s)


class TestFailurePaths:
    def broken_stages(self, config, **kwargs):
        stages = build_simulated_stages(config, seed=3)
        return StageSet(asr=stages.asr, llm=stages.llm,
                        tts=_BrokenTts(**kwargs), clock=stages.clock)

    def test_tts_failure_marks_the_run_and_stops_the_producer(
            self, fast_config, fast_index):
        result = run_utterance(utterance(), fast_config, fast_index,
                               self.broken_stages(fast_config))
        assert result.failed
        assert "tts: synth backend crashed" in result.error
        assert math.isnan(result.timings.llm_s) or result.timings.llm_s >= 0
        # ASR and RAG had already finished; their numbers survive
        assert result.timings.asr_s > 0
        assert result.timings.rag_s > 0
        assert result.segments == ()

    def test_warmup_failure_cancels_before_generation(self, fast_config, fast_index):
        result = run_utterance(utterance(), fast_config, fast_index,
                               self.broken_stages(fast_config, fail_warmup=True))
        assert result.failed
        assert "tts: no synth voice available" in result.error
        assert result.sentences == ()
        assert result.response == ""

    def test_asr_failure_short_circuits(self, fast_config, fast_index):
        stages = build_simulated_stages(fast_config, seed=3)
        broken = StageSet(asr=_BrokenAsr(), llm=stages.llm, tts=stages.tts,
                          clock=stages.clock)
        result = run_utterance(utterance(), fast_config, fast_index, broken)
        assert result.failed
        assert result.error == "asr: decoder missing"
        assert math.isnan(result.timings.asr_s)
        assert result.prompt == ""

    def test_rag_failure_keeps_the_finished_asr_time(self, fast_config,
                                                     fast_index, monkeypatch):
        monkeypatch.setattr(orchestrator, "search", _offline_search)
        result = run_utterance(utterance(), fast_config, fast_index,
                               fresh_stages(fast_config))
        assert result.failed
        assert result.error == "rag: index offline"
        assert result.timings.asr_s > 0
        assert math.isnan(result.timings.rag_s)

    def test_failed_run_never_wedges(self, fast_config, fast_index):
        import time
        start = time.perf_counter()
        run_utterance(utterance(), fast_config, fast_index,
                      self.broken_stages(fast_config))
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize("way", ["asr", "rag", "warmup", "tts", "llm"])
    def test_every_field_of_a_failed_result(self, way, fast_config, fast_index,
                                            monkeypatch):
        config = replace(fast_config, response_sentences=6)
        record = utterance()
        query = embed(record.reference_transcript, fast_index.dim)
        retrieved = tuple(search(fast_index, query, config.retrieval_k))
        prompt = orchestrator.build_prompt(record.reference_transcript,
                                           retrieved, fast_index)
        response = stages.make_response(prompt, retrieved, fast_index,
                                        config.response_sentences)

        base = build_simulated_stages(config, seed=3)
        asr, llm, tts = base.asr, base.llm, base.tts
        if way == "asr":
            asr = _BrokenAsr()
        elif way == "rag":
            monkeypatch.setattr(orchestrator, "search", _offline_search)
        elif way == "warmup":
            tts = _BrokenTts(fail_warmup=True)
        elif way == "tts":
            tts = _BrokenTts()
        else:
            llm = _FailingLlm(llm, fail_at=40)
        result = run_utterance(record, config, fast_index,
                               StageSet(asr=asr, llm=llm, tts=tts, clock=base.clock))

        retrieval_done = way not in ("asr", "rag")
        generated = way in ("tts", "llm")
        assert result.failed
        assert result.error.startswith({
            "asr": "asr: decoder missing", "rag": "rag: index offline",
            "warmup": "tts: no synth voice available",
            "tts": "tts: synth backend crashed",
            "llm": "llm: decoder fault at token 40"}[way])
        if way != "tts":  # a dead synthesizer also aborts the producer
            assert ";" not in result.error
        assert result.prompt == (prompt if retrieval_done else "")
        assert result.retrieved == (retrieved if retrieval_done else ())
        assert result.response == (response if generated else "")
        assert math.isnan(result.warmup_completed_at_s) != generated
        assert math.isnan(result.llm_epoch_at_s) != generated
        if generated:
            assert 0 < result.warmup_completed_at_s < result.llm_epoch_at_s
        assert result.eos_sent == result.consumer_saw_eos == int(retrieval_done)

        if not generated:
            assert result.sentences == ()
        assert [s.index for s in result.sentences] == list(range(len(result.sentences)))
        assert [g.sentence_index for g in result.segments] == \
            list(range(len(result.segments)))
        assert len(result.segments) <= len(result.sentences)
        if way != "llm":
            assert result.segments == ()

        timings = result.timings
        assert timings.utterance_id == record.id
        assert timings.sentence_count == len(result.sentences)
        reached = {"total_s"} | ({"asr_s"} if way != "asr" else set()) \
            | ({"rag_s"} if retrieval_done else set())
        columns = {f.name for f in fields(timings)
                   if isinstance(getattr(timings, f.name), float)}
        assert {c for c in columns if math.isnan(getattr(timings, c))} == \
            columns - reached
        assert all(getattr(timings, c) > 0 for c in reached)
        assert timings_violations(timings) == []

    @pytest.mark.parametrize("way", ["llm", "asr-zero", "asr-nan", "tts-nan"])
    def test_output_that_cannot_fill_a_report_row_fails_the_run(
            self, way, fast_config, fast_index):
        base = build_simulated_stages(fast_config, seed=3)
        asr, llm, tts = base.asr, base.llm, base.tts
        if way == "llm":
            llm = _SilentLlm()
        elif way == "tts-nan":
            tts = _TimedTts(tts, math.nan)
        else:
            asr = _TimedAsr(asr, 0.0 if way == "asr-zero" else math.nan)
        stages = StageSet(asr=asr, llm=llm, tts=tts, clock=base.clock)
        results, summary = run_dataset([utterance()], fast_config, fast_index,
                                       stage_factory=lambda _c, _s: stages)
        [result] = results
        assert result.failed
        assert result.error.startswith({
            "llm": "llm: streamed no sentence",
            "asr-zero": "asr: asr_elapsed_s must be > 0, got 0.0",
            "asr-nan": "asr: asr_elapsed_s must be > 0, got nan",
            "tts-nan": "tts: synth_elapsed_s must be >= 0, got nan"}[way])
        assert summary is None
        assert math.isnan(result.timings.asr_s) == way.startswith("asr")
        assert timings_violations(result.timings) == []


class _GatedTts:
    """Synthesizer that blocks in ``stage`` ("warmup" or "synthesize")
    until ``gate`` is set."""

    def __init__(self, gate, stage):
        self.gate = gate
        self.stage = stage

    def warmup(self):
        if self.stage == "warmup":
            self.gate.wait(timeout=10.0)

    def synthesize(self, sentence):
        if self.stage == "synthesize":
            self.gate.wait(timeout=10.0)
        return AudioSegment(sentence.index, 1.0, 0.0, math.nan)


class _LateLlm:
    """Streams one token, then a second one ``pause_s`` real seconds later."""

    def __init__(self, pause_s):
        self.pause_s = pause_s

    def generate(self, prompt, response, sink):
        sink(TokenEvent("Early "))
        time.sleep(self.pause_s)
        sink(TokenEvent("late. "))


class TestBoundedWaits:
    GRACE_S = 0.2

    @pytest.fixture(autouse=True)
    def short_grace(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "_JOIN_GRACE_S", self.GRACE_S)

    def stages(self, config, tts=None, llm=None):
        stages = build_simulated_stages(config, seed=3)
        return StageSet(asr=stages.asr, llm=llm or stages.llm,
                        tts=tts or stages.tts, clock=stages.clock)

    def test_warmup_timeout_fails_before_the_epoch(self, fast_config, fast_index):
        gate = threading.Event()
        try:
            result = run_utterance(utterance(), fast_config, fast_index,
                                   self.stages(fast_config,
                                               tts=_GatedTts(gate, "warmup")))
        finally:
            gate.set()
        assert result.failed
        assert "tts: warmup did not finish in time" in result.error
        assert result.sentences == ()
        assert result.response == ""
        assert math.isnan(result.llm_epoch_at_s)

    def test_synthesizer_blocking_a_full_channel_fails_the_run(self, fast_config,
                                                                fast_index):
        config = replace(fast_config, queue_capacity=1, response_sentences=4)
        gate = threading.Event()
        start = time.perf_counter()
        try:
            result = run_utterance(utterance(), config, fast_index,
                                   self.stages(config,
                                               tts=_GatedTts(gate, "synthesize")))
        finally:
            gate.set()
        assert time.perf_counter() - start < 5.0
        assert result.failed
        assert "llm: " in result.error
        assert "tts: " in result.error

    def test_token_after_the_deadline_fails_the_run(self, fast_config, fast_index):
        llm = _LateLlm(pause_s=self.GRACE_S * 1.5)
        result = run_utterance(utterance(), fast_config, fast_index,
                               self.stages(fast_config, llm=llm))
        assert result.failed
        assert "llm: " in result.error


class _SlowBrokenTts(_BrokenTts):
    """Synthesizer that takes 50 ms on the first sentence, then dies."""

    def synthesize(self, sentence):
        time.sleep(0.05)
        return super().synthesize(sentence)


class _FailingLlm:
    """Streams through ``inner`` until token number ``fail_at`` raises."""

    def __init__(self, inner, fail_at):
        self.inner = inner
        self.fail_at = fail_at

    def generate(self, prompt, response, sink):
        count = 0

        def counting_sink(event):
            nonlocal count
            count += 1
            if count == self.fail_at:
                raise RuntimeError(f"decoder fault at token {count}")
            sink(event)

        return self.inner.generate(prompt, response, counting_sink)


# A run whose synthesizer never finishes warming up, in a fresh interpreter:
# the stuck worker thread must not keep the process from exiting.
_STUCK_WARMUP_SCRIPT = """
import sys
import threading

from voxbench import PipelineConfig, UtteranceRecord, build_index, orchestrator
from voxbench.stages import StageSet, build_simulated_stages


class StuckTts:
    def warmup(self):
        threading.Event().wait()

    def synthesize(self, sentence):
        raise AssertionError("never reached")


orchestrator._JOIN_GRACE_S = 0.2
config = PipelineConfig(embed_dim=64, time_scale=0.01)
stages = build_simulated_stages(config, seed=3)
stages = StageSet(asr=stages.asr, llm=stages.llm, tts=StuckTts(), clock=stages.clock)
record = UtteranceRecord("utt-000", 4.0, "How is uplink jitter handled?")
result = orchestrator.run_utterance(record, config, build_index(sys.argv[1], dim=64),
                                    stages)
print(f"failed={result.failed} error={result.error!r}")
"""


class TestStreamAlwaysEnds:
    """Failure paths that must end well before a long deadline."""

    GRACE_S = 5.0

    @pytest.fixture(autouse=True)
    def long_grace(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "_JOIN_GRACE_S", self.GRACE_S)

    def test_llm_failure_mid_stream_still_ends_the_stream(self, fast_config,
                                                           fast_index):
        config = replace(fast_config, response_sentences=6)
        stages = build_simulated_stages(config, seed=3)
        stages = StageSet(asr=stages.asr, llm=_FailingLlm(stages.llm, fail_at=40),
                          tts=stages.tts, clock=stages.clock)
        start = time.perf_counter()
        result = run_utterance(utterance(), config, fast_index, stages)
        assert time.perf_counter() - start < 1.0
        assert result.failed
        assert result.error.startswith("llm: ")
        assert "decoder fault at token 40" in result.error
        assert "tts" not in result.error
        assert result.eos_sent == result.consumer_saw_eos == 1

    def test_consumer_failure_frees_a_producer_blocked_on_a_full_channel(
            self, fast_config, fast_index):
        config = replace(fast_config, queue_capacity=1, response_sentences=6)
        stages = build_simulated_stages(config, seed=3)
        stages = StageSet(asr=stages.asr, llm=stages.llm, tts=_SlowBrokenTts(),
                          clock=stages.clock)
        start = time.perf_counter()
        result = run_utterance(utterance(), config, fast_index, stages)
        assert time.perf_counter() - start < 1.0
        assert result.failed
        assert "tts: synth backend crashed" in result.error

    def test_stuck_warmup_does_not_keep_the_process_alive(self, docs_dir):
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _STUCK_WARMUP_SCRIPT, str(docs_dir)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=10,
        )
        assert done.returncode == 0, done.stderr
        assert "failed=True" in done.stdout
        assert "tts: warmup did not finish in time" in done.stdout


class TestRunDataset:
    def records(self, n):
        return [utterance(i, duration=3.0 + 0.5 * i) for i in range(n)]

    def test_summary_covers_every_success(self, fast_config, fast_index):
        results, summary = run_dataset(self.records(5), fast_config, fast_index)
        assert len(results) == 5
        assert not any(r.failed for r in results)
        assert summary is not None
        assert summary.count == 5
        assert summary.stat("total_s").min <= summary.stat("total_s").max

    def test_failures_are_kept_but_not_summarized(self, fast_config, fast_index):
        calls = {"n": 0}

        def flaky_factory(config, seed):
            stages = build_simulated_stages(config, seed=seed)
            calls["n"] += 1
            if calls["n"] == 2:
                return StageSet(asr=stages.asr, llm=stages.llm,
                                tts=_BrokenTts(), clock=stages.clock)
            return stages

        results, summary = run_dataset(self.records(4), fast_config, fast_index,
                                       stage_factory=flaky_factory)
        assert [r.failed for r in results] == [False, True, False, False]
        assert summary.count == 3

    def test_all_failed_means_no_summary(self, fast_config, fast_index):
        def broken_factory(config, seed):
            stages = build_simulated_stages(config, seed=seed)
            return StageSet(asr=_BrokenAsr(), llm=stages.llm, tts=stages.tts,
                            clock=stages.clock)

        results, summary = run_dataset(self.records(2), fast_config, fast_index,
                                       stage_factory=broken_factory)
        assert all(r.failed for r in results)
        assert summary is None

    def test_empty_dataset_rejected(self, fast_config, fast_index):
        with pytest.raises(ValueError):
            run_dataset([], fast_config, fast_index)

    def test_reruns_are_reproducible(self, fast_config, fast_index):
        first, _ = run_dataset(self.records(3), fast_config, fast_index)
        second, _ = run_dataset(self.records(3), fast_config, fast_index)
        assert [r.response for r in first] == [r.response for r in second]
        assert ([tuple(s.text for s in r.sentences) for r in first]
                == [tuple(s.text for s in r.sentences) for r in second])


class _RecordingTts:
    """Passes every call to ``inner`` and records the thread each warmup
    runs on."""

    def __init__(self, inner, threads):
        self.inner = inner
        self.threads = threads

    def warmup(self):
        self.threads.append(threading.current_thread())
        self.inner.warmup()

    def synthesize(self, sentence):
        return self.inner.synthesize(sentence)


class _DyingTts:
    """Synthesizer whose warmup ends its thread, as a stage raising a
    ``BaseException`` does."""

    def warmup(self):
        raise SystemExit

    def synthesize(self, sentence):
        raise AssertionError("never reached")


class TestSynthesisWorker:
    """One synthesis thread per ``run_dataset`` call, replaced only when a
    job is stuck at its deadline or the thread has died. Threads are
    compared as objects: an exited thread's ident can be reused."""

    GRACE_S = 0.5

    @pytest.fixture(autouse=True)
    def short_grace(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "_JOIN_GRACE_S", self.GRACE_S)

    def run(self, config, index, second=None, asr=None, before_third=None):
        """Four utterances whose warmups record their threads; the second
        one's synthesizer and recognizer can be swapped."""
        threads, calls = [], []

        def factory(config, seed):
            stages = build_simulated_stages(config, seed=seed)
            calls.append(seed)
            n = len(calls)
            if n == 3 and before_third is not None:
                before_third(threads)
            tts = second if n == 2 and second is not None else stages.tts
            return StageSet(asr=asr if n == 2 and asr is not None else stages.asr,
                            llm=stages.llm, tts=_RecordingTts(tts, threads),
                            clock=stages.clock)

        records = [utterance(i) for i in range(4)]
        results, _ = run_dataset(records, config, index, stage_factory=factory)
        return results, threads

    def test_every_warmup_of_a_run_runs_on_one_thread(self, fast_config, fast_index):
        results, threads = self.run(fast_config, fast_index)
        assert [r.failed for r in results] == [False] * 4
        assert len(threads) == 4
        assert all(t is threads[0] for t in threads)
        assert threads[0].name == "tts-utt-000" and threads[0].daemon
        threads[0].join(timeout=5.0)
        assert not threads[0].is_alive()

    @pytest.mark.parametrize("way", ["asr", "tts"])
    def test_a_failure_that_returns_keeps_the_thread(self, way, fast_config, fast_index):
        if way == "asr":  # no job is handed over
            results, threads = self.run(fast_config, fast_index, asr=_BrokenAsr())
        else:  # the job records the failure and returns
            results, threads = self.run(fast_config, fast_index, second=_BrokenTts())
        assert [r.failed for r in results] == [False, True, False, False]
        assert len(threads) == (3 if way == "asr" else 4)
        assert all(t is threads[0] for t in threads)

    def test_a_stuck_warmup_leaves_its_thread_and_the_next_gets_a_new_one(
            self, fast_config, fast_index):
        gate = threading.Event()
        try:
            results, threads = self.run(fast_config, fast_index,
                                        second=_GatedTts(gate, "warmup"))
            assert threads[1].is_alive()  # still stuck, left behind
        finally:
            gate.set()
        assert [r.failed for r in results] == [False, True, False, False]
        assert "tts: warmup did not finish in time" in results[1].error
        assert threads[1] is threads[0]
        assert threads[2] is not threads[0]
        assert threads[3] is threads[2]

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_dead_thread_is_replaced_at_the_next_hand_off(self, fast_config,
                                                            fast_index):
        def wait_for_the_death(threads):
            threads[1].join(timeout=5.0)
            assert not threads[1].is_alive()

        results, threads = self.run(fast_config, fast_index, second=_DyingTts(),
                                    before_third=wait_for_the_death)
        assert [r.failed for r in results] == [False, True, False, False]
        assert "tts: synthesis worker died" in results[1].error
        assert threads[1] is threads[0]
        assert threads[2] is not threads[0]
        assert threads[3] is threads[2]


# Bound once, so a test that removes the call from ``os`` still reads masks.
_getaffinity = getattr(os, "sched_getaffinity", None)
_CALLER_CPUS = _getaffinity(0) if _getaffinity else set()
needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or not _CALLER_CPUS,
    reason="no CPU affinity calls on this platform")
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(_CALLER_CPUS) < 2,
    reason="needs CPU affinity calls and two allowed CPUs")


def _mask():
    return _getaffinity(0) if _getaffinity else None


class _MaskTts:
    """Passes every call to ``inner`` and records the CPU mask it ran with."""

    def __init__(self, inner, masks):
        self.inner = inner
        self.masks = masks

    def warmup(self):
        self.masks.append(("tts", _mask()))
        self.inner.warmup()

    def synthesize(self, sentence):
        self.masks.append(("tts", _mask()))
        return self.inner.synthesize(sentence)


class _MaskLlm:
    """Passes the call to ``inner`` and records the CPU mask it ran with."""

    def __init__(self, inner, masks):
        self.inner = inner
        self.masks = masks

    def generate(self, prompt, response, sink):
        self.masks.append(("llm", _mask()))
        return self.inner.generate(prompt, response, sink)


class TestCpuAffinity:
    """A ``run_dataset`` call runs its coordinator and synthesis worker on
    one CPU of the caller's mask and gives the caller its mask back."""

    @pytest.fixture(autouse=True)
    def unpinned_afterwards(self):
        """Later tests run with the caller's mask even if one here fails."""
        yield
        if _CALLER_CPUS and _mask() != _CALLER_CPUS:
            os.sched_setaffinity(0, _CALLER_CPUS)

    def run(self, config, index, records, masks):
        """Run ``records``, appending the (stage, CPU mask) of every stage
        call to ``masks``."""

        def factory(config, seed):
            stages = build_simulated_stages(config, seed=seed)
            return StageSet(asr=stages.asr, llm=_MaskLlm(stages.llm, masks),
                            tts=_MaskTts(stages.tts, masks), clock=stages.clock)

        return run_dataset(records, config, index, stage_factory=factory)[0]

    @needs_two_cpus
    def test_every_stage_call_runs_on_one_cpu_of_the_callers_mask(
            self, fast_config, fast_index):
        masks = []
        results = self.run(fast_config, fast_index,
                           [utterance(i) for i in range(3)], masks)
        assert [r.failed for r in results] == [False] * 3
        # Per utterance: warmup and 2 sentences synthesized, 1 generate.
        assert sorted(stage for stage, _ in masks) == ["llm"] * 3 + ["tts"] * 9
        assert {frozenset(m) for _, m in masks} == {frozenset({min(_CALLER_CPUS)})}
        assert _mask() == _CALLER_CPUS

    @needs_two_cpus
    def test_the_mask_is_restored_when_an_invalid_record_raises(
            self, fast_config, fast_index):
        bad = replace(utterance(1), audio_duration_s=-1.0)
        masks = []
        with pytest.raises(ValueError, match="invalid utterance 'utt-001'"):
            self.run(fast_config, fast_index, [utterance(0), bad], masks)
        assert ("llm", {min(_CALLER_CPUS)}) in masks  # the first one ran pinned
        assert _mask() == _CALLER_CPUS

    @needs_affinity
    def test_a_caller_on_one_cpu_stays_on_it(self, fast_config, fast_index):
        cpu = max(_CALLER_CPUS)
        os.sched_setaffinity(0, {cpu})
        try:
            masks = []
            [result] = self.run(fast_config, fast_index, [utterance()], masks)
            after = _mask()
        finally:
            os.sched_setaffinity(0, _CALLER_CPUS)
        assert not result.failed
        assert {frozenset(m) for _, m in masks} == {frozenset({cpu})}
        assert after == {cpu}

    @pytest.mark.parametrize("way", [pytest.param("refused", marks=needs_affinity),
                                     "missing"])
    def test_a_pin_that_cannot_be_made_leaves_the_run_unpinned(
            self, way, fast_config, fast_index, monkeypatch):
        calls = []
        if way == "refused":
            def refuse(pid, cpus):
                calls.append(cpus)
                raise PermissionError("sched_setaffinity: operation not permitted")

            monkeypatch.setattr(os, "sched_setaffinity", refuse)
        else:
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        masks = []
        results = self.run(fast_config, fast_index,
                           [utterance(i) for i in range(2)], masks)
        assert [r.failed for r in results] == [False] * 2
        assert len(calls) == (way == "refused")
        expected = _CALLER_CPUS or None  # None where masks cannot be read
        assert [m for _, m in masks] == [expected] * len(masks)
        assert _mask() == expected
