"""Clock behavior, the three simulators and response fabrication."""

import math
import random
import time

import pytest

from voxbench import stages
from voxbench.config import PipelineConfig
from voxbench.retrieval import Document, VectorIndex
from voxbench.segmenter import SentenceSegmenter
from voxbench.stages import (
    COLD_START_MULTIPLIER,
    LEAD_SENTENCE_WORDS,
    WINDOW_WORDS,
    SimulatedAsr,
    SimulatedLlm,
    SimulatedTts,
    StageClock,
    build_simulated_stages,
    make_response,
    stream_tokens,
)
from voxbench.types import Sentence, UtteranceRecord, word_count

from .support import oracle_sentences

# Unscaled tolerance for one sleep: its short last timer sleep keeps real
# overshoot in the tens of microseconds, so a couple of milliseconds is
# generous.
_ABS = 0.004


def real_time_config(**overrides):
    base = dict(time_scale=1.0, jitter_frac=0.0, llm_ttft_s=0.03,
                llm_tokens_per_sec=200.0, tts_rtf=0.02, speaking_rate_wps=2.5,
                asr_rtf=0.01)
    base.update(overrides)
    return PipelineConfig(**base)


class TestStageClock:
    def test_pause_reports_modeled_seconds_at_any_scale(self):
        for scale in (1.0, 0.1):
            clock = StageClock(time_scale=scale)
            elapsed = clock.pause(0.05)
            assert 0.05 <= elapsed <= 0.05 + _ABS / scale

    def test_pause_of_zero_returns_immediately(self):
        clock = StageClock(time_scale=1.0)
        assert 0.0 <= clock.pause(0.0) < _ABS

    def test_negative_pause_treated_as_zero(self):
        clock = StageClock(time_scale=1.0)
        assert clock.pause(-1.0) < _ABS

    def test_jitter_disabled_is_exactly_one(self):
        clock = StageClock(rng=random.Random(1))
        assert clock.jitter(0.0) == 1.0
        assert clock.jitter(-0.5) == 1.0

    def test_jitter_stays_in_band_and_varies(self):
        clock = StageClock(rng=random.Random(2))
        draws = [clock.jitter(0.25) for _ in range(500)]
        assert all(0.75 <= d <= 1.25 for d in draws)
        assert len(set(draws)) > 400

    def test_jitter_is_seed_deterministic(self):
        a = StageClock(rng=random.Random(77))
        b = StageClock(rng=random.Random(77))
        assert [a.jitter(0.1) for _ in range(20)] == [b.jitter(0.1) for _ in range(20)]

    def test_rejects_nonpositive_scale(self):
        for scale in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                StageClock(time_scale=scale)

    def test_sleep_until_reaches_the_modeled_instant(self):
        clock = StageClock(time_scale=0.01)
        for step in (0.0, 0.003, 0.01, 0.05, 1.0, 3.0):
            target = clock.now() + step
            clock.sleep_until(target)
            assert clock.now() >= target

    def test_rejects_non_finite_waits(self):
        clock = StageClock(time_scale=1.0)
        for wait in (clock.sleep_until, clock.pause):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    wait(value)

    def test_waits_end_on_time_in_few_sleeps_whatever_the_wake_up_delay(self, monkeypatch):
        # Scheduler-free: the fake clock moves only when the code reads it
        # or sleeps, so every wake-up delay is scripted, not drawn.
        waits = (0.0, 10e-6, 30e-6, 100e-6, 125e-6, 240e-6, 300e-6,
                 625e-6, 2.45e-3, 10e-3)
        delays = (0.0, 5e-6, 20e-6, 40e-6, 50e-6, 56e-6, 66e-6, 120e-6, 212e-6, 250e-6)
        for delay in delays:
            fake = FakeTime(delay)
            monkeypatch.setattr(stages, "time", fake)
            clock = StageClock(time_scale=0.05)
            for wait in waits:
                target = clock.now() + wait / 0.05
                fake.sleeps.clear()
                clock.sleep_until(target)
                assert clock.now() >= target, (wait, delay)
                timer = [s for s in fake.sleeps if s > 0.0]
                polls = len(fake.sleeps) - len(timer)
                assert len(timer) <= 2, (wait, delay, fake.sleeps)
                # At most one poll, and none where the last timer sleep
                # lands past the deadline: a wait over _SLACK_S whose
                # wake-up delay is from _SLACK_S to _NEAR_S - _SLACK_S.
                on_time = (wait > stages._SLACK_S
                           and stages._SLACK_S <= delay < stages._NEAR_S - stages._SLACK_S)
                assert polls <= (0 if on_time else 1), (wait, delay, fake.sleeps)
                assert clock.pause(wait / 0.05) >= wait / 0.05, (wait, delay)

    def test_now_advances_by_at_least_the_pause(self):
        clock = StageClock(time_scale=0.01)
        for seconds in (0.0, 0.5, 2.0):
            before = clock.now()
            clock.pause(seconds)
            assert clock.now() - before >= seconds

    def test_unscale_since_counts_a_real_span_once(self):
        # 20 ms of real work at scale 0.01 would read 2 modeled seconds;
        # after unscale_since it counts as 0.02. Stalls beyond the busy
        # wait still count at 1/scale, hence the generous ceiling.
        clock = StageClock(time_scale=0.01)
        start = clock.now()
        end = time.perf_counter() + 0.02
        while time.perf_counter() < end:
            pass
        assert clock.unscale_since(start) >= 0.02
        assert clock.now() - start < 0.5


class FakeTime:
    """Stand-in for the ``time`` module: ``perf_counter`` advances 1 us a
    call, ``sleep(x)`` advances ``x`` plus a scripted wake-up delay, and
    ``sleep(0)`` one step of the timer slack."""

    def __init__(self, delay):
        self.delay = delay
        self.now = 0.0
        self.sleeps = []

    def perf_counter(self):
        self.now += 1e-6
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds + self.delay if seconds > 0.0 else stages._STEP_S


class TestStreamTokens:
    def test_concatenation_reproduces_the_text(self):
        rng = random.Random(31)
        pieces = ["hello", "a", "3.14", "end."]
        seps = [" ", "  ", "\n", " \t "]
        for _ in range(80):
            text = rng.choice(seps).join(rng.choice(pieces)
                                         for _ in range(rng.randint(1, 10)))
            if rng.random() < 0.3:
                text = " " + text + rng.choice(seps)
            tokens = stream_tokens(text)
            assert "".join(tokens) == text
            assert len(tokens) == word_count(text)

    def test_empty_text_yields_no_tokens(self):
        assert stream_tokens("") == []

    def test_every_token_has_content(self):
        for token in stream_tokens("  spaced   out   text  "):
            assert token.strip()


class TestSimulatedAsr:
    def test_blocks_proportionally_to_audio_length(self):
        config = real_time_config()
        asr = SimulatedAsr(config, StageClock(time_scale=1.0))
        utterance = UtteranceRecord("u1", 5.0, "hello out there")
        transcript = asr.transcribe(utterance)
        assert transcript.text == "hello out there"
        assert transcript.word_count == 3
        assert 0.05 <= transcript.asr_elapsed_s <= 0.05 + _ABS

    def test_scaled_run_reports_unscaled_time(self):
        config = real_time_config(time_scale=0.05)
        asr = SimulatedAsr(config, StageClock(time_scale=0.05))
        transcript = asr.transcribe(UtteranceRecord("u1", 6.0, "words here"))
        assert 0.06 <= transcript.asr_elapsed_s <= 0.06 + _ABS / 0.05


class TestSimulatedLlm:
    def run(self, config, response):
        """Stream ``response``; return the call's real duration, the
        events and each event's arrival, all timed from outside."""
        clock = StageClock(time_scale=config.time_scale,
                           rng=random.Random(config.rng_seed))
        llm = SimulatedLlm(config, clock)
        events, arrivals = [], []
        start = clock.now()

        def sink(event):
            arrivals.append(clock.now() - start)
            events.append(event)

        assert llm.generate("prompt", response, sink) is None
        return clock.now() - start, events, arrivals

    def test_streams_every_token_in_order(self):
        response = "one two three four five."
        _, events, arrivals = self.run(real_time_config(), response)
        assert "".join(e.text for e in events) == response
        assert len(events) == 5
        assert arrivals == sorted(arrivals)

    def test_elapsed_is_ttft_plus_token_intervals(self):
        config = real_time_config()  # 30 ms ttft, 200 tok/s
        elapsed, _, arrivals = self.run(config, "a b c d e f g h i j")
        expected = 0.03 + 10 / 200.0
        assert elapsed == pytest.approx(expected, abs=_ABS)
        assert arrivals[0] == pytest.approx(0.03, abs=_ABS)

    def test_empty_response_still_pays_first_token_wait(self):
        elapsed, events, _ = self.run(real_time_config(), "")
        assert events == []
        assert elapsed == pytest.approx(0.03, abs=_ABS)

    def test_sink_failure_aborts_generation_quickly(self):
        config = real_time_config(llm_tokens_per_sec=20.0)
        clock = StageClock(time_scale=1.0)
        llm = SimulatedLlm(config, clock)
        delivered = []
        closed = RuntimeError("queue closed")

        def sink(event):
            if len(delivered) == 2:
                raise closed
            delivered.append(event)

        start = clock.now()
        with pytest.raises(RuntimeError) as raised:
            llm.generate("p", "t1 t2 t3 t4 t5 t6 t7 t8 t9 t10", sink)
        assert raised.value is closed  # the sink's own error, unwrapped
        wall = clock.now() - start
        assert len(delivered) == 2
        # aborted at the third token, far before the ~0.53 s full stream
        assert wall < 0.03 + 4 * (1 / 20.0)

    def test_jitter_zero_is_deterministic_in_count(self):
        a_elapsed, a_events, _ = self.run(real_time_config(), "x y z")
        b_elapsed, b_events, _ = self.run(real_time_config(), "x y z")
        assert len(a_events) == len(b_events) == 3
        assert a_elapsed == pytest.approx(b_elapsed, abs=_ABS)


class TestSimulatedTts:
    def test_duration_follows_speaking_rate_exactly(self):
        config = real_time_config()
        tts = SimulatedTts(config, StageClock(time_scale=1.0))
        tts.warmup()
        segment = tts.synthesize(Sentence(0, "five words are spoken here.", 0.1))
        assert segment.synthesized_duration_s == 5 / 2.5
        assert segment.sentence_index == 0

    def test_cold_start_costs_the_multiplier(self):
        config = real_time_config(tts_rtf=0.05)  # 5 words -> 0.1 s warm cost
        cold = SimulatedTts(config, StageClock(time_scale=1.0))
        cold_seg = cold.synthesize(Sentence(0, "five words are spoken here.", 0.0))
        warm = SimulatedTts(config, StageClock(time_scale=1.0))
        warm.warmup()
        warm_seg = warm.synthesize(Sentence(0, "five words are spoken here.", 0.0))
        warm_cost = 5 / 2.5 * 0.05
        assert warm_seg.synth_elapsed_s == pytest.approx(warm_cost, abs=_ABS)
        assert cold_seg.synth_elapsed_s == pytest.approx(
            warm_cost * COLD_START_MULTIPLIER, abs=_ABS)

    def test_warmup_absorbs_the_penalty_once(self):
        config = real_time_config(tts_rtf=0.05)
        clock = StageClock(time_scale=1.0)
        tts = SimulatedTts(config, clock)
        start = clock.now()
        assert tts.warmup() is None
        first = clock.now() - start
        second = tts._synthesize_text("Warmup.", sentence_index=0)
        assert first > second.synth_elapsed_s * 1.5

    def test_rejects_empty_sentences(self):
        tts = SimulatedTts(real_time_config(), StageClock(time_scale=1.0))
        with pytest.raises(ValueError):
            tts.synthesize(Sentence(0, "   ", 0.0))


class TestMakeResponse:
    def index(self):
        docs = [Document("doc-net", "Signal strength. Drops at night! Antenna "
                                    "alignment fixes most cases quickly."),
                Document("doc-bill", "Billing cycles close monthly.")]
        return VectorIndex.from_documents(docs, 32)

    def test_exact_sentence_count_for_each_target(self):
        index = self.index()
        for target in range(1, 7):
            response = make_response("p", [("doc-net", 0.9)], index, target)
            assert len(oracle_sentences(response)) == target

    def test_default_two_sentence_shape_is_45_words(self):
        response = make_response("p", [("doc-net", 0.9)], self.index(), 2)
        assert word_count(response) == LEAD_SENTENCE_WORDS + WINDOW_WORDS == 45

    def test_lead_names_the_top_document(self):
        response = make_response("p", [("doc-net", 0.9), ("doc-bill", 0.1)],
                                 self.index(), 2)
        assert "is doc-net," in response
        assert "doc-bill" not in response

    def test_document_punctuation_cannot_add_boundaries(self):
        # doc text contains '.' and '!' mid-stream; they must not survive
        response = make_response("p", [("doc-net", 0.9)], self.index(), 3)
        assert len(oracle_sentences(response)) == 3
        assert "strength." not in response
        assert "night!" not in response
        # all seven boundary characters, inside words and ending them
        doc = Document("doc-mix", 'v1.2 wh?y no!w "quo"te it\'s f(x) a[0] end.") '
                                  "Wait?! 'ok.'] done.")
        response = make_response("p", [("doc-mix", 0.9)],
                                 VectorIndex.from_documents([doc], 32), 3)
        segmenter = SentenceSegmenter()
        sentences = [s.text for s in segmenter.feed(response, 0.0)]
        sentences.append(segmenter.flush(0.0).text)
        assert len(sentences) == len(oracle_sentences(response)) == 3
        assert not set("?!\"')]") & set(response)
        assert all(s.count(".") == 1 and s.endswith(".") for s in sentences)

    def test_fallback_reply_has_the_same_shape(self):
        response = make_response("p", [], self.index(), 2)
        assert word_count(response) == 45
        assert len(oracle_sentences(response)) == 2
        assert "No matching document" in response

    def test_deterministic(self):
        index = self.index()
        first = make_response("p", [("doc-net", 0.5)], index, 4)
        second = make_response("p", [("doc-net", 0.5)], index, 4)
        assert first == second

    def test_target_must_be_positive(self):
        with pytest.raises(ValueError):
            make_response("p", [], self.index(), 0)


class TestStageSet:
    def test_build_wires_protocols_and_shared_clock(self):
        config = PipelineConfig(time_scale=0.01)
        stages = build_simulated_stages(config)
        assert stages.clock.time_scale == 0.01
        assert stages.asr._clock is stages.clock
        assert stages.tts._clock is stages.clock

    def test_seed_override_controls_jitter(self):
        config = PipelineConfig(jitter_frac=0.2)
        a = build_simulated_stages(config, seed=5)
        b = build_simulated_stages(config, seed=5)
        c = build_simulated_stages(config, seed=6)
        seq_a = [a.clock.jitter(0.2) for _ in range(10)]
        seq_b = [b.clock.jitter(0.2) for _ in range(10)]
        seq_c = [c.clock.jitter(0.2) for _ in range(10)]
        assert seq_a == seq_b
        assert seq_a != seq_c
