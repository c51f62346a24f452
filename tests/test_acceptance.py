"""Acceptance suite: ten checks, one per test, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines and
the measured values behind them. The batches reuse module-scoped runs so
the whole suite stays fast enough for every commit.
"""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from voxbench.config import PipelineConfig
from voxbench.manifest import synthesize_manifest
from voxbench.metrics import SUMMARY_COLUMNS, cosine, summarize
from voxbench.orchestrator import run_dataset, run_utterance
from voxbench.retrieval import Document, VectorIndex, embed, search
from voxbench.segmenter import SentenceSegmenter
from voxbench.stages import build_simulated_stages
from voxbench.types import UtteranceRecord
from voxbench.wire import HEADER_SIZE, decode_frame, encode_frame, frame_to_sentence
from voxbench.types import Sentence

from .support import (
    brute_force_topk,
    exact_column_stats,
    measure_scheduler_quantum,
    metrics_fixture,
    oracle_sentences,
    random_chunks,
    random_sentence_text,
    random_unicode_text,
)
from .test_wire import GOLDEN, GOLDEN_END

# Reference latency targets for the paper-scale configuration, with the
# relative tolerance each mean must meet.
MEAN_BANDS = {
    "asr_s": (0.049, 0.15),
    "rag_s": (0.008, 0.15),
    "llm_s": (0.670, 0.15),
    "tts_s": (0.286, 0.15),
    "total_s": (0.934, 0.15),
    "ttfa_s": (0.678, 0.20),
    "ttft_s": (0.106, 0.10),
}


def paper_transcript(i):
    return UtteranceRecord(
        id=f"acc-{i:03d}",
        audio_duration_s=6.36,
        reference_transcript="Regarding doc05, can you explain how packet "
                             "jitter on the uplink should be handled?",
        speaker_tag="speaker-a",
        expected_doc_id="doc05",
    )


@pytest.fixture(scope="module")
def paper_batch(docs_dir, small_index):
    """50 utterances at one-twentieth speed with 10% jitter."""
    config = PipelineConfig(jitter_frac=0.1, time_scale=0.05)
    records = synthesize_manifest(50, 6.36, docs_dir, seed=42)
    results, summary = run_dataset(records, config, small_index)
    return records, results, summary


@pytest.fixture(scope="module")
def fast_batch(fast_index):
    """200 randomized runs at one-hundredth speed, varied shapes."""
    rng = random.Random(20240915)
    results = []
    for i in range(200):
        config = PipelineConfig(
            embed_dim=64,
            time_scale=0.01,
            jitter_frac=0.1,
            response_sentences=rng.randint(1, 6),
            queue_capacity=rng.choice((2, 8, 64)),
            rng_seed=rng.getrandbits(30),
        )
        record = replace(paper_transcript(i),
                         audio_duration_s=round(rng.uniform(2.0, 20.0), 3))
        stages = build_simulated_stages(config, seed=rng.getrandbits(30))
        results.append(run_utterance(record, config, fast_index, stages))
    return results


def test_criterion_01_summary_statistics_are_exact(capsys):
    summary = summarize(metrics_fixture())
    worst = Fraction(0)
    for column in SUMMARY_COLUMNS:
        mean, lo, hi = exact_column_stats(column)
        stats = summary.stat(column)
        worst = max(worst, abs(Fraction(stats.mean) - mean))
        assert abs(Fraction(stats.mean) - mean) <= Fraction(1, 10 ** 9), column
        assert stats.min == float(lo), column
        assert stats.max == float(hi), column
    assert summary.stat("total_s").min == 0.417
    assert summary.stat("total_s").max == 3.154
    with capsys.disabled():
        print(f"\nPASS criterion 01: summary stats match exact rational "
              f"arithmetic (worst mean error {float(worst):.2e}, total_s "
              f"min 0.417 / max 3.154 exact)")


def test_criterion_02_latency_means_hit_the_reference_bands(paper_batch, capsys):
    _, results, summary = paper_batch
    assert not any(r.failed for r in results), [
        (r.timings.utterance_id, r.error) for r in results if r.failed]
    assert summary is not None and summary.count == 50
    observed = {}
    for column, (target, tol) in MEAN_BANDS.items():
        mean = summary.stat(column).mean
        observed[column] = mean
        low, high = target * (1 - tol), target * (1 + tol)
        assert low <= mean <= high, (
            f"{column} mean {mean:.4f} outside [{low:.4f}, {high:.4f}]")
    with capsys.disabled():
        cells = ", ".join(f"{c}={observed[c]:.3f}" for c in MEAN_BANDS)
        print(f"\nPASS criterion 02: 50-run means inside the reference "
              f"bands ({cells})")


def test_criterion_03_synthesis_overlaps_generation(fast_index, capsys):
    rng = random.Random(777)
    config_base = PipelineConfig(embed_dim=64, time_scale=0.02, jitter_frac=0.1)
    poll_allowance = 0.1
    multi = single = 0
    for i in range(100):
        n = rng.randint(1, 10)
        config = replace(config_base, response_sentences=n,
                         rng_seed=rng.getrandbits(30))
        stages = build_simulated_stages(config, seed=rng.getrandbits(30))
        result = run_utterance(paper_transcript(i), config, fast_index, stages)
        assert not result.failed, result.error
        t = result.timings
        serial = t.asr_s + t.rag_s + t.llm_s + t.tts_s
        if n >= 2:
            multi += 1
            assert t.total_s < serial, (
                f"run {i} (n={n}): total {t.total_s:.4f} >= serial {serial:.4f}")
        else:
            single += 1
            assert t.total_s <= serial + poll_allowance, (
                f"run {i} (n=1): total {t.total_s:.4f} > "
                f"{serial:.4f} + {poll_allowance}")
    assert multi and single
    with capsys.disabled():
        print(f"\nPASS criterion 03: pipelined total beat the serial stage sum "
              f"on all {multi} multi-sentence runs; all {single} single-sentence "
              f"runs within {poll_allowance} s of it")


def test_criterion_04_transcription_stays_far_ahead_of_realtime(paper_batch, capsys):
    _, results, _ = paper_batch
    rtfs = [r.timings.asr_rtf_obs for r in results if not r.failed]
    assert rtfs
    assert all(v < 0.2 for v in rtfs)
    with capsys.disabled():
        print(f"\nPASS criterion 04: ASR real-time factor < 0.2 on 100% of "
              f"{len(rtfs)} runs (max {max(rtfs):.4f})")


def test_criterion_05_stream_bookkeeping_is_exact(fast_batch, capsys):
    for result in fast_batch:
        assert not result.failed, result.error
        n = result.timings.sentence_count
        assert [s.index for s in result.sentences] == list(range(n))
        assert [g.sentence_index for g in result.segments] == list(range(n))
        assert result.eos_sent == 1
        assert result.consumer_saw_eos == 1
        assert result.warmup_completed_at_s < result.llm_epoch_at_s
    with capsys.disabled():
        print(f"\nPASS criterion 05: {len(fast_batch)} randomized runs all kept "
              f"gapless in-order segments, exactly one end-of-stream marker, "
              f"and warmup strictly before the generation epoch")


def test_criterion_06_frame_codec_survives_10000_round_trips(capsys):
    for sentence, blob in GOLDEN:
        assert encode_frame(sentence) == blob
        frame, used = decode_frame(blob)
        assert used == len(blob) and frame_to_sentence(frame) == sentence
    frame, used = decode_frame(GOLDEN_END)
    assert used == HEADER_SIZE and frame.is_end()

    rng = random.Random(616)
    started = time.perf_counter()
    for _ in range(10_000):
        sentence = Sentence(rng.randrange(2 ** 32), random_unicode_text(rng),
                            rng.random() * 1e3)
        frame, used = decode_frame(encode_frame(sentence))
        assert frame.text == sentence.text
        assert frame.index == sentence.index
        assert frame.emitted_at_us == round(sentence.emitted_at_s * 1e6)
        assert used == HEADER_SIZE + len(frame.payload)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    with capsys.disabled():
        print(f"\nPASS criterion 06: golden byte vectors plus 10,000 random "
              f"unicode round trips in {elapsed:.2f}s")


def test_criterion_07_search_equals_brute_force(capsys):
    """Vectorized search against a pure-Python scan.

    Two mathematically equal scores computed from different vectors can
    land one ulp apart and in opposite directions in the two
    implementations, so "equal results" is asserted at float precision:
    positional scores agree within 1e-9, observationally tied score
    clusters hold the same documents, and the ascending-doc_id rule is
    contractual exactly where float scores compare equal, which bit
    identical duplicated embeddings always do.
    """
    dim = 64
    rng = random.Random(4096)
    vocab = [f"term{i}" for i in range(50)]
    docs = []
    for i in range(12):
        length = rng.randint(5, 40)
        docs.append(Document(f"doc-{i:02d}",
                             " ".join(rng.choice(vocab) for _ in range(length))))
    docs.append(Document("aaa-dup", docs[2].text))  # sorts before its twin
    docs.append(Document("zzz-dup", docs[7].text))  # sorts after its twin
    index = VectorIndex.from_documents(docs, dim)
    entries = [(doc_id, vec.tolist()) for doc_id, vec in index.entries]
    tol = 1e-9

    def clusters(ranked):
        groups, current = [], [ranked[0]]
        for prev, item in zip(ranked, ranked[1:]):
            if prev[1] - item[1] <= tol:
                current.append(item)
            else:
                groups.append(current)
                current = [item]
        groups.append(current)
        return groups

    checked = exact_ties = 0
    for qn in range(1000):
        if qn % 10 == 0:  # exact document text: tops out on a duplicate pair
            qtext = docs[rng.randrange(len(docs))].text
        else:
            qtext = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        query = embed(qtext, dim)
        oracle = brute_force_topk(entries, query.tolist(), len(entries))
        got = search(index, query, len(entries))
        for (_, gs), (_, ws) in zip(got, oracle):
            assert math.isclose(gs, ws, abs_tol=tol)
        pos = 0
        for group in clusters(oracle):
            ids = {doc_id for doc_id, _ in group}
            assert {doc_id for doc_id, _ in got[pos:pos + len(group)]} == ids
            pos += len(group)
        for (d1, s1), (d2, s2) in zip(got, got[1:]):
            if s1 == s2:
                assert d1 < d2
                exact_ties += 1
        for k in (1, 5, 10):
            assert search(index, query, k) == got[:k]
            checked += 1
    assert exact_ties > 0
    with capsys.disabled():
        print(f"\nPASS criterion 07: flat search matched the brute-force "
              f"oracle on {checked} query/k combinations "
              f"({exact_ties} exact ties broken by doc_id)")


def test_criterion_08_segmentation_is_chunking_invariant(capsys):
    rng = random.Random(4242)
    strip_ws = str.maketrans("", "", " \t\n\r\x0b\x0c")
    started = time.perf_counter()
    texts = chunkings = 0
    for _ in range(500):
        text = random_sentence_text(rng)
        expected = oracle_sentences(text)
        texts += 1
        for _ in range(20):
            seg = SentenceSegmenter()
            out = []
            t = 0.0
            for chunk in random_chunks(text, rng):
                t += 0.001
                out.extend(s.text for s in seg.feed(chunk, t))
            tail = seg.flush(t)
            if tail is not None:
                out.append(tail.text)
            assert out == expected, (text,)
            joined = "".join(out).translate(strip_ws)
            assert joined == text.translate(strip_ws)
            chunkings += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    with capsys.disabled():
        print(f"\nPASS criterion 08: {texts} texts x {chunkings // texts} "
              f"chunkings segmented identically to the oracle, losslessly, "
              f"in {elapsed:.2f}s")


def test_criterion_09_cosine_behaves_like_a_similarity(capsys):
    # Scores here come from the hashing embedder and random vectors; their
    # absolute values are internal to this codebase and not comparable to
    # any production embedding model.
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(200, 64))
    worst_self = 0.0
    for row in vectors:
        worst_self = max(worst_self, abs(cosine(row, row) - 1.0))
        assert abs(cosine(row, row) - 1.0) <= 1e-9
    pairs = 0
    for _ in range(10_000):
        a = vectors[rng.integers(len(vectors))]
        b = vectors[rng.integers(len(vectors))]
        ab = cosine(a, b)
        assert -1.0 <= ab <= 1.0
        assert ab == cosine(b, a)
        pairs += 1
    assert cosine(vectors[0], vectors[0] * 3.5) == pytest.approx(1.0, abs=1e-9)
    with capsys.disabled():
        print(f"\nPASS criterion 09: self-similarity 1.0 within 1e-9 (worst "
              f"{worst_self:.1e}), exact symmetry and [-1, 1] range over "
              f"{pairs} pairs")


def test_criterion_10_first_audio_never_beats_first_token(
        paper_batch, fast_batch, small_index, capsys):
    _, paper_results, _ = paper_batch
    checked = 0
    for result in list(paper_results) + list(fast_batch):
        if result.failed:
            continue
        assert result.timings.ttfa_s >= result.timings.ttft_s
        checked += 1

    quantum = measure_scheduler_quantum(time_scale=0.05)
    config = PipelineConfig(jitter_frac=0.0, time_scale=0.05)
    worst = 0.0
    for i in range(10):
        stages = build_simulated_stages(config, seed=1000 + i)
        result = run_utterance(paper_transcript(i), config, small_index, stages)
        assert not result.failed, result.error
        drift = abs(result.timings.ttft_s - config.llm_ttft_s)
        worst = max(worst, drift)
        assert drift <= 2 * quantum, (
            f"ttft {result.timings.ttft_s:.4f} vs {config.llm_ttft_s} "
            f"(allowance 2 x quantum {quantum:.4f})")
    with capsys.disabled():
        print(f"\nPASS criterion 10: first audio >= first token on {checked} "
              f"runs; jitter-free first-token latency within 2 scheduler "
              f"quanta (quantum {quantum * 1000:.1f}ms scaled, worst drift "
              f"{worst * 1000:.1f}ms)")
