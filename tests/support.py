"""Shared helpers for the test suite.

Holds the independent oracles (reference implementations that deliberately
take a different route than the package code), deterministic corpus and
text generators, and the scheduler quantum probe used by timing checks.
"""

from __future__ import annotations

import random
import re
import struct
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from voxbench.retrieval import Document, VectorIndex, embed
from voxbench.stages import StageClock
from voxbench.types import StageTimings

# ---------------------------------------------------------------------------
# Segmenter oracle: the boundary rule applied to a full string in one pass,
# kept as a plain reference. The package uses the same kind of pattern but
# resumes it chunk by chunk at the pending punctuation and trims its
# buffer; that incremental bookkeeping is what the comparison checks.

_BOUNDARY = re.compile(r'[.!?]["\')\]]*(?=\s)')


def oracle_sentences(text: str) -> list[str]:
    """Reference segmentation of a complete text."""
    parts: list[str] = []
    last = 0
    for match in _BOUNDARY.finditer(text):
        parts.append(text[last:match.end()].strip())
        last = match.end()
    tail = text[last:].strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def random_chunks(text: str, rng: random.Random) -> list[str]:
    """Split ``text`` into random-size chunks that concatenate back to it."""
    chunks: list[str] = []
    pos = 0
    while pos < len(text):
        step = rng.randint(1, 7)
        chunks.append(text[pos:pos + step])
        pos += step
    return chunks


_WORDS = ("alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
          "lima mike november oscar papa quebec romeo sierra tango uniform "
          "victor whiskey xray yankee zulu").split()
_DECIMALS = ("3.14", "2.71", "0.5", "1.0e9", "v1.2.3", "e.g.", "i.e.", "No.7")
_QUOTES = ('"', "'", ")", "]")
_TERMINALS = (".", "!", "?", "?!", "...", ".\"", "!')", "?]")
_UNICODE_WORDS = ("café", "naïve", "über", "你好", "⚡fast")


def random_sentence_text(rng: random.Random, max_sentences: int = 6) -> str:
    """Generate text mixing words, decimals, quotes and unicode."""
    out: list[str] = []
    for _ in range(rng.randint(1, max_sentences)):
        words = []
        for _ in range(rng.randint(1, 8)):
            bucket = rng.random()
            if bucket < 0.72:
                words.append(rng.choice(_WORDS))
            elif bucket < 0.86:
                words.append(rng.choice(_DECIMALS))
            else:
                words.append(rng.choice(_UNICODE_WORDS))
        sentence = " ".join(words)
        if rng.random() < 0.2:
            sentence = rng.choice(_QUOTES[:2]) + sentence
        sentence += rng.choice(_TERMINALS)
        out.append(sentence)
    text = " ".join(out)
    if rng.random() < 0.3:
        text += " " + rng.choice(_WORDS)  # unterminated tail for flush paths
    return text


def random_unicode_text(rng: random.Random, max_len: int = 60) -> str:
    """Random UTF-8-encodable string mixing ASCII with multibyte planes."""
    pools = (
        lambda: chr(rng.randint(0x20, 0x7E)),
        lambda: chr(rng.randint(0xA1, 0x2FF)),
        lambda: chr(rng.randint(0x3040, 0x30FF)),
        lambda: chr(rng.randint(0x1F300, 0x1F5FF)),
    )
    return "".join(rng.choice(pools)() for _ in range(rng.randint(0, max_len)))


# ---------------------------------------------------------------------------
# Search oracle: plain-Python full scan, no numpy matrix product.

def brute_force_topk(entries: list[tuple[str, list[float]]],
                     query: list[float], k: int) -> list[tuple[str, float]]:
    scored = []
    for doc_id, vector in entries:
        score = 0.0
        for a, b in zip(vector, query):
            score += a * b
        scored.append((doc_id, score))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


# Exact-ranking oracle: the dense one-thread matrix product whose scores
# ``search`` reproduces bit for bit, with every score sorted and no
# partition, screen or rescoring step. conftest.py pins BLAS to one thread
# for this matmul's sake: a large one splits across threads and rounds
# differently, while ``search`` gives the same bits at any thread count.

def full_sort_topk(index: VectorIndex, query: np.ndarray,
                   k: int) -> list[tuple[str, float]]:
    """The same float scores as ``search``, ranked by sorting every one."""
    matrix = np.array([vector for _, vector in index.entries])
    scores = (matrix @ query).tolist()
    return sorted(zip(index.doc_ids, scores), key=lambda e: (-e[1], e[0]))[:k]


def search_cases():
    """Seeded (index, query) pairs for comparing ``search`` across
    processes: indexes of 5 to 4,096 rows at dim 256, one scored whole
    (below 8 rows) and the rest screened, small and large, with and
    without a partial last 4-row group, each with ten count, signed and
    dense (every column) queries."""
    rng = random.Random(3)
    nprng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(3000)]
    for n in (5, 8, 9, 11, 1000, 2001, 2003, 4096):
        docs = [Document(f"d{i:05d}", " ".join(rng.choices(vocab, k=40))) for i in range(n)]
        index = VectorIndex.from_documents(docs, 256)
        for _ in range(10):
            count = embed(" ".join(rng.choices(vocab, k=12)), 256)
            signed = np.where(count > 0, nprng.standard_normal(256), 0.0)
            for query in (count, signed, nprng.standard_normal(256)):
                yield index, query


# ---------------------------------------------------------------------------
# Index cache oracle: the documented layout written field by field, one
# struct.pack per vector.

def reference_cache_bytes(index: VectorIndex) -> bytes:
    parts = [struct.pack("<4sHII", b"TVIX", 1, index.dim, len(index))]
    for doc_id, vector in index.entries:
        id_bytes = doc_id.encode("utf-8")
        text_bytes = index.document(doc_id).text.encode("utf-8")
        parts.append(struct.pack("<I", len(id_bytes)) + id_bytes)
        parts.append(struct.pack("<I", len(text_bytes)) + text_bytes)
        parts.append(struct.pack(f"<{index.dim}d", *vector.tolist()))
    return b"".join(parts)


# ---------------------------------------------------------------------------
# Deterministic corpus generation for fixtures and benchmarks.

_VOCAB = ("signal route packet carrier channel handset uplink latency jitter "
          "codec frame header buffer socket stream session token switch antenna "
          "spectrum billing roaming handover cell tower relay modem fiber node "
          "gateway paging queue burst payload checksum").split()


def write_corpus(docs_dir: Path, count: int, seed: int = 7,
                 words_per_doc: int = 120) -> list[str]:
    """Write ``count`` deterministic .txt documents; return their doc_ids."""
    docs_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    ids = []
    for i in range(count):
        doc_id = f"doc{i:02d}"
        body = " ".join(rng.choice(_VOCAB) for _ in range(words_per_doc))
        (docs_dir / f"{doc_id}.txt").write_text(
            f"Operations note {i} about {body}.\n", encoding="utf-8")
        ids.append(doc_id)
    return ids


# ---------------------------------------------------------------------------
# Metrics fixture: five rows with exact decimal values. The expected
# statistics are recomputed exactly with Fraction arithmetic from these
# strings, an independent path from the float aggregation under test.

METRICS_FIXTURE_ROWS: list[dict[str, str]] = [
    {"utterance_id": "fx-0", "asr_s": "0.029", "rag_s": "0.008", "llm_s": "0.218",
     "tts_s": "0.106", "total_s": "0.417", "asr_words_per_sec": "134.24",
     "llm_tokens_per_sec_obs": "58.60", "asr_rtf_obs": "0.0077",
     "ttft_s": "0.077", "ttfa_s": "0.412", "cosine_similarity": "0.659",
     "sentence_count": "1"},
    {"utterance_id": "fx-1", "asr_s": "0.049", "rag_s": "0.008", "llm_s": "0.670",
     "tts_s": "0.286", "total_s": "0.934", "asr_words_per_sec": "394.18",
     "llm_tokens_per_sec_obs": "80.06", "asr_rtf_obs": "0.0077",
     "ttft_s": "0.106", "ttfa_s": "0.678", "cosine_similarity": "0.873",
     "sentence_count": "2"},
    {"utterance_id": "fx-2", "asr_s": "0.069", "rag_s": "0.012", "llm_s": "1.706",
     "tts_s": "1.769", "total_s": "3.154", "asr_words_per_sec": "1010.15",
     "llm_tokens_per_sec_obs": "86.97", "asr_rtf_obs": "0.0077",
     "ttft_s": "0.181", "ttfa_s": "1.482", "cosine_similarity": "1.000",
     "sentence_count": "6"},
    {"utterance_id": "fx-3", "asr_s": "0.040", "rag_s": "0.009", "llm_s": "0.500",
     "tts_s": "0.250", "total_s": "0.700", "asr_words_per_sec": "300.00",
     "llm_tokens_per_sec_obs": "75.00", "asr_rtf_obs": "0.0077",
     "ttft_s": "0.100", "ttfa_s": "0.600", "cosine_similarity": "0.800",
     "sentence_count": "2"},
    {"utterance_id": "fx-4", "asr_s": "0.058", "rag_s": "0.010", "llm_s": "0.900",
     "tts_s": "0.400", "total_s": "1.200", "asr_words_per_sec": "500.00",
     "llm_tokens_per_sec_obs": "82.00", "asr_rtf_obs": "0.0077",
     "ttft_s": "0.150", "ttfa_s": "0.950", "cosine_similarity": "0.900",
     "sentence_count": "3"},
]


def metrics_fixture() -> list[StageTimings]:
    rows = []
    for row in METRICS_FIXTURE_ROWS:
        rows.append(StageTimings(
            utterance_id=row["utterance_id"],
            asr_s=float(row["asr_s"]), rag_s=float(row["rag_s"]),
            llm_s=float(row["llm_s"]), tts_s=float(row["tts_s"]),
            total_s=float(row["total_s"]),
            asr_words_per_sec=float(row["asr_words_per_sec"]),
            llm_tokens_per_sec_obs=float(row["llm_tokens_per_sec_obs"]),
            asr_rtf_obs=float(row["asr_rtf_obs"]),
            ttft_s=float(row["ttft_s"]), ttfa_s=float(row["ttfa_s"]),
            cosine_similarity=float(row["cosine_similarity"]),
            sentence_count=int(row["sentence_count"]),
        ))
    return rows


def exact_column_stats(column: str) -> tuple[Fraction, Fraction, Fraction]:
    """Exact mean/min/max of a fixture column via rational arithmetic."""
    values = [Fraction(row[column]) for row in METRICS_FIXTURE_ROWS]
    return sum(values, Fraction(0)) / len(values), min(values), max(values)


# ---------------------------------------------------------------------------
# Scheduler quantum probe: how imprecise can one timed step be on this
# machine right now? Used as the tolerance unit for first-token latency.

def measure_scheduler_quantum(time_scale: float, trials: int = 20) -> float:
    """Worst observed timing slack (unscaled seconds): the max of sleep
    overshoot and cross-thread event wake latency, floored at 1 ms."""
    clock = StageClock(time_scale=time_scale, rng=random.Random(0))
    worst = 0.001 / time_scale
    for _ in range(trials):
        target = 0.01
        measured = clock.pause(target)
        worst = max(worst, abs(measured - target))
    for _ in range(trials):
        event = threading.Event()
        woke_at: list[float] = []

        def waiter() -> None:
            event.wait(5.0)
            woke_at.append(time.perf_counter())

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.002)
        set_at = time.perf_counter()
        event.set()
        thread.join()
        worst = max(worst, (woke_at[0] - set_at) / time_scale)
    return worst
