"""Latency metric primitives and run-level aggregation.

``summarize`` folds per-utterance StageTimings rows into mean/min/max
statistics per column, and ``render_table`` lays them out as a fixed-width
text report with deterministic bytes (same summary in, same string out),
suitable for golden-file comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .types import StageTimings

# Report columns, in order, with their table headers. Seconds columns get
# 3 decimal places, rate columns (words/sec, tokens/sec) get 2, the
# unitless cosine gets 3.
_HEADERS: Mapping[str, str] = {
    "asr_s": "ASR(s)",
    "rag_s": "RAG(s)",
    "llm_s": "LLM(s)",
    "tts_s": "TTS(s)",
    "total_s": "Total(s)",
    "asr_words_per_sec": "ASR(w/s)",
    "llm_tokens_per_sec_obs": "LLM(tok/s)",
    "cosine_similarity": "Cosine",
    "ttft_s": "TTFT(s)",
    "ttfa_s": "TTFA(s)",
}
SUMMARY_COLUMNS: tuple[str, ...] = tuple(_HEADERS)

_RATE_COLUMNS = frozenset({"asr_words_per_sec", "llm_tokens_per_sec_obs"})


@dataclass(frozen=True)
class ColumnStats:
    mean: float
    min: float
    max: float


@dataclass(frozen=True)
class RunSummary:
    """Aggregated statistics over the successful runs of one benchmark."""

    count: int
    columns: dict[str, ColumnStats]

    def stat(self, column: str) -> ColumnStats:
        return self.columns[column]


def words_per_sec(word_count: int, asr_elapsed_s: float) -> float:
    """Transcription speed; zero words is a valid zero rate."""
    if word_count < 0:
        raise ValueError(f"word_count must be >= 0, got {word_count}")
    if not asr_elapsed_s > 0.0:
        raise ValueError(f"asr_elapsed_s must be > 0, got {asr_elapsed_s}")
    return word_count / asr_elapsed_s


def rtf(elapsed_s: float, audio_duration_s: float) -> float:
    """Real-time factor: processing time per second of audio."""
    if elapsed_s < 0.0:
        raise ValueError(f"elapsed_s must be >= 0, got {elapsed_s}")
    if not audio_duration_s > 0.0:
        raise ValueError(f"audio_duration_s must be > 0, got {audio_duration_s}")
    return elapsed_s / audio_duration_s


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped into [-1, 1] against rounding drift."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape or va.ndim != 1:
        raise DimensionMismatchError(f"cannot compare shapes {va.shape} and {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine is undefined for zero-norm vectors")
    value = float(np.dot(va, vb) / (na * nb))
    return max(-1.0, min(1.0, value))


def summarize(records: Sequence[StageTimings]) -> RunSummary:
    """Mean/min/max per column over ``records``; needs at least one row.

    NaN cells (possible on failed runs) are rejected; exclude failed rows
    before aggregating.
    """
    if not records:
        raise ValueError("summarize needs at least one record")
    columns: dict[str, ColumnStats] = {}
    for name in SUMMARY_COLUMNS:
        values = [float(getattr(r, name)) for r in records]
        if any(math.isnan(v) for v in values):
            raise ValueError(f"column {name} contains NaN; filter failed runs first")
        columns[name] = ColumnStats(mean=math.fsum(values) / len(values),
                                    min=min(values), max=max(values))
    return RunSummary(count=len(records), columns=columns)


def _cell(column: str, value: float) -> str:
    digits = 2 if column in _RATE_COLUMNS else 3
    return f"{value:.{digits}f}"


def render_table(summary: RunSummary) -> str:
    """Fixed-width mean/min/max table over the summary columns."""
    widths = {}
    rows = {"Mean": [], "Min": [], "Max": []}
    for name in SUMMARY_COLUMNS:
        stats = summary.columns[name]
        cells = {"Mean": _cell(name, stats.mean),
                 "Min": _cell(name, stats.min),
                 "Max": _cell(name, stats.max)}
        widths[name] = max(len(_HEADERS[name]), *(len(c) for c in cells.values()))
        for label in rows:
            rows[label].append(cells[label].rjust(widths[name]))
    label_w = max(len(s) for s in ("Stat", "Mean", "Min", "Max"))
    header = "  ".join(["Stat".ljust(label_w)]
                       + [_HEADERS[n].rjust(widths[n]) for n in SUMMARY_COLUMNS])
    sep = "-" * len(header)
    lines = [header, sep]
    for label in ("Mean", "Min", "Max"):
        lines.append("  ".join([label.ljust(label_w)] + rows[label]))
    lines.append(f"records: {summary.count}")
    return "\n".join(lines) + "\n"
