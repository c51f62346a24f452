"""The benchmark's workloads and their set-up.

Every workload runs with ``jitter_frac = 0`` so the schedule oracle is
exact, and derives all of its inputs from the workload seed:

* ``paper_default``: the paper's own shape over ``demos/sample_docs``
  (two sentences, 45 tokens). Retrieval is tiny, so orchestration
  wake-ups and clock overshoot make up almost all of the error, and the
  channel never holds more than one frame.
* ``large_corpus``: 20,000 synthetic documents, so ``search`` does most
  of the per-utterance work and index build/save/load most of the set-up.
  The one-sentence reply leaves the streaming layers nearly idle.
* ``long_reply``: a 16-sentence reply whose synthesis is slower than
  generation, so the channel fills to its capacity of 4 and the producer
  blocks on ``put``; 16 handoffs chain into ``total_s``.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

from voxbench import (
    PipelineConfig,
    UtteranceRecord,
    VectorIndex,
    build_index,
    load_index,
    load_manifest,
    save_index,
    synthesize_manifest,
    write_manifest,
)

MEAN_DURATION_S = 6.36

# Manifest size. A timed run that needs more utterances cycles through it.
MANIFEST_COUNT = 400

# Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

VOCAB_WORDS = 5_000
WORDS_PER_DOC = 60


@dataclass(frozen=True)
class Workload:
    name: str
    config: PipelineConfig
    # 0 uses the bundled demos/sample_docs corpus.
    synthetic_docs: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload("paper_default", PipelineConfig(time_scale=0.05)),
        Workload("large_corpus", PipelineConfig(time_scale=0.01, response_sentences=1),
                 synthetic_docs=20_000),
        Workload("long_reply", PipelineConfig(time_scale=0.01, response_sentences=16,
                                              tts_rtf=0.05, queue_capacity=4)),
    )
}


def write_corpus(docs_dir: Path, count: int, seed: int) -> None:
    """Write ``count`` documents of WORDS_PER_DOC words drawn from a
    seeded vocabulary of VOCAB_WORDS made-up words."""
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = ["".join(rng.choices(letters, k=rng.randint(3, 9)))
             for _ in range(VOCAB_WORDS)]
    docs_dir.mkdir(parents=True)
    width = len(str(count - 1))
    for i in range(count):
        words = rng.choices(vocab, k=WORDS_PER_DOC)
        (docs_dir / f"doc-{i:0{width}d}.txt").write_text(
            " ".join(words).capitalize() + ".\n", encoding="utf-8")


@dataclass
class Inputs:
    """What one set-up produced, plus how long each step took (seconds)."""

    config: PipelineConfig
    index: VectorIndex
    records: list[UtteranceRecord]
    steps: dict[str, float]
    cache_bytes: int


def _setup_once(config: PipelineConfig, docs: Path, seed: int, work: Path) -> Inputs:
    steps = {}
    started = time.perf_counter()
    index = build_index(docs, config.embed_dim)
    steps["build_index_s"] = time.perf_counter() - started
    cache = work / "corpus.tvix"
    t = time.perf_counter()
    save_index(index, cache)
    steps["save_index_s"] = time.perf_counter() - t
    del index
    t = time.perf_counter()
    index = load_index(cache)
    steps["load_index_s"] = time.perf_counter() - t
    manifest = work / "dataset.jsonl"
    t = time.perf_counter()
    records = synthesize_manifest(MANIFEST_COUNT, MEAN_DURATION_S, docs, seed)
    steps["synthesize_s"] = time.perf_counter() - t
    write_manifest(records, manifest)
    t = time.perf_counter()
    records = load_manifest(manifest)
    steps["load_s"] = time.perf_counter() - t
    steps["setup_s"] = time.perf_counter() - started
    return Inputs(config=replace(config, rng_seed=seed), index=index, records=records,
                  steps=steps, cache_bytes=cache.stat().st_size)


def setup(workload: Workload, seed: int, root: Path, work: Path) -> Inputs:
    """Set the workload up SETUP_REPEATS times from scratch; return the
    last set-up's inputs with the median time of each step.

    A synthetic corpus is written once, untimed: writing 20,000 small
    files is the benchmark's own work and the noisiest step on a shared
    disk, so it is left out of ``setup_s``.
    """
    if workload.synthetic_docs:
        docs = work / "docs"
        write_corpus(docs, workload.synthetic_docs, seed)
    else:
        docs = root / "demos" / "sample_docs"
    steps = []
    for rep in range(SETUP_REPEATS):
        rep_dir = work / f"setup-{rep}"
        rep_dir.mkdir(parents=True)
        inputs = None  # drop the previous index before building the next
        inputs = _setup_once(workload.config, docs, seed, rep_dir)
        steps.append(inputs.steps)
    inputs.steps = {k: statistics.median(s[k] for s in steps) for k in inputs.steps}
    return inputs
