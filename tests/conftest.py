from __future__ import annotations

import os

# One BLAS thread, as benchmarks/run.py sets, so the dense matmul behind
# support.full_sort_topk is the one that search's scores reproduce: with
# more threads OpenBLAS splits a large gemv into row ranges whose ends
# round differently. OpenBLAS reads this once, when numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

from voxbench import PipelineConfig, build_index  # noqa: E402

from .support import write_corpus  # noqa: E402


@pytest.fixture(scope="session")
def docs_dir(tmp_path_factory):
    """A deterministic 12-document corpus shared across the session."""
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(root, count=12, seed=7)
    return root


@pytest.fixture(scope="session")
def small_index(docs_dir):
    return build_index(docs_dir, dim=256)


@pytest.fixture(scope="session")
def fast_index(docs_dir):
    """Companion index for fast_config (matching embed_dim)."""
    return build_index(docs_dir, dim=64)


@pytest.fixture()
def fast_config():
    """Config for tests that only care about behavior, not the modeled
    latency profile; runs one utterance in a few milliseconds."""
    return PipelineConfig(
        asr_rtf=0.002, rag_latency_s=0.002, llm_ttft_s=0.02,
        llm_tokens_per_sec=400, tts_rtf=0.01, speaking_rate_wps=5.0,
        queue_capacity=16, retrieval_k=2, embed_dim=64,
        response_sentences=2, rng_seed=11, time_scale=0.01, jitter_frac=0.0,
    )
