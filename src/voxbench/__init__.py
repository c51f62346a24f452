"""voxbench: a streaming voice-to-voice pipeline simulator and benchmark.

The package models a spoken question answering service: speech
recognition runs up front, a vector index supplies grounding documents,
the reply streams out token by token, completed sentences cross a bounded
channel as binary frames, and synthesis consumes them concurrently so
audio playback starts long before generation finishes. Every stage is a
deterministic simulator driven by one config object, which makes
end-to-end latency behavior measurable, reproducible and fast to test at
any time scale.

Quick start::

    from voxbench import (PipelineConfig, VectorIndex, Document,
                          UtteranceRecord, build_simulated_stages,
                          run_utterance)

    docs = [Document("greetings", "A short note about saying hello.")]
    index = VectorIndex.from_documents(docs, dim=256)
    config = PipelineConfig(time_scale=0.05)
    utterance = UtteranceRecord("u0", 6.4, "How do I say hello?")
    result = run_utterance(utterance, config, index,
                           build_simulated_stages(config))
    print(result.timings.total_s, result.timings.ttfa_s)
"""

from .config import CONFIG_ENV_VAR, PipelineConfig, load_config
from .errors import VoxbenchError
from .manifest import load_manifest, synthesize_manifest, write_manifest
from .metrics import (
    RunSummary,
    cosine,
    render_table,
    rtf,
    summarize,
    words_per_sec,
)
from .orchestrator import (
    UtteranceResult,
    run_dataset,
    run_utterance,
)
from .retrieval import (
    Document,
    VectorIndex,
    build_index,
    build_prompt,
    embed,
    load_index,
    save_index,
    search,
)
from .segmenter import SentenceSegmenter
from .stages import (
    SimulatedAsr,
    SimulatedLlm,
    SimulatedTts,
    StageClock,
    StageSet,
    build_simulated_stages,
    make_response,
)
from .types import (
    AudioSegment,
    Sentence,
    StageTimings,
    Transcript,
    UtteranceRecord,
)
from .wire import (
    SentenceFrame,
    decode_frame,
    encode_end,
    encode_frame,
    iter_frames,
)

__version__ = "0.1.0"

__all__ = [
    "AudioSegment",
    "CONFIG_ENV_VAR",
    "Document",
    "PipelineConfig",
    "RunSummary",
    "Sentence",
    "SentenceFrame",
    "SentenceSegmenter",
    "SimulatedAsr",
    "SimulatedLlm",
    "SimulatedTts",
    "StageClock",
    "StageSet",
    "StageTimings",
    "Transcript",
    "UtteranceRecord",
    "UtteranceResult",
    "VectorIndex",
    "VoxbenchError",
    "build_index",
    "build_prompt",
    "build_simulated_stages",
    "cosine",
    "decode_frame",
    "embed",
    "encode_end",
    "encode_frame",
    "iter_frames",
    "load_config",
    "load_index",
    "load_manifest",
    "make_response",
    "render_table",
    "rtf",
    "run_dataset",
    "run_utterance",
    "save_index",
    "search",
    "summarize",
    "synthesize_manifest",
    "words_per_sec",
    "write_manifest",
]
