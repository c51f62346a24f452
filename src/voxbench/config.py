"""Pipeline configuration and the flat ``key = value`` config file format.

The defaults model a single-node GPU deployment profile: transcription at
roughly 0.008x real time, retrieval answering in about 8 ms, generation
streaming 80 tokens/s after a 106 ms first-token wait, and synthesis
running ~60x faster than the audio it produces. With the default reply
shape (a 33-word lead sentence plus one 12-word follow-up, 45 words) one
reply is ~18 s of speech and synthesizes in ~0.286 s.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, ConfigFileError

# Environment variable consulted for the config file path when the CLI is
# invoked without --config.
CONFIG_ENV_VAR = "VOXBENCH_CONFIG"

@dataclass(frozen=True)
class PipelineConfig:
    """Tunable knobs for one benchmark run.

    Attributes:
        asr_rtf: Transcription time per second of source audio.
        rag_latency_s: Simulated latency of the retrieval backend, on top
            of the real embed/search/prompt work.
        llm_ttft_s: Wait before the first generated token appears.
        llm_tokens_per_sec: Steady-state token rate after the first token.
        tts_rtf: Synthesis time per second of produced audio.
        speaking_rate_wps: Words per second of produced speech; converts
            sentence length to audio duration.
        queue_capacity: Bounded channel size in frames.
        retrieval_k: Documents returned per query.
        embed_dim: Dimensionality of an index built from documents. A
            run embeds its queries at the dimension of the index it is
            given, so a loaded cache keeps the dimension it was built at.
        response_sentences: Sentences per simulated reply.
        rng_seed: Master seed for jitter and dataset derivation.
        time_scale: Real seconds slept per simulated second. 1.0 runs in
            real time; 0.05 runs twenty times faster. Reported values
            are modeled seconds at every scale, so metrics are
            comparable across scales.
        jitter_frac: Half-width of the multiplicative uniform jitter
            applied to every simulated delay; 0 disables jitter and makes
            all delays pure functions of config and input.
    """

    asr_rtf: float = 0.0077
    rag_latency_s: float = 0.008
    llm_ttft_s: float = 0.106
    llm_tokens_per_sec: int = 80
    tts_rtf: float = 0.0159
    speaking_rate_wps: float = 2.5
    queue_capacity: int = 64
    retrieval_k: int = 3
    embed_dim: int = 256
    response_sentences: int = 2
    rng_seed: int = 42
    time_scale: float = 1.0
    jitter_frac: float = 0.0

    def violations(self) -> list[str]:
        """Return the list of invariants this config violates."""
        problems: list[str] = []
        positive = (
            "asr_rtf", "rag_latency_s", "llm_ttft_s", "llm_tokens_per_sec",
            "tts_rtf", "speaking_rate_wps", "queue_capacity",
            "retrieval_k", "embed_dim", "response_sentences", "time_scale",
        )
        for name in positive:
            value = getattr(self, name)
            if not math.isfinite(float(value)) or value <= 0:
                problems.append(f"{name} must be finite and > 0")
        if not 0.0 <= self.jitter_frac < 1.0:
            problems.append("jitter_frac must lie in [0, 1)")
        return problems

    def ensure_valid(self) -> None:
        problems = self.violations()
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))


# Fields parsed as integers. Annotations are strings here, as this
# module postpones their evaluation.
_INT_FIELDS = frozenset(f.name for f in dataclasses.fields(PipelineConfig)
                        if f.type in (int, "int"))


def parse_config_text(text: str) -> PipelineConfig:
    """Parse ``key = value`` lines into a PipelineConfig.

    Blank lines and ``#`` comments are ignored. Unknown keys, repeated
    keys and unparseable values raise ConfigFileError naming the key and
    line number. Missing keys keep their defaults.
    """
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigFileError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if key not in fields:
            raise ConfigFileError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigFileError(f"line {lineno}: duplicate key {key!r}")
        try:
            seen[key] = int(value, 10) if key in _INT_FIELDS else float(value)
        except ValueError as exc:
            kind = "an integer" if key in _INT_FIELDS else "a number"
            raise ConfigFileError(
                f"line {lineno}: key {key!r} needs {kind}, got {value!r}"
            ) from exc
    return PipelineConfig(**seen)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path}: {exc}") from exc
    config = parse_config_text(text)
    config.ensure_valid()
    return config


def resolve_config(explicit_path: str | None) -> PipelineConfig:
    """Pick the effective config: --config flag, else $VOXBENCH_CONFIG, else defaults."""
    path = explicit_path or os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return PipelineConfig()
    return load_config(path)
