"""PipelineConfig validation and the config file format."""

import pytest

from voxbench.config import (
    CONFIG_ENV_VAR,
    PipelineConfig,
    load_config,
    parse_config_text,
    resolve_config,
)
from voxbench.errors import ConfigError, ConfigFileError


def test_defaults_are_valid():
    assert PipelineConfig().violations() == []


@pytest.mark.parametrize("field", [
    "asr_rtf", "rag_latency_s", "llm_ttft_s", "llm_tokens_per_sec",
    "tts_rtf", "speaking_rate_wps", "queue_capacity", "retrieval_k",
    "embed_dim", "response_sentences", "time_scale",
])
def test_zero_is_rejected_for_positive_fields(field):
    config = PipelineConfig(**{field: 0})
    assert any(field in p for p in config.violations())
    with pytest.raises(ConfigError):
        config.ensure_valid()


def test_jitter_frac_range():
    assert PipelineConfig(jitter_frac=0.0).violations() == []
    assert PipelineConfig(jitter_frac=0.99).violations() == []
    assert PipelineConfig(jitter_frac=1.0).violations()
    assert PipelineConfig(jitter_frac=-0.1).violations()


def test_parse_ignores_comments_and_blanks():
    text = "# profile\n\nasr_rtf = 0.01  # inline note\n\nrng_seed = 3\n"
    config = parse_config_text(text)
    assert config.asr_rtf == 0.01
    assert config.rng_seed == 3


def test_parse_unknown_key_names_key_and_line():
    with pytest.raises(ConfigFileError, match=r"line 2.*'asr_rft'"):
        parse_config_text("asr_rtf = 0.01\nasr_rft = 0.02\n")


def test_parse_bad_value_names_key_and_line():
    with pytest.raises(ConfigFileError, match=r"line 1.*'embed_dim'"):
        parse_config_text("embed_dim = lots\n")


def test_parse_missing_equals_sign():
    with pytest.raises(ConfigFileError, match="line 1"):
        parse_config_text("asr_rtf 0.01\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigFileError, match=r"line 2.*duplicate"):
        parse_config_text("rng_seed = 1\nrng_seed = 2\n")


def test_load_config_validates(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("asr_rtf = 0.0\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigFileError):
        load_config(tmp_path / "nope.conf")


def test_resolve_config_prefers_flag_over_env(tmp_path, monkeypatch):
    flag_path = tmp_path / "flag.conf"
    flag_path.write_text("rng_seed = 111\n")
    env_path = tmp_path / "env.conf"
    env_path.write_text("rng_seed = 222\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(env_path))
    assert resolve_config(str(flag_path)).rng_seed == 111
    assert resolve_config(None).rng_seed == 222
    monkeypatch.delenv(CONFIG_ENV_VAR)
    assert resolve_config(None) == PipelineConfig()
