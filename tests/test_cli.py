"""CLI subcommands, file outputs and exit codes, driven in-process."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from voxbench import config, orchestrator
from voxbench.cli import CSV_COLUMNS, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from voxbench.config import CONFIG_ENV_VAR
from voxbench.manifest import load_manifest, synthesize_manifest, write_manifest
from voxbench.retrieval import load_index, save_index
from voxbench.types import UtteranceRecord

FAST_CONFIG = """\
# fast settings for tests
time_scale = 0.01
embed_dim = 64
"""


@pytest.fixture()
def manifest_path(docs_dir, tmp_path):
    records = synthesize_manifest(4, 6.36, docs_dir, seed=3)
    path = tmp_path / "dataset.jsonl"
    write_manifest(records, path)
    return path


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG, encoding="utf-8")
    return str(path)


class TestDatasetSynth:
    def test_writes_a_loadable_manifest(self, docs_dir, tmp_path, capsys):
        out = tmp_path / "m.jsonl"
        code = main(["dataset", "synth", "--docs-dir", str(docs_dir),
                     "--count", "8", "--out", str(out)])
        assert code == EXIT_OK
        assert len(load_manifest(out)) == 8
        assert "wrote 8 utterances" in capsys.readouterr().out

    def test_same_seed_gives_byte_identical_files(self, docs_dir, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            args = ["dataset", "synth", "--docs-dir", str(docs_dir),
                    "--count", "5", "--seed", "9", "--out", str(out)]
            assert main(args) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_missing_corpus_is_a_usage_error(self, tmp_path):
        code = main(["dataset", "synth", "--docs-dir", str(tmp_path / "void"),
                     "--out", str(tmp_path / "m.jsonl")])
        assert code == EXIT_USAGE


class TestIndexCommands:
    def test_build_then_query(self, docs_dir, tmp_path, capsys):
        cache = tmp_path / "index.tvix"
        code = main(["index", "build", "--docs-dir", str(docs_dir),
                     "--cache", str(cache), "--dim", "64"])
        assert code == EXIT_OK
        assert load_index(cache).dim == 64
        capsys.readouterr()

        code = main(["index", "query", "--cache", str(cache),
                     "--query", "signal jitter on the uplink", "--k", "3"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        scores = []
        for line in lines:
            doc_id, score = line.split("\t")
            assert doc_id.startswith("doc")
            scores.append(float(score))
        assert scores == sorted(scores, reverse=True)

    def test_query_against_missing_cache_is_a_usage_error(self, tmp_path):
        code = main(["index", "query", "--cache", str(tmp_path / "none.tvix"),
                     "--query", "x"])
        assert code == EXIT_USAGE

    def test_query_against_a_corrupt_cache_is_an_input_error(self, docs_dir, tmp_path,
                                                              capsys):
        cache = tmp_path / "bad.tvix"
        assert main(["index", "build", "--docs-dir", str(docs_dir),
                     "--cache", str(cache), "--dim", "64"]) == EXIT_OK
        blob = bytearray(cache.read_bytes())
        # One exponent bit of a nonzero value in the last vector.
        col = np.flatnonzero(load_index(cache).entries[-1][1])[0]
        blob[len(blob) - 8 * (64 - col) + 7] ^= 0x20
        cache.write_bytes(bytes(blob))
        capsys.readouterr()
        code = main(["index", "query", "--cache", str(cache), "--query", "x"])
        assert code == EXIT_USAGE
        assert str(cache) in capsys.readouterr().err


    def test_build_over_invalid_utf8_is_an_input_error(self, tmp_path, capsys):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "good.txt").write_text("fine text", encoding="utf-8")
        (docs / "bad.txt").write_bytes(b"caf\xe9 latin-1")
        code = main(["index", "build", "--docs-dir", str(docs),
                     "--cache", str(tmp_path / "index.tvix")])
        assert code == EXIT_USAGE
        assert str(docs / "bad.txt") in capsys.readouterr().err
        assert not (tmp_path / "index.tvix").exists()

    @pytest.mark.parametrize("command", [
        ["index", "build", "--cache", "index.tvix"],
        ["dataset", "synth", "--count", "4", "--out", "m.jsonl"],
    ], ids=["index-build", "dataset-synth"])
    def test_two_files_with_one_doc_id_are_an_input_error(self, command, tmp_path,
                                                          capsys, monkeypatch):
        docs = tmp_path / "docs"
        docs.mkdir()
        for name in (".txt", ".txt.txt"):
            (docs / name).write_text(f"the words of {name} differ", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--docs-dir", str(docs)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'.txt'" in err and "'.txt.txt'" in err and "doc_id" in err
        assert not (tmp_path / command[-1]).exists()


class TestBenchRun:
    def run_bench(self, manifest_path, docs_dir, tmp_path, config_path,
                  extra=()):
        out_dir = tmp_path / "report"
        args = ["bench", "run", "--manifest", str(manifest_path),
                "--docs-dir", str(docs_dir), "--out-dir", str(out_dir),
                "--config", config_path, *extra]
        return main(args), out_dir

    def test_end_to_end_report(self, manifest_path, docs_dir, tmp_path,
                               config_path, capsys):
        code, out_dir = self.run_bench(manifest_path, docs_dir, tmp_path,
                                       config_path)
        assert code == EXIT_OK

        with open(out_dir / "per_utterance.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(CSV_COLUMNS)
        assert len(rows) == 4
        for row in rows:
            assert row["failed"] == "false"
            assert row["error"] == ""
            assert float(row["total_s"]) > 0
            assert int(row["sentence_count"]) == 2

        payload = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert payload["utterances"] == 4
        assert payload["failed"] == 0
        assert payload["count"] == 4
        assert payload["columns"]["total_s"]["min"] <= payload["columns"]["total_s"]["max"]

        table = (out_dir / "summary_table.txt").read_text(encoding="utf-8")
        assert table.endswith("records: 4\n")
        assert capsys.readouterr().out == table

    def test_config_file_is_read_once(self, manifest_path, docs_dir, tmp_path,
                                      config_path, monkeypatch):
        loads = []
        real_load = config.load_config

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(config, "load_config", counting_load)
        code, _ = self.run_bench(manifest_path, docs_dir, tmp_path, config_path)
        assert code == EXIT_OK
        assert loads == [config_path]

    def test_cache_written_once_then_reused(self, manifest_path, docs_dir,
                                            tmp_path, config_path):
        cache = tmp_path / "bench.tvix"
        code, _ = self.run_bench(manifest_path, docs_dir, tmp_path, config_path,
                                 extra=["--cache", str(cache)])
        assert code == EXIT_OK
        assert cache.exists()
        stamp = cache.read_bytes()
        code, _ = self.run_bench(manifest_path, docs_dir, tmp_path, config_path,
                                 extra=["--cache", str(cache)])
        assert code == EXIT_OK
        assert cache.read_bytes() == stamp

    def test_stage_failures_exit_2_and_are_reported(self, manifest_path,
                                                    docs_dir, tmp_path, capsys,
                                                    monkeypatch):
        # a search backend that always fails: every utterance fails at
        # the retrieval stage
        def broken_search(index, query, k):
            raise RuntimeError("index offline")

        monkeypatch.setattr(orchestrator, "search", broken_search)
        cache = tmp_path / "small.tvix"
        assert main(["index", "build", "--docs-dir", str(docs_dir),
                     "--cache", str(cache), "--dim", "64"]) == EXIT_OK
        out_dir = tmp_path / "report"
        code = main(["bench", "run", "--manifest", str(manifest_path),
                     "--cache", str(cache), "--out-dir", str(out_dir)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "4 of 4 utterances failed" in err
        with open(out_dir / "per_utterance.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["failed"] == "true" for row in rows)
        assert all("rag:" in row["error"] for row in rows)
        assert (out_dir / "summary_table.txt").read_text(
            encoding="utf-8") == "no successful runs\n"

    def test_cache_at_another_dimension_than_the_config(self, manifest_path,
                                                        docs_dir, tmp_path):
        # the config keeps the default 256 dims; queries follow the
        # 64-dim cache
        cfg = tmp_path / "scaled.cfg"
        cfg.write_text("time_scale = 0.01\n", encoding="utf-8")
        cache = tmp_path / "small.tvix"
        assert main(["index", "build", "--docs-dir", str(docs_dir),
                     "--cache", str(cache), "--dim", "64"]) == EXIT_OK
        out_dir = tmp_path / "report"
        code = main(["bench", "run", "--manifest", str(manifest_path),
                     "--cache", str(cache), "--out-dir", str(out_dir),
                     "--config", str(cfg)])
        assert code == EXIT_OK

    def test_duplicate_id_is_an_input_error(self, docs_dir, tmp_path,
                                            config_path, capsys):
        bad = tmp_path / "twice.jsonl"
        write_manifest([UtteranceRecord("u0", 3.0, "first question"),
                        UtteranceRecord("u0", 4.0, "second question")], bad)
        code, out_dir = self.run_bench(bad, docs_dir, tmp_path, config_path)
        assert code == EXIT_USAGE
        assert "line 3: duplicate id 'u0', first on line 2" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_invalid_record_is_an_input_error(self, docs_dir, tmp_path,
                                              config_path, capsys):
        bad = tmp_path / "bad.jsonl"
        write_manifest([UtteranceRecord("u0", -3.0, "negative duration")], bad)
        code, out_dir = self.run_bench(bad, docs_dir, tmp_path, config_path)
        assert code == EXIT_USAGE
        assert "line 2: audio_duration_s must be finite and > 0" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("field, value", [
        ("audio_duration_s", "6.3"),
        ("reference_transcript", ["a", "list"]),
    ])
    def test_record_of_the_wrong_json_type_is_an_input_error(
            self, manifest_path, docs_dir, tmp_path, config_path, capsys, field, value):
        lines = manifest_path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        row[field] = value
        lines[2] = json.dumps(row)
        bad = tmp_path / "typed.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _ = self.run_bench(bad, docs_dir, tmp_path, config_path)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"line 3: wrong JSON type for {field}" in err
        assert "Traceback" not in err

    def test_missing_manifest_is_a_usage_error(self, docs_dir, tmp_path,
                                               config_path):
        code, _ = self.run_bench(tmp_path / "ghost.jsonl", docs_dir, tmp_path,
                                 config_path)
        assert code == EXIT_USAGE

    def test_bad_config_file_is_a_usage_error(self, manifest_path, docs_dir,
                                              tmp_path):
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("asr_rft = 0.1\n", encoding="utf-8")
        code, _ = self.run_bench(manifest_path, docs_dir, tmp_path,
                                 str(bad_cfg))
        assert code == EXIT_USAGE

    def test_no_cache_and_no_docs_dir_is_a_usage_error(self, manifest_path,
                                                       tmp_path, config_path):
        code = main(["bench", "run", "--manifest", str(manifest_path),
                     "--out-dir", str(tmp_path / "r"),
                     "--config", config_path])
        assert code == EXIT_USAGE


class TestConfigPrecedence:
    def test_env_var_supplies_the_config(self, manifest_path, docs_dir,
                                         tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text(FAST_CONFIG + "response_sentences = 3\n",
                       encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        out_dir = tmp_path / "report"
        code = main(["bench", "run", "--manifest", str(manifest_path),
                     "--docs-dir", str(docs_dir), "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        with open(out_dir / "per_utterance.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert all(int(row["sentence_count"]) == 3 for row in rows)

    def test_flag_beats_the_env_var(self, manifest_path, docs_dir, tmp_path,
                                    monkeypatch):
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_text(FAST_CONFIG + "response_sentences = 3\n",
                           encoding="utf-8")
        flag_cfg = tmp_path / "flag.cfg"
        flag_cfg.write_text(FAST_CONFIG + "response_sentences = 4\n",
                            encoding="utf-8")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
        out_dir = tmp_path / "report"
        code = main(["bench", "run", "--manifest", str(manifest_path),
                     "--docs-dir", str(docs_dir), "--out-dir", str(out_dir),
                     "--config", str(flag_cfg)])
        assert code == EXIT_OK
        with open(out_dir / "per_utterance.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert all(int(row["sentence_count"]) == 4 for row in rows)


class TestArgparseExits:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "Subcommands" not in capsys.readouterr().err

    def test_subcommand_help_exits_zero(self):
        assert main(["bench", "run", "--help"]) == EXIT_OK

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["index", "build", "--nope"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_subcommand_exits_one(self):
        assert main([]) == EXIT_USAGE
        assert main(["dataset"]) == EXIT_USAGE

    def test_missing_required_flag_exits_one(self):
        assert main(["index", "build", "--docs-dir", "x"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, flag", [
        (["index", "query", "--cache", "{cache}", "--query", "x"], "--k"),
        (["index", "build", "--docs-dir", "{docs}", "--cache", "{out}"], "--dim"),
        (["dataset", "synth", "--docs-dir", "{docs}", "--out", "{out}"], "--count"),
        (["dataset", "synth", "--docs-dir", "{docs}", "--out", "{out}"], "--mean-duration"),
    ])
    def test_out_of_range_number_exits_one(self, small_index, docs_dir, tmp_path, capsys,
                                           argv, flag):
        cache, out = tmp_path / "index.tvix", tmp_path / "out"
        save_index(small_index, cache)
        argv = [a.format(docs=docs_dir, cache=cache, out=out) for a in argv] + [flag, "0"]
        assert main(argv) == EXIT_USAGE
        assert f"argument {flag}: must be > 0, got 0" in capsys.readouterr().err
        assert not out.exists()


def test_installed_entry_point_responds():
    proc = subprocess.run([sys.executable, "-m", "voxbench.cli", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "voxbench" in proc.stdout
