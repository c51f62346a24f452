"""Command-line interface.

Subcommands:

    voxbench dataset synth   fabricate a manifest from a document corpus
    voxbench index build     embed a corpus into a binary index cache
    voxbench index query     search an index cache with a text query
    voxbench bench run       run the benchmark over a manifest

Exit codes: 0 success, 1 usage or configuration error (bad flags, bad or
missing input files, invalid config values), 2 runtime failure (the
benchmark executed but at least one utterance failed, or an unexpected
error occurred). ``bench run`` reads its config from --config, else from
$VOXBENCH_CONFIG, else uses built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import Callable

from .config import CONFIG_ENV_VAR, resolve_config
from .errors import (
    CacheFormatError,
    ConfigError,
    CorpusIOError,
    EmptyCorpusError,
    ManifestFormatError,
    VoxbenchError,
)
from .manifest import load_manifest, synthesize_manifest, write_manifest
from .metrics import RunSummary, render_table
from .orchestrator import UtteranceResult, run_dataset
from .retrieval import build_index, embed, load_index, save_index, search

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

# Frozen column order of the per-utterance CSV report.
CSV_COLUMNS = (
    "utterance_id", "asr_s", "rag_s", "llm_s", "tts_s", "total_s",
    "asr_words_per_sec", "llm_tokens_per_sec_obs", "asr_rtf_obs",
    "ttft_s", "ttfa_s", "cosine_similarity", "sentence_count",
    "failed", "error",
)

_USAGE_ERRORS = (ConfigError, ManifestFormatError, EmptyCorpusError,
                 CorpusIOError, CacheFormatError, FileNotFoundError)


def _positive(kind: type) -> Callable[[str], int | float]:
    """An argparse ``type`` that parses ``kind`` and rejects values not > 0."""
    def parse(text: str) -> int | float:
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxbench",
        description="Streaming voice pipeline simulator and latency benchmark.")
    top = parser.add_subparsers(dest="group", required=True)

    dataset = top.add_parser("dataset", help="dataset tools")
    dataset_sub = dataset.add_subparsers(dest="command", required=True)
    synth = dataset_sub.add_parser(
        "synth", help="fabricate a manifest grounded in a document corpus")
    synth.add_argument("--count", type=_positive(int), default=500,
                       help="utterances to generate")
    synth.add_argument("--mean-duration", type=_positive(float), default=6.36,
                       help="mean utterance duration in seconds")
    synth.add_argument("--docs-dir", required=True, help="directory of *.txt documents")
    synth.add_argument("--seed", type=int, default=42)
    synth.add_argument("--out", required=True, help="manifest path to write")
    synth.set_defaults(handler=_cmd_dataset_synth)

    index = top.add_parser("index", help="vector index tools")
    index_sub = index.add_subparsers(dest="command", required=True)
    build = index_sub.add_parser("build", help="embed a corpus into an index cache")
    build.add_argument("--docs-dir", required=True)
    build.add_argument("--cache", required=True, help="index cache path to write")
    build.add_argument("--dim", type=_positive(int), default=256)
    build.set_defaults(handler=_cmd_index_build)
    query = index_sub.add_parser("query", help="search an index cache")
    query.add_argument("--cache", required=True)
    query.add_argument("--query", required=True, help="query text")
    query.add_argument("--k", type=_positive(int), default=3)
    query.set_defaults(handler=_cmd_index_query)

    bench = top.add_parser("bench", help="benchmark tools")
    bench_sub = bench.add_subparsers(dest="command", required=True)
    run = bench_sub.add_parser("run", help="run the benchmark over a manifest")
    run.add_argument("--manifest", required=True)
    run.add_argument("--config",
                     help=f"config file (default: ${CONFIG_ENV_VAR}, else built-ins)")
    run.add_argument("--cache", help="index cache to load")
    run.add_argument("--docs-dir",
                     help="corpus to index when the cache is absent; the cache "
                          "path, when also given, is then written")
    run.add_argument("--out-dir", required=True, help="report directory")
    run.set_defaults(handler=_cmd_bench_run)
    return parser


def _cmd_dataset_synth(args: argparse.Namespace) -> int:
    records = synthesize_manifest(args.count, args.mean_duration,
                                  args.docs_dir, args.seed)
    write_manifest(records, args.out)
    print(f"wrote {len(records)} utterances to {args.out}")
    return EXIT_OK


def _cmd_index_build(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    index = build_index(args.docs_dir, args.dim)
    save_index(index, args.cache)
    elapsed = time.perf_counter() - started
    print(f"indexed {len(index)} documents (dim {index.dim}) "
          f"into {args.cache} in {elapsed:.3f}s")
    return EXIT_OK


def _cmd_index_query(args: argparse.Namespace) -> int:
    index = load_index(args.cache)
    results = search(index, embed(args.query, index.dim), args.k)
    for doc_id, score in results:
        print(f"{doc_id}\t{score:.6f}")
    return EXIT_OK


def _resolve_index(args: argparse.Namespace, embed_dim: int):
    cache = Path(args.cache) if args.cache else None
    if cache is not None and cache.exists():
        return load_index(cache)
    if args.docs_dir:
        index = build_index(args.docs_dir, embed_dim)
        if cache is not None:
            save_index(index, cache)
        return index
    raise ConfigError("no index available: --cache does not exist and no "
                      "--docs-dir fallback was given")


def _csv_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def write_timings_csv(results: list[UtteranceResult], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for result in results:
            row = []
            for column in CSV_COLUMNS:
                if column == "failed":
                    row.append(str(result.failed).lower())
                elif column == "error":
                    row.append(result.error or "")
                else:
                    row.append(_csv_value(getattr(result.timings, column)))
            writer.writerow(row)


def write_summary_json(summary: RunSummary | None, total: int, failed: int,
                       path: str | Path) -> None:
    payload: dict = {"utterances": total, "failed": failed}
    if summary is not None:
        payload["count"] = summary.count
        payload["columns"] = {
            name: {"mean": stats.mean, "min": stats.min, "max": stats.max}
            for name, stats in summary.columns.items()
        }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _cmd_bench_run(args: argparse.Namespace) -> int:
    records = load_manifest(args.manifest)
    if not records:
        raise ManifestFormatError(f"manifest {args.manifest} contains no utterances")
    config = resolve_config(args.config)
    index = _resolve_index(args, config.embed_dim)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results, summary = run_dataset(records, config, index)
    failed = sum(1 for r in results if r.failed)

    write_timings_csv(results, out_dir / "per_utterance.csv")
    write_summary_json(summary, len(results), failed, out_dir / "summary.json")
    table = render_table(summary) if summary is not None else "no successful runs\n"
    (out_dir / "summary_table.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    if failed:
        print(f"{failed} of {len(results)} utterances failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage mistakes; fold the
        # latter into the usage/config exit code.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (VoxbenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
