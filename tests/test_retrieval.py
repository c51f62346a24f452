"""Embedding, flat search and the index cache format."""

import hashlib
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from voxbench.errors import (
    CacheFormatError,
    CacheVersionError,
    CorpusIOError,
    DimensionMismatchError,
    EmptyCorpusError,
    UnknownDocumentError,
)
from voxbench.retrieval import (
    CACHE_MAGIC,
    Document,
    VectorIndex,
    _token_bucket,
    build_index,
    build_prompt,
    corpus_paths,
    embed,
    load_documents,
    load_index,
    save_index,
    search,
)

from .support import brute_force_topk, full_sort_topk, reference_cache_bytes, search_cases

# Bucket positions frozen from hashlib.blake2b(token, digest_size=8)
# little-endian mod dim, computed outside the package code.
FROZEN_BUCKETS_64 = {"alpha": 19, "bravo": 28, "signal": 32, "café": 23}
FROZEN_BUCKETS_256 = {"alpha": 83, "bravo": 92, "signal": 32, "café": 87}

# Index size of the hand-built screening cases below: many rows around
# the few that matter.
LARGE_ROWS = 1024


def oracle_embed(text, dim):
    """Reference embedding via hashlib directly, accumulated in a dict."""
    counts = {}
    for token in text.lower().split():
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        bucket = int.from_bytes(digest, "little") % dim
        counts[bucket] = counts.get(bucket, 0) + 1.0
    if not counts:
        counts[0] = 1.0
    norm = math.sqrt(sum(c * c for c in counts.values()))
    vec = [0.0] * dim
    for bucket, count in counts.items():
        vec[bucket] = count / norm
    return vec


class TestEmbed:
    @pytest.mark.parametrize("dim,frozen", [(64, FROZEN_BUCKETS_64),
                                            (256, FROZEN_BUCKETS_256)])
    def test_single_tokens_land_in_frozen_buckets(self, dim, frozen):
        for token, bucket in frozen.items():
            vec = embed(token, dim)
            assert vec[bucket] == 1.0
            assert np.count_nonzero(vec) == 1

    def test_matches_the_dict_oracle_on_random_texts(self):
        rng = random.Random(21)
        words = list(FROZEN_BUCKETS_64) + ["delta", "echo", "route", "ROUTE"]
        for _ in range(50):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 12)))
            for dim in (8, 64, 256):
                np.testing.assert_allclose(embed(text, dim),
                                           oracle_embed(text, dim), atol=1e-12)

    def test_token_order_does_not_matter(self):
        a = embed("signal route carrier", 64)
        b = embed("carrier signal route", 64)
        np.testing.assert_array_equal(a, b)

    def test_case_folds_before_hashing(self):
        np.testing.assert_array_equal(embed("Signal ROUTE", 64),
                                      embed("signal route", 64))

    def test_empty_text_maps_to_first_basis_vector(self):
        for text in ("", "   ", "\n\t"):
            vec = embed(text, 16)
            assert vec[0] == 1.0
            assert np.count_nonzero(vec) == 1

    def test_always_unit_norm(self):
        rng = random.Random(4)
        for _ in range(30):
            text = " ".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 20)))
            assert np.linalg.norm(embed(text, 32)) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_token_counts_accumulate(self):
        vec = embed("alpha alpha alpha", 64)
        assert vec[FROZEN_BUCKETS_64["alpha"]] == 1.0

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError):
            embed("x", 0)


class TestVectorIndex:
    def docs(self):
        return [Document("a", "alpha bravo"), Document("b", "signal route")]

    def test_from_documents_keeps_order_and_texts(self):
        index = VectorIndex.from_documents(self.docs(), 64)
        assert index.doc_ids == ["a", "b"]
        assert index.document("a").text == "alpha bravo"
        assert len(index) == 2

    def test_duplicate_doc_id_rejected(self):
        vec = embed("x", 8)
        with pytest.raises(ValueError, match="duplicate"):
            VectorIndex(["a", "a"], np.stack([vec, vec]), {"a": Document("a", "x")})

    def test_entries_and_documents_must_agree(self):
        with pytest.raises(ValueError, match="same doc_ids"):
            VectorIndex(["a"], embed("x", 8)[np.newaxis], {"b": Document("b", "x")})

    def test_wrong_vector_shape_rejected(self):
        docs = {"a": Document("a", "x")}
        with pytest.raises(DimensionMismatchError):
            VectorIndex(["a"], embed("x", 8), docs)  # 1-D, not one row per id
        with pytest.raises(DimensionMismatchError):
            VectorIndex(["a"], np.stack([embed("x", 8), embed("y", 8)]), docs)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            VectorIndex(["a"], np.ones((1, 4)), {"a": Document("a", "x")})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        docs = {d: Document(d, d) for d in ("a", "b")}
        row = embed("b", 8)
        row[np.flatnonzero(row == 0)[0]] = bad
        with pytest.raises(ValueError, match="'b' is not unit norm"):
            VectorIndex(["a", "b"], np.stack([embed("a", 8), row]), docs)

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            VectorIndex([], np.empty((0, 0)), {})

    def test_float64_matrix_is_adopted_not_copied(self):
        matrix = np.stack([embed("alpha", 8), embed("bravo", 8)])
        index = VectorIndex(["a", "b"], matrix,
                            {d: Document(d, d) for d in ("a", "b")})
        assert np.shares_memory(index._matrix, matrix)

    def test_unknown_document_lookup(self):
        index = VectorIndex.from_documents(self.docs(), 16)
        with pytest.raises(UnknownDocumentError):
            index.document("zzz")

    def test_from_documents_rows_equal_embed_bit_for_bit(self):
        texts = ["", "   \n\t", "alpha alpha ALPHA Alpha", "Signal ROUTE signal route",
                 "café ✅ 你好 naïve", "end. of, line; (quoted) 'x' -- ?!",
                 "packet\tloss\njitter  codec"]
        rng = random.Random(5)
        words = list(FROZEN_BUCKETS_64) + ["delta", "echo", "route", "ROUTE", "x."]
        texts += [" ".join(rng.choices(words, k=rng.randint(1, 40))) for _ in range(50)]
        for dim in (1, 8, 256):
            index = VectorIndex.from_documents(
                [Document(f"d{i}", text) for i, text in enumerate(texts)], dim)
            got = np.stack([vec for _, vec in index.entries])
            want = np.stack([embed(text, dim) for text in texts])
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_entries_returns_copies(self):
        index = VectorIndex.from_documents(self.docs(), 16)
        doc_id, vec = index.entries[0]
        vec[:] = 0.0
        fresh = dict(index.entries)[doc_id]
        assert np.linalg.norm(fresh) == pytest.approx(1.0, abs=1e-12)


class TestLoadDocuments:
    def test_reads_sorted_txt_files_only(self, tmp_path):
        (tmp_path / "b.txt").write_text("bravo text", encoding="utf-8")
        (tmp_path / "a.txt").write_text("alpha text", encoding="utf-8")
        (tmp_path / "ignored.md").write_text("nope", encoding="utf-8")
        docs = load_documents(tmp_path)
        assert [d.doc_id for d in docs] == ["a", "b"]
        assert docs[0].text == "alpha text"

    def test_missing_directory(self, tmp_path):
        with pytest.raises(EmptyCorpusError):
            load_documents(tmp_path / "nowhere")

    def test_directory_without_txt_files(self, tmp_path):
        (tmp_path / "x.md").write_text("nope", encoding="utf-8")
        with pytest.raises(EmptyCorpusError):
            load_documents(tmp_path)

    # Each case maps entry names to file bytes (None makes a directory) and
    # gives the (doc_id, text) pairs that Path.glob("*.txt") sorted by stem
    # and read_text(encoding="utf-8") yield, or the error they lead to.
    @pytest.mark.parametrize("entries, want", [
        pytest.param({"a.txt": b"one\r\ntwo\rthree\r\r\nfour\n"},
                     [("a", "one\ntwo\nthree\n\nfour\n")], id="crlf-and-lone-cr"),
        pytest.param({"a.txt": b"\xef\xbb\xbfbom first"}, [("a", "\ufeffbom first")],
                     id="bom-kept"),
        pytest.param({"z.txt": b"z", ".txt": b"bare", ".hidden.txt": b"h"},
                     [(".hidden", "h"), (".txt", "bare"), ("z", "z")], id="dotfiles"),
        pytest.param({"A.TXT": b"upper", "b.txt": b"b"}, [("b", "b")],
                     id="suffix-is-case-sensitive"),
        pytest.param({"a-b.txt": b"ab", "a.txt": b"a"}, [("a", "a"), ("a-b", "ab")],
                     id="sorted-by-stem-not-name"),
        pytest.param({"a.txt": b"a", "sub.txt": None}, CorpusIOError,
                     id="directory-named-txt"),
    ])
    def test_listing_and_decoding_rules(self, tmp_path, entries, want):
        for name, data in entries.items():
            if data is None:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_bytes(data)
        if isinstance(want, list):
            assert [(d.doc_id, d.text) for d in load_documents(tmp_path)] == want
        else:
            with pytest.raises(want, match=re.escape(str(tmp_path / "sub.txt"))):
                load_documents(tmp_path)

    def test_invalid_utf8_names_the_file(self, tmp_path):
        (tmp_path / "good.txt").write_text("fine", encoding="utf-8")
        (tmp_path / "bad.txt").write_bytes(b"caf\xe9 latin-1")
        with pytest.raises(CorpusIOError,
                           match=re.escape(str(tmp_path / "bad.txt")) + ".*UTF-8"):
            load_documents(tmp_path)

    def test_two_files_with_one_doc_id_are_rejected(self, tmp_path):
        # ".txt" keeps its whole name as doc_id, which ".txt.txt" also gets.
        for name in ("a.txt", ".txt", ".txt.txt"):
            (tmp_path / name).write_text(f"text of {name}", encoding="utf-8")
        with pytest.raises(CorpusIOError, match=r"'\.txt'.*'\.txt\.txt'.*doc_id '\.txt'"):
            corpus_paths(tmp_path)


class TestCacheFile:
    def test_round_trip_is_bit_identical(self, small_index, tmp_path):
        path = tmp_path / "cache.tvix"
        save_index(small_index, path)
        loaded = load_index(path)
        assert loaded.dim == small_index.dim
        assert loaded.doc_ids == small_index.doc_ids
        for (id_a, vec_a), (id_b, vec_b) in zip(small_index.entries, loaded.entries):
            assert id_a == id_b
            np.testing.assert_array_equal(vec_a, vec_b)
        for doc_id in small_index.doc_ids:
            assert loaded.document(doc_id) == small_index.document(doc_id)

    def test_rebuild_writes_byte_identical_files(self, docs_dir, tmp_path):
        p1, p2 = tmp_path / "one.tvix", tmp_path / "two.tvix"
        save_index(build_index(docs_dir, 64), p1)
        save_index(build_index(docs_dir, 64), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unicode_ids_and_texts_survive(self, tmp_path):
        docs = [Document("café-✅", "text with 你好 tokens")]
        index = VectorIndex.from_documents(docs, 16)
        path = tmp_path / "u.tvix"
        save_index(index, path)
        assert load_index(path).document("café-✅").text == docs[0].text

    def test_bad_magic(self, small_index, tmp_path):
        path = tmp_path / "cache.tvix"
        save_index(small_index, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"what"
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheFormatError, match="magic"):
            load_index(path)

    def test_future_version_asks_for_a_rebuild(self, small_index, tmp_path):
        path = tmp_path / "cache.tvix"
        save_index(small_index, path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (9).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheVersionError, match="rebuild"):
            load_index(path)
        assert issubclass(CacheVersionError, CacheFormatError)

    def test_truncation_detected(self, small_index, tmp_path):
        path = tmp_path / "cache.tvix"
        save_index(small_index, path)
        blob = path.read_bytes()
        for cut in (3, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(CacheFormatError, match="truncated"):
                load_index(path)

    def test_trailing_bytes_detected(self, small_index, tmp_path):
        path = tmp_path / "cache.tvix"
        save_index(small_index, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CacheFormatError, match="trailing"):
            load_index(path)

    def test_file_matches_the_reference_writer(self, small_index, tmp_path):
        unicode_index = VectorIndex.from_documents(
            [Document("café-✅", "text with 你好 tokens"), Document("b", "")], 16)
        for index in (small_index, unicode_index):
            path = tmp_path / "cache.tvix"
            save_index(index, path)
            assert path.read_bytes() == reference_cache_bytes(index)

    def test_magic_constant(self):
        assert CACHE_MAGIC == b"TVIX"

    def test_round_trip_keeps_every_bit_of_a_signed_row(self, tmp_path):
        docs = {d: Document(d, f"text of {d}") for d in ("a", "b", "c")}
        signed = np.array([0.5, -0.5, -0.0, 0.5, 0.0, -0.5, -0.0, 0.0])
        rows = [embed("c", 8), signed, embed("route signal signal", 8)]
        index = VectorIndex(["c", "a", "b"], np.stack(rows), docs)
        path = tmp_path / "signed.tvix"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.doc_ids == ["c", "a", "b"]
        got = np.stack([vec for _, vec in loaded.entries])
        want = np.stack([vec for _, vec in index.entries])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert [loaded.document(d) for d in docs] == list(docs.values())

    def test_bit_flip_in_a_vector_is_a_format_error(self, small_index, tmp_path):
        path = tmp_path / "cache.tvix"
        save_index(small_index, path)
        blob = bytearray(path.read_bytes())
        # Flip one exponent bit of a nonzero value in the last vector, which
        # takes that value to ~1e-155 and the vector off unit norm.
        col = np.flatnonzero(small_index.entries[-1][1])[0]
        blob[len(blob) - 8 * (small_index.dim - col) + 7] ^= 0x20
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheFormatError, match=re.escape(str(path)) + ".*unit norm"):
            load_index(path)

    def test_nan_row_in_a_cache_is_a_format_error(self, small_index, tmp_path):
        path = tmp_path / "cache.tvix"
        save_index(small_index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8] + struct.pack("<d", math.nan))  # last value, last row
        with pytest.raises(CacheFormatError, match=re.escape(str(path)) + ".*unit norm"):
            load_index(path)

    def test_invalid_utf8_in_a_doc_id_is_a_format_error(self, small_index, tmp_path):
        path = tmp_path / "cache.tvix"
        save_index(small_index, path)
        blob = bytearray(path.read_bytes())
        blob[14 + 4] = 0xFF  # first byte of the first doc_id, after the header
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheFormatError, match=re.escape(str(path)) + ".*utf-8"):
            load_index(path)

    def test_duplicate_doc_ids_are_a_format_error(self, tmp_path):
        index = VectorIndex.from_documents(
            [Document("doc-1", "alpha"), Document("doc-2", "bravo")], 16)
        path = tmp_path / "cache.tvix"
        save_index(index, path)
        path.write_bytes(path.read_bytes().replace(b"doc-2", b"doc-1"))
        with pytest.raises(CacheFormatError, match=re.escape(str(path)) + ".*duplicate"):
            load_index(path)

    def test_header_claiming_more_entries_than_the_file_holds(self, tmp_path):
        # Checked against the file size before anything is allocated: a
        # matrix of 0xFFFFFFFF rows of dim 0xFFFFFFFF could never exist.
        path = tmp_path / "huge.tvix"
        path.write_bytes(struct.pack("<4sHII", b"TVIX", 1, 0xFFFFFFFF, 0xFFFFFFFF))
        with pytest.raises(CacheFormatError, match="truncated"):
            load_index(path)

    def test_dim_zero_is_a_format_error(self, tmp_path):
        path = tmp_path / "flat.tvix"
        path.write_bytes(struct.pack("<4sHII", b"TVIX", 1, 0, 0))
        with pytest.raises(CacheFormatError, match="dim 0"):
            load_index(path)

    def test_a_cache_of_zero_entries_loads_and_searches_to_nothing(self, tmp_path):
        path = tmp_path / "empty.tvix"
        path.write_bytes(struct.pack("<4sHII", b"TVIX", 1, 16, 0))
        index = load_index(path)
        assert (len(index), index.dim) == (0, 16)
        for query in (embed("signal", 16), np.zeros(16)):
            for k in (1, 3):
                assert search(index, query, k) == []

    def test_failed_save_leaves_the_old_cache_untouched(self, small_index, tmp_path):
        path = tmp_path / "cache.tvix"
        save_index(small_index, path)
        before = path.read_bytes()
        index = VectorIndex.from_documents(
            [Document("a", "alpha"), Document("b", "bravo"), Document("c", "x")], 16)
        lookups = []

        def failing_document(doc_id):
            lookups.append(doc_id)
            if len(lookups) == 2:
                raise OSError("disk went away")
            return VectorIndex.document(index, doc_id)

        index.document = failing_document
        with pytest.raises(OSError, match="disk went away"):
            save_index(index, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cache.tvix"]

    def test_saved_file_gets_the_mode_of_a_plain_open(self, small_index, tmp_path):
        plain = tmp_path / "plain"
        with open(plain, "wb"):
            pass
        path = tmp_path / "cache.tvix"
        save_index(small_index, path)
        assert os.stat(path).st_mode == os.stat(plain).st_mode
        os.chmod(path, 0o640)
        save_index(small_index, path)
        assert os.stat(path).st_mode & 0o777 == 0o640


class TestSingleCopy:
    """Building and loading an index hold one float64 copy of the vectors
    (plus the texts), not one per step. numpy reports its buffers to
    tracemalloc, so these peaks are exact and do not depend on timing."""

    DOCS, DIM = 2000, 256

    def docs(self):
        rng = random.Random(17)
        vocab = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(3, 9)))
                 for _ in range(2000)]
        return [Document(f"doc-{i:04d}", " ".join(rng.choices(vocab, k=60)).capitalize())
                for i in range(self.DOCS)]

    def budget(self, docs):
        matrix_bytes = self.DOCS * self.DIM * 8
        text_bytes = sum(len(d.text.encode("utf-8")) for d in docs)
        return 1.5 * (matrix_bytes + text_bytes)

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_from_documents_peak(self):
        docs = self.docs()
        _token_bucket.cache_clear()  # worst case: every token hashed afresh
        index, peak = self.traced_peak(VectorIndex.from_documents, docs, self.DIM)
        assert len(index) == self.DOCS
        assert peak < self.budget(docs)

    def test_load_index_peak(self, tmp_path):
        docs = self.docs()
        path = tmp_path / "big.tvix"
        save_index(VectorIndex.from_documents(docs, self.DIM), path)
        index, peak = self.traced_peak(load_index, path)
        assert len(index) == self.DOCS
        assert peak < self.budget(docs)

    def test_first_search_builds_the_grid_copy_in_chunks(self):
        """The int8 copy is dim * n bytes; everything else the first search
        allocates stays under 1 MiB, so no temporary is the size of the
        float64 matrix."""
        docs = self.docs()
        index = VectorIndex.from_documents(docs, self.DIM)
        query = embed(" ".join(docs[0].text.split()[:12]), self.DIM)
        results, peak = self.traced_peak(search, index, query, 3)
        assert results[0][0] == docs[0].doc_id
        assert index._screen is not None
        assert peak < self.DIM * self.DOCS + (1 << 20)


_TWO_THREAD_SCRIPT = """
import json
from tests.support import search_cases
from voxbench.retrieval import search
for index, query in search_cases():
    for k in (1, 3, len(index)):
        print(json.dumps([(doc_id, repr(score)) for doc_id, score in search(index, query, k)]))
"""


def exact(results):
    """Results compared by score bits, through repr."""
    return [(doc_id, repr(score)) for doc_id, score in results]


class TestSearch:
    def test_matches_brute_force_on_seeded_queries(self, small_index):
        rng = random.Random(88)
        entries = [(doc_id, vec.tolist()) for doc_id, vec in small_index.entries]
        for _ in range(60):
            text = " ".join(rng.choice("signal route packet jitter codec node"
                                       .split()) for _ in range(rng.randint(1, 6)))
            query = embed(text, small_index.dim)
            for k in (1, 3, 10):
                got = search(small_index, query, k)
                want = brute_force_topk(entries, query.tolist(), k)
                assert [d for d, _ in got] == [d for d, _ in want]
                for (_, gs), (_, ws) in zip(got, want):
                    assert gs == pytest.approx(ws, abs=1e-9)

    def test_identical_embeddings_tie_break_by_doc_id(self):
        docs = [Document("z-dup", "same words here"),
                Document("a-dup", "same words here"),
                Document("m-other", "completely different text")]
        index = VectorIndex.from_documents(docs, 32)
        results = search(index, embed("same words here", 32), 2)
        assert [d for d, _ in results] == ["a-dup", "z-dup"]
        assert results[0][1] == pytest.approx(results[1][1], abs=1e-12)

    def test_tie_group_straddling_the_boundary_keeps_doc_id_order(self):
        # Six bit-identical embeddings, stored in reverse doc_id order, with
        # one better and one worse document around them.
        twins = [Document(f"twin-{c}", "signal route packet") for c in "fedcba"]
        docs = twins + [Document("best", "signal route packet signal"),
                        Document("worst", "billing roaming")]
        index = VectorIndex.from_documents(docs, 64)
        query = embed("signal route packet signal", 64)
        for k in range(1, len(docs) + 2):
            got = search(index, query, k)
            assert got == full_sort_topk(index, query, k)
            assert [d for d, _ in got] == (["best"] + [f"twin-{c}" for c in "abcdef"]
                                           + ["worst"])[:k]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, small_index, bad):
        query = embed("signal route", small_index.dim)
        query[3] = bad
        with pytest.raises(ValueError, match="not finite"):
            search(small_index, query, 3)

    def test_query_whose_square_overflows_rejected(self, small_index):
        # Every entry is finite, but |q|^2 = 256e400 is not.
        with pytest.raises(ValueError, match="not finite"):
            search(small_index, np.full(small_index.dim, 1e200), 3)

    @settings(max_examples=80, deadline=None)
    @given(groups=st.one_of(st.integers(0, 11), st.integers(12, 750)), tail=st.integers(0, 3),
           distinct=st.integers(1, 400), foreign=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_hypothesis_equals_a_full_sort(self, groups, tail, distinct, foreign, seed, data):
        """Few distinct texts over many docs make every score a large tie
        group, so the k-th boundary usually cuts through one; many make
        small groups, so the screen keeps few candidates. Foreign rows
        (signed unit vectors) are not count vectors, and the query may be
        a count vector, a signed vector or a dense one (every column).
        The index has 4 * groups + tail rows, so the BLAS tail kernel's
        rows are covered for every tail length. About half the examples
        have 1 to 47 rows; an index of fewer than 8 is one gemv call, and
        every larger one is screened."""
        dim = 32
        n = 4 * groups + tail
        assume(n > 0)
        rng = random.Random(seed)
        vocab = [f"term{i}" for i in range(30)]
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 8))) for _ in range(distinct)]
        ids = [f"doc{i:04d}" for i in range(n)]
        rng.shuffle(ids)
        docs = {doc_id: Document(doc_id, rng.choice(texts)) for doc_id in ids}
        matrix = np.stack([embed(docs[doc_id].text, dim) for doc_id in ids])
        nprng = np.random.default_rng(seed)
        for row in rng.sample(range(n), min(foreign, n)):
            vec = nprng.standard_normal(dim)
            matrix[row] = vec / np.linalg.norm(vec)
        index = VectorIndex(ids, matrix, docs)
        kind = data.draw(st.sampled_from(["text", "words", "signed", "dense"]))
        if kind == "text":
            query = embed(data.draw(st.sampled_from(texts)), dim)
        elif kind == "words":
            query = embed(" ".join(data.draw(st.lists(st.sampled_from(vocab), max_size=8))), dim)
        else:
            query = nprng.standard_normal(dim)
            if kind == "signed":
                query[nprng.random(dim) < data.draw(st.sampled_from([0.5, 0.85]))] = 0.0
        k = data.draw(st.integers(1, n + 1))
        got = search(index, query, k)
        assert exact(got) == exact(full_sort_topk(index, query, k))
        assert all(type(score) is float for _, score in got)

    @pytest.mark.parametrize("n", [7, 8])
    def test_screened_from_eight_rows(self, n):
        """Below 8 rows one gemv call scores the whole matrix, so there is
        no grid copy; from 8 rows on every search is screened. Either way
        search equals the full sort bit for bit, for count, signed and
        dense queries at every k."""
        rng = random.Random(n)
        nprng = np.random.default_rng(n)
        vocab = [f"term{i}" for i in range(20)]
        docs = [Document(f"doc{i}", " ".join(rng.choices(vocab, k=6))) for i in range(n)]
        index = VectorIndex.from_documents(docs, 32)
        assert (index._screen is None) == (n < 8)
        for _ in range(10):
            count = embed(" ".join(rng.choices(vocab, k=4)), 32)
            signed = np.where(count > 0, nprng.standard_normal(32), 0.0)
            for query in (count, signed, nprng.standard_normal(32)):
                for k in range(1, n + 2):
                    got = search(index, query, k)
                    assert exact(got) == exact(full_sort_topk(index, query, k))

    def test_blas_breaks_a_mathematical_tie(self):
        """Two documents whose scores are equal as real numbers (count dot
        products 9 and 9, count norms sqrt(14) and sqrt(14)) but one ulp
        apart in the matmul, with the screen's rounding ordering them the
        other way. The matmul's order is the answer, not doc_id's and not
        the screen's."""
        winner, loser = "w0 w0 w0 w2 w2 w3", "w0 w0 w1 w2 w2 w2"
        query = embed("w0 w1 w2 w2 w3 w3", 32)
        docs = [Document(f"filler-{i:04d}", "f0") for i in range(LARGE_ROWS)]
        docs[100], docs[105] = Document("tie-b", winner), Document("tie-a", loser)
        index = VectorIndex.from_documents(docs, 32)
        scores = dict(full_sort_topk(index, query, 2))
        if scores["tie-a"] == scores["tie-b"]:
            pytest.skip("this BLAS rounds the two scores alike")
        assert scores["tie-b"] > scores["tie-a"]
        for k in (1, 2, 3):
            assert exact(search(index, query, k)) == exact(full_sort_topk(index, query, k))
        assert [d for d, _ in search(index, query, 2)] == ["tie-b", "tie-a"]

    @pytest.mark.parametrize("tail", [1, 2, 3])
    def test_best_rows_in_the_partial_last_group(self, tail):
        """The only candidates sit in the last, partial 4-row group, which
        the matmul scores with its tail kernel."""
        rng = np.random.default_rng(tail)
        words = random.Random(tail).choices([f"term{i}" for i in range(100)], k=60)
        n = LARGE_ROWS + tail
        docs = [Document(f"filler-{i:04d}", "f0") for i in range(n - tail)]
        docs += [Document(f"top-{i}", " ".join(words[i:])) for i in range(tail)]
        index = VectorIndex.from_documents(docs, 256)
        assert index._screen is not None  # screened, not scored whole
        others = np.flatnonzero(embed("f0", 256) == 0)
        for _ in range(20):
            # Signed weights on a quarter of the columns, none on the fillers' one.
            query = np.zeros(256)
            query[rng.choice(others, 64, replace=False)] = rng.random(64) - 0.1
            for k in range(1, tail + 2):
                got = search(index, query, k)
                assert exact(got) == exact(full_sort_topk(index, query, k))
                assert got[0][0].startswith("top-")

    def test_foreign_rows_loaded_from_a_cache(self, tmp_path):
        """Rows that are not count vectors, in a cache read back by
        load_index and screened like any other: a count 300 times the
        smallest, a smallest count that does not divide another, a signed
        vector, and a row near counts (1, 2, 2) of the right norm."""
        rng = random.Random(5)
        vocab = [f"term{i}" for i in range(40)]
        docs = [Document(f"doc{i:04d}", " ".join(rng.choices(vocab, k=rng.randint(1, 12))))
                for i in range(LARGE_ROWS + 3)]
        docs[7] = Document(docs[7].doc_id, "term1 " * 300 + "term2")
        docs[8] = Document(docs[8].doc_id, "term1 term1 term2 term2 term2")
        matrix = VectorIndex.from_documents(docs, 32)._matrix.copy()
        signed = np.random.default_rng(5).standard_normal(32)
        matrix[9] = signed / np.linalg.norm(signed)
        cols = [int(np.flatnonzero(embed(word, 32))[0]) for word in ("term3", "term4", "term5")]
        matrix[10] = 0.0
        matrix[10, cols] = np.array([1.0, 2.2, math.sqrt(3.16)]) / 3
        path = tmp_path / "foreign.tvix"
        save_index(VectorIndex([d.doc_id for d in docs], matrix,
                               {d.doc_id: d for d in docs}), path)
        index = load_index(path)
        assert index._screen is not None
        queries = [embed(" ".join(rng.choices(vocab, k=5)), 32) for _ in range(30)]
        queries += [embed("term1", 32), embed("term1 term2 term2", 32), embed("term4", 32),
                    np.where(np.arange(32) % 5 == 0, signed, 0.0)]
        for query in queries:
            for k in (1, 3, 10):
                assert exact(search(index, query, k)) == exact(full_sort_topk(index, query, k))

    def test_screen_error_within_the_margin_is_rescored(self):
        """Row "a" scores 81.75 / 254 in the matmul and "b" 81.25 / 254,
        but every query entry of "a" sits 1/16 below a half-grid point and
        rounds down, and every one of "b" sits 1/16 above one and rounds
        up: the screen gives "b" 41.5 and "a" 40. That gap, 1.5 / 127 in
        matmul units, is under the margin of 2 |q|_1 / 254 = 2 / 127 and
        over half of it, so "a" must stay a candidate and win on rescoring.
        The two sit in different 4-row groups, as candidates are groups."""
        dim, q_cols, fill = 32, [3, 9, 14, 27], 30
        query = np.zeros(dim)
        query[q_cols] = 0.5  # |q|_1 = 2, |q| = 1
        ids = [f"filler-{i:04d}" for i in range(LARGE_ROWS + 2)]
        rows = np.zeros((len(ids), dim))
        rows[:, fill + 1] = 1.0  # fillers score 0 in both
        for row, doc_id, points, offset in ((1, "a", [20, 20, 20, 20], -1 / 16),
                                             (6, "b", [19, 20, 20, 20], 1 / 16)):
            ids[row] = doc_id
            rows[row] = 0.0
            rows[row, q_cols] = (np.array(points) + 0.5 + offset) / 127
            rows[row, fill] = math.sqrt(1.0 - rows[row] @ rows[row])
        index = VectorIndex(ids, rows, {d: Document(d, d) for d in ids})
        for k in (1, 2, 3):
            assert exact(search(index, query, k)) == exact(full_sort_topk(index, query, k))
        assert [d for d, _ in search(index, query, 2)] == ["a", "b"]
        assert (query @ index._screen[:, 1], query @ index._screen[:, 6]) == (40.0, 41.5)

    def test_one_blas_thread_so_each_row_group_scores_as_in_the_full_matmul(self):
        """The rescoring contract: one 4-row group (the partial last group
        riding with the one before it) gets the same bits as in the dense
        matmul. With two OpenBLAS threads a matmul this large is split
        into row ranges and this fails; conftest.py pins one thread."""
        rng = np.random.default_rng(11)
        for n in (2001, 2003):
            matrix = rng.random((n, 256))
            matrix /= np.linalg.norm(matrix, axis=1)[:, np.newaxis]
            for _ in range(5):
                query = rng.standard_normal(256)
                full = matrix @ query
                last = 4 * (n // 4) - 4
                parts = [matrix[s:s + 4] @ query for s in range(0, last, 4)]
                parts.append(matrix[last:] @ query)
                assert np.array_equal(np.concatenate(parts), full)

    def test_search_does_not_depend_on_the_blas_thread_count(self):
        """In a child process with two OpenBLAS threads, where a large
        matmul splits into row ranges that round differently, search
        returns the one-thread full sort's scores and order, on indexes
        scored whole and screened, with count, signed and dense queries."""
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(root), str(root / "src"),
                                             os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2",
               "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}
        done = subprocess.run([sys.executable, "-c", _TWO_THREAD_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = iter(done.stdout.splitlines())
        for case, (index, query) in enumerate(search_cases()):
            full = exact(full_sort_topk(index, query, len(index)))
            for k in (1, 3, len(index)):
                got = [tuple(entry) for entry in json.loads(next(lines))]
                assert got == full[:k], (len(index), case, k)
        assert next(lines, None) is None

    def test_k_larger_than_index_returns_everything(self, small_index):
        results = search(small_index, embed("signal", small_index.dim), 999)
        assert len(results) == len(small_index)

    def test_k_must_be_positive(self, small_index):
        with pytest.raises(ValueError):
            search(small_index, embed("x", small_index.dim), 0)

    def test_query_dimension_checked(self, small_index):
        with pytest.raises(DimensionMismatchError):
            search(small_index, embed("x", small_index.dim + 1), 3)

    def test_scores_descend(self, small_index):
        results = search(small_index, embed("packet loss", small_index.dim), 5)
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)


class TestBuildPrompt:
    def index(self):
        return VectorIndex.from_documents(
            [Document("doc-a", "alpha text."), Document("doc-b", "bravo text.")], 16)

    def test_prompt_layout_is_exact(self):
        index = self.index()
        prompt = build_prompt("what is alpha?",
                              [("doc-a", 0.9), ("doc-b", 0.1)], index)
        assert prompt == ("[doc: doc-a]\nalpha text.\n\n"
                          "[doc: doc-b]\nbravo text.\n\n"
                          "Question: what is alpha?")

    def test_no_results_gives_bare_question(self):
        prompt = build_prompt("anyone there?", [], self.index())
        assert prompt == "Question: anyone there?"

    def test_result_order_is_preserved(self):
        index = self.index()
        prompt = build_prompt("q", [("doc-b", 0.2), ("doc-a", 0.1)], index)
        assert prompt.index("doc-b") < prompt.index("doc-a")
