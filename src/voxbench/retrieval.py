"""Deterministic embedding, exact inner-product search and prompt assembly.

The embedder is a hashing bag of words: lowercase, split on whitespace,
hash each token with a fixed stable 64-bit hash (blake2b, 8-byte digest,
little-endian), add 1.0 at ``hash % dim`` and L2-normalize. It is fully
reproducible across processes and platforms, which real embedding models
are not, so cosine scores from this module are only meaningful relative
to each other, never against scores from a production embedder.

Search is exact: it returns what sorting every row's score from the
dense one-thread matmul ``matrix @ q`` gives, by score descending, ties
by doc_id ascending, in a process with any number of BLAS threads.
Every score comes from one rule, _rescore: each 4-row group of the
matrix is scored by one gemv call, a partial last group at the end of a
call that starts with the group before it. OpenBLAS's gemv scores rows
four at a time and the rest with a tail kernel that rounds differently,
so this gives each row its bits in the one-thread matmul. A call of at
most 7 rows is never split across threads, as a large gemv is: with two
threads OpenBLAS splits it into row ranges, and a range that does not
end on a multiple of 4 leaves rows to the tail kernel. (Checked bit for
bit, two threads against one, at dims 8, 32, 64, 256, 1,024 and 4,096
with OpenBLAS 0.3.31.)
The scored rows are ranked by partitioning to find the k-th best,
keeping every row scoring at least that much (so a tie group straddling
the boundary survives whole) and sorting only those.

An index of fewer than 8 rows is one gemv call of the whole matrix, so
no group can be skipped and it is scored whole. An index of 8 rows or
more is searched in two stages, on a copy its first search builds (an
index that is only built and saved never pays for it): the matrix on a
fixed grid, ``c = rint(127 r)``, column-major as int8.

1. Screen: score every row as ``s = c . q`` in float64 with one einsum
   call over the query's nonzero columns, at most d of them (d = dim,
   u = 2**-53, |q|_1 = sum |q_j|). ``127 r_j`` rounds once, rint moves
   it at most 1/2 and a unit row has |r_j| <= 1 + _NORM_TOL, so the grid
   puts s / 127 within |q|_1 (1/254 + 1.01 u) of the real dot product;
   to first order each sum, in any order, adds d u |q|_1: the screen's
   (|c_j| <= 127) and the matmul's. So s / 127 is within
   ``B = |q|_1 (1/254 + (3 d + 4) u)`` of the matmul score p, and the
   slack of (d + 2) u |q|_1 covers the second-order terms and the
   roundings of |q|_1, the margin and the cut (below (d/127 + 2) u
   |q|_1). A row is a candidate when its s is within ``254 B`` of the
   k-th best, or of the lowest when k is more than the number of rows.
   Any other row x has s_x < s_y - 254 B for k rows y, so
   p_x < s_x / 127 + B < s_y / 127 - B < p_y: k rows score strictly
   higher in the matmul.
2. Rescore: score the candidates' groups and the rows of the last gemv
   call, candidates or not. The final ranking comes from these scores,
   never from the screen: a tie between two real numbers is often
   broken by an ulp of the matmul.

Every group is scored instead when the index has fewer than 8 rows or
|q|^2 is outside _Q_RANGE.

Index cache file layout, little-endian, no padding:

    magic b"TVIX", version u16 (currently 1), dim u32, entry count u32,
    then per entry: doc_id length u32, doc_id UTF-8 bytes, text length
    u32, text UTF-8 bytes, dim float64 values (IEEE 754).

Trailing bytes after the last entry mean corruption. An unsupported
version raises CacheVersionError so callers can rebuild from documents.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import shutil
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CacheFormatError,
    CacheVersionError,
    CorpusIOError,
    DimensionMismatchError,
    EmptyCorpusError,
    UnknownDocumentError,
)

CACHE_MAGIC = b"TVIX"
CACHE_VERSION = 1

_HEADER = struct.Struct("<4sHII")
_U32 = struct.Struct("<I")

_NORM_TOL = 1e-6
# save_index streams through a 1 MiB buffer: a few dozen system calls
# for a 50 MB cache and no whole-file copy in memory.
_WRITE_BUFFER = 1 << 20
# from_documents counts this many matrix cells per bincount (1 MiB of
# int64 counts, 512 rows at dim 256): few enough calls to amortise, and
# temporaries that stay a small fraction of the matrix.
_CHUNK_CELLS = 1 << 17
# A corpus file is read in pieces of this size; most fit in one.
_READ_SIZE = 1 << 16
# _grid_copy rounds this many matrix cells per pass (128 rows at dim 256):
# its one float64 buffer stays in a core's L2 cache.
_SCREEN_CELLS = 1 << 15
_U = 2.0 ** -53  # unit roundoff of float64
# search screens a query only when |q|^2 is in this range: no product or
# sum that the margin covers can overflow, and underflow stays far below it.
_Q_RANGE = (2.0 ** -1000, 2.0 ** 1000)


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@functools.lru_cache(maxsize=1 << 16)
def _token_bucket(dim: int, token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % dim


class _BucketMemo(dict):
    """token -> bucket at one dim for one index build: each distinct token
    goes through _token_bucket once, however often it occurs and however
    many distinct tokens the corpus has."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.dim = dim

    def __missing__(self, token: str) -> int:
        self[token] = bucket = _token_bucket(self.dim, token)
        return bucket


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")


def _bucket_ids(text: str, buckets: Callable[[list[str]], Iterable[int]]) -> list[int]:
    """The tokenize rule shared by embed and from_documents: ``buckets``
    maps ``text``'s lowercased, whitespace-split tokens to their buckets,
    and a text with no tokens counts once in bucket 0."""
    return list(buckets(text.lower().split())) or [0]


def embed(text: str, dim: int) -> np.ndarray:
    """Embed ``text`` into a unit vector of length ``dim``.

    Token order does not matter. Empty or whitespace-only text maps to
    the first basis vector so every embedding has unit norm.
    """
    _check_dim(dim)
    # map over two iterables calls the cached _token_bucket(dim, token)
    # with no wrapper per token.
    ids = _bucket_ids(text, functools.partial(map, _token_bucket, repeat(dim)))
    vec = np.bincount(ids, minlength=dim).astype(np.float64)
    vec /= math.sqrt(vec @ vec)
    return vec


def _grid_copy(matrix: np.ndarray) -> np.ndarray:
    """The matrix on a fixed grid, ``rint(127 * row)``, column-major as
    int8 (dim x rows). A row within _NORM_TOL of unit norm has every
    ``|127 r| <= 127.0002``, so each code fits."""
    n, dim = matrix.shape
    codes = np.empty((dim, n), dtype=np.int8)
    step = max(1, _SCREEN_CELLS // dim)
    scaled = np.empty((min(n, step), dim))
    for start in range(0, n, step):
        x = scaled[:min(step, n - start)]
        np.multiply(matrix[start:start + step], 127.0, out=x)
        np.rint(x, out=x)
        codes[:, start:start + step] = x.T
    return codes


def _rescore(matrix: np.ndarray, groups: np.ndarray,
             q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score the rows of the sorted 4-row ``groups`` of ``matrix``, and
    the last gemv call's rows whatever ``groups`` holds (an exact score
    cannot bring a row outside the top k into it), with one gemv per
    group, a partial last group at the end of a call that starts with
    the group before it. Returns the rows and their scores.

    gemv scores rows four at a time from the start of its call and the
    rest with a tail kernel that rounds differently, so this gives each
    row its bits in the one-thread full ``matrix @ q``. numpy runs a
    stacked matmul as one gemv per 4-row block, so no call covers more
    than 7 rows and none is split across threads, however many BLAS
    threads the process has.
    """
    n, dim = matrix.shape
    # The last call runs from this group to the end; below 8 rows the
    # whole matrix is one call.
    last = max(n // 4 - (n % 4 > 0), 0)
    head = groups[groups < last]
    rows = (4 * head[:, np.newaxis] + np.arange(4)).ravel()
    # Every group before the last call: the matrix itself, not a copy.
    blocks = matrix[:4 * last] if len(head) == last else matrix[rows]
    scores = (blocks.reshape(-1, 4, dim) @ q).ravel()
    return (np.concatenate([rows, np.arange(4 * last, n)]),
            np.concatenate([scores, matrix[4 * last:] @ q]))


class VectorIndex:
    """Flat in-memory index of unit vectors with their source documents.

    ``matrix`` holds one unit row per id, in ``ids`` order, and is owned
    by the index from now on: a C-contiguous float64 matrix is adopted
    without a copy.
    """

    def __init__(self, ids: list[str], matrix: np.ndarray,
                 documents: Mapping[str, Document]) -> None:
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or len(matrix) != len(ids):
            raise DimensionMismatchError(
                f"matrix of shape {matrix.shape} does not hold one row for each of "
                f"{len(ids)} doc_ids")
        _check_dim(matrix.shape[1])
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate doc_id in index entries")
        if set(ids) != set(documents):
            raise ValueError("entries and documents must cover the same doc_ids")
        # Written so that a NaN norm, which compares false, counts as off.
        off = ~(np.abs(np.sqrt(np.einsum("ij,ij->i", matrix, matrix)) - 1.0) <= _NORM_TOL)
        if off.any():
            row = int(np.argmax(off))
            norm = float(np.linalg.norm(matrix[row]))
            raise ValueError(f"embedding for {ids[row]!r} is not unit norm (|v|={norm})")
        self.dim = matrix.shape[1]
        self._ids: list[str] = ids
        self._documents: dict[str, Document] = dict(documents)
        self._matrix = matrix

    @functools.cached_property
    def _screen(self) -> np.ndarray | None:
        """The grid copy that ``search`` screens on, built on the first
        search (an index that is only saved never builds it); None below
        8 rows, which one gemv call scores whole."""
        return _grid_copy(self._matrix) if len(self) >= 8 else None

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def entries(self) -> list[tuple[str, np.ndarray]]:
        return [(doc_id, self._matrix[row].copy()) for row, doc_id in enumerate(self._ids)]

    @property
    def doc_ids(self) -> list[str]:
        return list(self._ids)

    def document(self, doc_id: str) -> Document:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise UnknownDocumentError(f"index has no document {doc_id!r}") from None

    @classmethod
    def from_documents(cls, documents: Iterable[Document], dim: int) -> "VectorIndex":
        """Embed each document straight into its row of the index matrix;
        every row is bit-identical to ``embed(doc.text, dim)``.

        Each distinct token is hashed once per build, and the rows are
        counted a chunk at a time with one bincount over row-offset
        bucket ids.
        """
        _check_dim(dim)
        docs = list(documents)
        matrix = np.empty((len(docs), dim), dtype=np.float64)
        buckets = functools.partial(map, _BucketMemo(dim).__getitem__)
        step = max(1, _CHUNK_CELLS // dim)
        for start in range(0, len(docs), step):
            ids = [_bucket_ids(doc.text, buckets) for doc in docs[start:start + step]]
            rows, lengths = len(ids), list(map(len, ids))
            flat = np.fromiter(chain.from_iterable(ids), dtype=np.intp, count=sum(lengths))
            flat += np.repeat(np.arange(0, rows * dim, dim), lengths)
            matrix[start:start + rows] = np.bincount(
                flat, minlength=rows * dim).reshape(rows, dim)
        # Counts, their sums of squares and sqrt are exact, so dividing by
        # these norms gives the same bits as embed() does row by row.
        matrix /= np.sqrt(np.einsum("ij,ij->i", matrix, matrix))[:, np.newaxis]
        return cls([d.doc_id for d in docs], matrix, {d.doc_id: d for d in docs})


def _doc_id(name: str) -> str:
    # As Path(name).stem: a file named just ".txt" keeps its whole name.
    return name.removesuffix(".txt") or name


def corpus_paths(docs_dir: str | Path) -> list[str]:
    """List the corpus under ``docs_dir`` without reading it.

    Every entry whose name ends in ``.txt`` is a document, dotfiles
    included, matched case-sensitively; its doc_id is the name without
    that suffix. Paths come back sorted by doc_id so downstream
    artifacts are byte-reproducible. Two files with one doc_id (``.txt``
    and ``.txt.txt``) raise CorpusIOError naming both.
    """
    root = Path(docs_dir)
    if not root.is_dir():
        raise EmptyCorpusError(f"document directory {root} does not exist")
    try:
        names = [name for name in os.listdir(root) if name.endswith(".txt")]
    except OSError as exc:
        raise CorpusIOError(f"cannot list corpus directory {root}: {exc}") from exc
    if not names:
        raise EmptyCorpusError(f"no *.txt documents found under {root}")
    names.sort(key=_doc_id)
    for first, second in zip(names, names[1:]):
        if _doc_id(first) == _doc_id(second):
            raise CorpusIOError(f"corpus files {first!r} and {second!r} under {root} "
                                f"share doc_id {_doc_id(first)!r}")
    return [os.path.join(root, name) for name in names]


def read_document(path: str) -> Document:
    """Read one corpus file as ``Path.read_text(encoding="utf-8")`` does:
    CRLF and lone CR become ``\\n`` and a byte order mark stays ``\\ufeff``.

    The bytes are read with plain ``os.read`` calls: on a corpus of small
    files that takes about a third less time than a file object does.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            pieces = []
            while piece := os.read(fd, _READ_SIZE):
                pieces.append(piece)
        finally:
            os.close(fd)
        text = b"".join(pieces).decode("utf-8")
    except OSError as exc:
        raise CorpusIOError(f"cannot read corpus file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusIOError(f"corpus file {path} is not valid UTF-8: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return Document(doc_id=_doc_id(os.path.basename(path)), text=text)


def load_documents(docs_dir: str | Path) -> list[Document]:
    """Read every document of ``corpus_paths(docs_dir)``, in its order."""
    return [read_document(path) for path in corpus_paths(docs_dir)]


def build_index(docs_dir: str | Path, dim: int) -> VectorIndex:
    """Embed every text file under ``docs_dir`` into a fresh index."""
    return VectorIndex.from_documents(load_documents(docs_dir), dim)


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Write the index cache; loading it back is bit-identical.

    Entries are streamed to a sibling temporary file that then replaces
    ``path`` in one step, so a failed save leaves any earlier cache as
    it was. The file gets the mode a plain ``open(path, "wb")`` gives.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    rows = index._matrix.astype("<f8", copy=False)
    out = open(tmp, "xb", buffering=_WRITE_BUFFER)
    try:
        with out:
            out.write(_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, index.dim, len(index)))
            for row, doc_id in zip(rows, index._ids):
                id_bytes = doc_id.encode("utf-8")
                text_bytes = index.document(doc_id).text.encode("utf-8")
                out.write(b"".join((_U32.pack(len(id_bytes)), id_bytes,
                                    _U32.pack(len(text_bytes)), text_bytes)))
                out.write(row)
        if path.exists():
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_index(path: str | Path) -> VectorIndex:
    """Read an index cache written by ``save_index``.

    The entry count is checked against the file size before the matrix
    is allocated, and each vector is read straight into its row. Any
    corrupt content raises CacheFormatError naming the file.
    """
    with open(path, "rb") as src:
        size = os.fstat(src.fileno()).st_size
        header = src.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CacheFormatError(f"cache file {path} is truncated before the header")
        magic, version, dim, count = _HEADER.unpack(header)
        if magic != CACHE_MAGIC:
            raise CacheFormatError(f"cache file {path} has bad magic {magic!r}")
        if version != CACHE_VERSION:
            raise CacheVersionError(
                f"cache file {path} has version {version}, expected {CACHE_VERSION}; rebuild it")
        if dim == 0:
            raise CacheFormatError(f"cache file {path} declares dim 0")
        pos = _HEADER.size
        # Every entry holds at least its two length fields and its vector.
        if count * (8 + 8 * dim) > size - pos:
            raise CacheFormatError(
                f"cache file {path} is truncated: {count} entries of dim {dim} "
                f"do not fit in {size - pos} bytes")

        def take(n: int) -> bytes:
            nonlocal pos
            chunk = src.read(n) if pos + n <= size else b""
            if len(chunk) != n:
                raise CacheFormatError(f"cache file {path} is truncated mid-entry")
            pos += n
            return chunk

        matrix = np.empty((count, dim), dtype="<f8")
        ids: list[str] = []
        documents: dict[str, Document] = {}
        try:
            for row in matrix:
                doc_id = take(_U32.unpack(take(4))[0]).decode("utf-8")
                text = take(_U32.unpack(take(4))[0]).decode("utf-8")
                if src.readinto(row) != row.nbytes:
                    raise CacheFormatError(f"cache file {path} is truncated mid-entry")
                pos += row.nbytes
                ids.append(doc_id)
                documents[doc_id] = Document(doc_id, text)
            if pos != size:
                raise CacheFormatError(
                    f"cache file {path} has {size - pos} trailing bytes after the last entry")
            return VectorIndex(ids, matrix, documents)
        except ValueError as exc:  # bad UTF-8, duplicate ids, a vector off unit norm
            raise CacheFormatError(f"cache file {path} is corrupt: {exc}") from exc


def _top_k(ids: list[str], rows: np.ndarray, scores: np.ndarray,
           k: int) -> list[tuple[str, float]]:
    """The k best of the index's ``rows`` by their ``scores``, score
    descending, ties by doc_id ascending. Only the rows scoring at least
    the k-th best are sorted, so a tie group straddling the boundary
    survives whole."""
    if k < len(scores):
        keep = scores >= np.partition(scores, -k)[-k]
        rows, scores = rows[keep], scores[keep]
    ranked = sorted(zip([ids[r] for r in rows.tolist()], scores.tolist()),
                    key=lambda e: (-e[1], e[0]))
    return ranked[:k]


def _candidates(index: VectorIndex, q: np.ndarray, qq: float, k: int) -> np.ndarray:
    """The sorted 4-row groups that hold every row the screen (module
    docstring) cannot rule out of the top k for the finite query ``q``
    with ``qq = q @ q``; every group where the index has no grid copy or
    |q|^2 is outside _Q_RANGE, so the margin cannot bound the screen.
    The screen is one einsum over the grid copy's rows for the query's
    nonzero columns."""
    n = len(index)
    codes = index._screen
    if codes is None or not _Q_RANGE[0] <= qq <= _Q_RANGE[1]:
        return np.arange((n + 3) // 4)
    cols = np.flatnonzero(q)
    scores = np.einsum("j,jn->n", q[cols], codes[cols])
    margin = float(np.abs(q).sum()) * (1.0 + 254 * (3 * index.dim + 4) * _U)
    cut = max(n - k, 0)  # the k-th best screen score; the lowest when k > n
    rows = np.flatnonzero(scores >= np.partition(scores, cut)[cut] - margin)
    return np.flatnonzero(np.bincount(rows >> 2, minlength=(n + 3) // 4))


def search(index: VectorIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Exact top-k by inner product; ties break by doc_id ascending.

    Scores are bit for bit those of the one-thread dense ``matrix @ q``,
    whatever the process's BLAS thread count: every row scored comes from
    one gemv call of at most 7 rows. An index of 8 rows or more is
    screened on an int8 grid copy, built on its first search, and only
    the candidates' 4-row groups and the last call's rows are scored
    (module docstring); an index of 0 rows gives []. A query whose |q|^2
    is not finite raises ValueError; with |q|^2 finite, no partial sum of
    a unit row's products exceeds |q| in magnitude.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (index.dim,):
        raise DimensionMismatchError(f"query has shape {q.shape}, index dim is {index.dim}")
    with np.errstate(over="ignore"):  # reported as the ValueError below
        qq = float(q @ q)
    if not math.isfinite(qq):
        raise ValueError(f"query is not finite: |q|^2 = {qq}")
    rows, scores = _rescore(index._matrix, _candidates(index, q, qq, k), q)
    return _top_k(index._ids, rows, scores, k)


def build_prompt(transcript: str, results: Sequence[tuple[str, float]],
                 index: VectorIndex) -> str:
    """Assemble the generation prompt from retrieved documents.

    Each document appears as a ``[doc: <doc_id>]`` line followed by its
    text, in result order; the transcript follows as a ``Question:``
    line. With no results the prompt is the bare question.
    """
    parts: list[str] = []
    for doc_id, _score in results:
        doc = index.document(doc_id)
        parts.append(f"[doc: {doc.doc_id}]\n{doc.text.strip()}\n")
    parts.append(f"Question: {transcript}")
    return "\n".join(parts)
