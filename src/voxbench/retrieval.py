"""Deterministic embedding, exact inner-product search and prompt assembly.

The embedder is a hashing bag of words: lowercase, split on whitespace,
hash each token with a fixed stable 64-bit hash (blake2b, 8-byte digest,
little-endian), add 1.0 at ``hash % dim`` and L2-normalize. It is fully
reproducible across processes and platforms, which real embedding models
are not, so cosine scores from this module are only meaningful relative
to each other, never against scores from a production embedder.

Search is exact: it returns what sorting every row's score from the
dense one-thread matmul ``matrix @ q`` gives, by score descending, ties
by doc_id ascending. An index of fewer than _SCREEN_MIN_ROWS rows, and
any query the screen below cannot bound, is scanned exactly so: score
every row, partition the scores to find the k-th best, keep every row
scoring at least that much (so a tie group straddling the boundary
survives whole) and sort only those.

A larger index is searched in two stages. Its rows are unit count
vectors, so its first search keeps the integer counts as a column-major
uint8 copy (1/8 of the float64 matrix) and checks, row by row, that the
stored vector is within 21u of counts / |counts| (u = 2**-53); a row
that is not (NaN, a negative entry, a count above 255, a foreign
vector) is "loose". An index that is only built and saved never pays
for the copy.

1. Screen: score every row as (counts . q) / |counts| in float64,
   reading only the query's nonzero columns, with loose rows at +inf.
   Against the matmul score that differs by at most (2 d + 24) u |q|
   (d = dim): d u from the matmul's rounding in any summation order,
   (d + 3) u from the screen's and 21 u from the row check. So every
   row within ``margin = (4 d + 64) u |q|`` of the k-th best screen
   score is a candidate (twice the bound, plus slack for the roundings
   of |q| and of the cut), and any other row has k rows with strictly
   higher matmul scores.
2. Rescore: score the candidates' whole 4-row groups of the original
   matrix with one gemv per group, a partial last group at the end of a
   call that starts with the group before it. OpenBLAS's gemv scores
   rows four at a time and the rest with a tail kernel that rounds
   differently, so this gives each row its bits in the full matmul. The
   final ranking comes from these scores, never from the screen: a tie
   between two real numbers is often broken by an ulp of the matmul.

Those bits are the full matmul's only with one BLAS thread, as the
benchmark and the tests pin it, and as a caller of ``search`` should:
with more, OpenBLAS splits a large gemv into row ranges, and a range
that does not end on a multiple of 4 leaves rows to the tail kernel.
So before the copy is built, _PROBES seeded dense queries are scored
both ways over every row, and if any bit differs the index keeps no
copy and every search is the dense scan. The dense scan also runs when
the query has more nonzero columns than a quarter of dim, |q|^2 is
outside _Q_RANGE or not finite, there are not k checked rows, the
candidates' groups number more than 1/16 of the rows, or a rescored
score is not finite. The cut-offs on columns and groups only choose the
faster path; their measurements are at the code.

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
import random
import shutil
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
# An index with fewer rows has no count copy and search scans it densely.
# Medians of 12-word queries at dim 256 after a 13 ms idle gap (one BLAS
# thread, 2-core VM), screened against dense: 0.46 vs 0.38 ms at 512
# rows, 0.50 vs 0.48 at 1,024, 0.54 vs 0.76 at 2,048, 0.59 vs 1.18 at 4,096.
_SCREEN_MIN_ROWS = 1024
# _count_copy reads back this many matrix cells per pass (128 rows at
# dim 256): its two float64 buffers stay in a core's L2 cache.
_SCREEN_CELLS = 1 << 15
# Dense queries on which _rescore must match the full matmul before an
# index is screened.
_PROBES = 4
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


class _Screen(NamedTuple):
    """An index's count copy; see _count_copy."""

    counts: np.ndarray
    scale: np.ndarray
    loose: np.ndarray


def _count_copy(matrix: np.ndarray) -> _Screen:
    """Read every row back as the integer counts it was normalised from.

    With ``least`` a row's smallest positive entry and ``c`` the row
    divided by it, rounded and stored as uint8, the row passes when
    ``c`` is not all zero, ``least * |c|`` is within 8u of 1 and
    ``|row / least - c|`` is within 8u / least (2-norms, u = 2**-53).
    Counting the roundings of those checks, a row that passes is within
    21u of ``c / |c|``. Every row that ``from_documents`` builds passes
    unless one of its counts is not a multiple of its smallest count or
    is more than 255 times it.

    Returns the counts column-major as uint8 (dim x rows), 1 / |c| per
    row, and the loose rows, those that fail (NaN, a negative entry, a
    foreign vector); their counts and 1 / |c| are 0.
    """
    n, dim = matrix.shape
    counts = np.empty((dim, n), dtype=np.uint8)
    scale = np.empty(n)
    step = min(n, max(1, _SCREEN_CELLS // dim))
    scaled, rounded = np.empty((2, step, dim))
    narrow = np.empty((step, dim), dtype=np.uint8)
    least, squares, misfit = np.empty((3, step))
    with np.errstate(all="ignore"):
        for start in range(0, n, step):
            stop = min(start + step, n)
            rows, m = matrix[start:stop], stop - start
            x, c, c8 = scaled[:m], rounded[:m], narrow[:m]
            # As unsigned bits minus one, 0 and every negative float sort
            # above every positive one.
            np.subtract(rows.view(np.uint64), 1, out=x.view(np.uint64))
            np.add(x.view(np.uint64).min(axis=1), 1, out=least[:m].view(np.uint64))
            np.multiply(rows, (1.0 / least[:m])[:, np.newaxis], out=x)
            # A count out of uint8 range comes back as another value, and
            # the misfit below then fails the row.
            np.rint(x, out=c8, casting="unsafe")
            np.copyto(c, c8)
            x -= c
            np.einsum("ij,ij->i", c, c, out=squares[:m])
            np.einsum("ij,ij->i", x, x, out=misfit[:m])
            norms = np.sqrt(squares[:m])
            fits = ((norms > 0) & (np.abs(least[:m] * norms - 1.0) <= 8 * _U)
                    & (misfit[:m] * least[:m] * least[:m] <= (8 * _U) ** 2))
            c8[~fits] = 0
            counts[:, start:stop] = c8.T
            scale[start:stop] = np.where(fits, 1.0 / norms, 0.0)
    return _Screen(counts, scale, np.flatnonzero(scale == 0.0))


def _rescore(matrix: np.ndarray, groups: np.ndarray,
             q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score the rows of the sorted 4-row ``groups`` of ``matrix`` with
    one gemv per group, a partial last group at the end of a call that
    starts with the group before it. Returns the rows and their scores.

    gemv scores rows four at a time from the start of its call and the
    rest with a tail kernel that rounds differently, so with one BLAS
    thread this gives each row its bits in the full ``matrix @ q``.
    numpy runs a stacked matmul as one gemv per 4-row block, so no call
    covers more than 7 rows and none is split across threads.
    """
    n, dim = matrix.shape
    last = n // 4 - (n % 4 > 0)  # the last call runs from this group to the end
    head = groups[groups < last]
    rows = (4 * head[:, np.newaxis] + np.arange(4)).ravel()
    # Every group scored (the probe below): the matrix itself, not a copy.
    blocks = matrix[:4 * last] if len(head) == last else matrix[rows]
    scores = (blocks.reshape(-1, 4, dim) @ q).ravel()
    if len(head) < len(groups):
        rows = np.concatenate([rows, np.arange(4 * last, n)])
        scores = np.concatenate([scores, matrix[4 * last:] @ q])
    return rows, scores


def _rescore_matches_the_matmul(matrix: np.ndarray) -> bool:
    """Whether _rescore gives every row of ``matrix`` the bits of the full
    matmul on _PROBES seeded dense probe queries.

    It does with one BLAS thread. With more, OpenBLAS splits a large gemv
    into row ranges, and a range that does not end on a multiple of 4
    leaves rows to the tail kernel. With two threads one probe caught
    that in 33-40 of 40 draws at each of 2,001 to 20,001 rows of dim
    256. The probes come from the random module: loading numpy.random
    would add ~7 MB of resident memory.
    """
    n, dim = matrix.shape
    groups = np.arange((n + 3) // 4)
    rng = random.Random(0)
    for _ in range(_PROBES):
        q = np.array([rng.random() for _ in range(dim)]) * 2.0 - 1.0
        _rows, scores = _rescore(matrix, groups, q)
        if not np.array_equal(scores.view(np.uint64), (matrix @ q).view(np.uint64)):
            return False
    return True


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
        # A NaN norm compares false, so rows holding NaN are accepted.
        off = np.abs(np.sqrt(np.einsum("ij,ij->i", matrix, matrix)) - 1.0) > _NORM_TOL
        if off.any():
            row = int(np.argmax(off))
            norm = float(np.linalg.norm(matrix[row]))
            raise ValueError(f"embedding for {ids[row]!r} is not unit norm (|v|={norm})")
        self.dim = matrix.shape[1]
        self._ids: list[str] = ids
        self._documents: dict[str, Document] = dict(documents)
        self._matrix = matrix

    @functools.cached_property
    def _screen(self) -> _Screen | None:
        """The count copy that ``search`` screens on, built on the first
        search, so an index that is only saved never builds it. None for
        an index of fewer than _SCREEN_MIN_ROWS rows, and where this
        process's matmul does not score rows as _rescore does."""
        if len(self) < _SCREEN_MIN_ROWS or not _rescore_matches_the_matmul(self._matrix):
            return None
        return _count_copy(self._matrix)

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
        top = np.partition(scores, -k)[-k:].tolist()  # top[0] is the k-th best
        # NaN compares false both ways, so it has no rank to cut at; only
        # the full sort reproduces the brute-force order then.
        if not any(map(math.isnan, top)):
            keep = scores >= top[0]
            rows, scores = rows[keep], scores[keep]
    ranked = sorted(zip([ids[r] for r in rows.tolist()], scores.tolist()),
                    key=lambda e: (-e[1], e[0]))
    return ranked[:k]


def _screened(index: VectorIndex, screen: _Screen, q: np.ndarray,
              k: int) -> list[tuple[str, float]] | None:
    """Screen and rescore as the module docstring sets out; None where
    the dense scan must run instead."""
    qq = float(q @ q)
    cols = np.flatnonzero(q)
    n = len(index)
    cut = n - k - len(screen.loose)  # the k-th best checked row, loose rows at +inf
    # Speed only. Each column screened costs two passes over n floats; at
    # 20,000 x 256 (one BLAS thread, 2-core VM), with 64 query columns the
    # screened search took 2.6 ms against 5.1 dense after a 13 ms idle gap
    # and 2.2 vs 3.2 back to back, with 96 columns 3.5 vs 5.0 and 3.0 vs 2.1.
    if not (_Q_RANGE[0] <= qq <= _Q_RANGE[1] and 4 * len(cols) <= index.dim and cut >= 0):
        return None
    scores = np.zeros(n)
    term = np.empty(n)
    for col in cols.tolist():
        np.multiply(screen.counts[col], q[col], out=term)
        scores += term
    scores *= screen.scale
    scores[screen.loose] = np.inf
    margin = (4 * index.dim + 64) * _U * math.sqrt(qq)
    groups = np.zeros((n + 3) // 4, dtype=bool)
    groups[np.flatnonzero(scores >= np.partition(scores, cut)[cut] - margin) >> 2] = True
    groups = np.flatnonzero(groups)
    # Speed only, same set-up: with a tie group spread over 1,178 groups
    # (n/17) both searches took ~5.6 ms after a gap, over 2,073 (n/10)
    # the screened one took 9.5 ms against 7.5.
    if 16 * len(groups) > n:
        return None
    rows, scores = _rescore(index._matrix, groups, q)
    if not np.isfinite(scores).all():
        return None
    return _top_k(index._ids, rows, scores, k)


def search(index: VectorIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Exact top-k by inner product; ties break by doc_id ascending.

    Scores are bit for bit those of the dense ``matrix @ q``. An index
    of at least _SCREEN_MIN_ROWS rows is screened on a count copy, built
    on its first search, and only the candidates' 4-row groups are
    rescored; that path runs only where a probe found the rescoring to
    give the matmul's bits, which holds with one BLAS thread (module
    docstring).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (index.dim,):
        raise DimensionMismatchError(f"query has shape {q.shape}, index dim is {index.dim}")
    if len(index) == 0:
        return []
    screen = index._screen
    if screen is not None:
        ranked = _screened(index, screen, q, k)
        if ranked is not None:
            return ranked
    scores = index._matrix @ q
    return _top_k(index._ids, np.arange(len(scores)), scores, k)


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
