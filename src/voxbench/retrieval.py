"""Deterministic embedding, exact inner-product search and prompt assembly.

The embedder is a hashing bag of words: lowercase, split on whitespace,
hash each token with a fixed stable 64-bit hash (blake2b, 8-byte digest,
little-endian), add 1.0 at ``hash % dim`` and L2-normalize. It is fully
reproducible across processes and platforms, which real embedding models
are not, so cosine scores from this module are only meaningful relative
to each other, never against scores from a production embedder.

Search is an exact flat scan: score every stored vector by inner product,
partition the scores to find the k-th best, keep every row scoring at
least that much (so a tie group straddling the boundary survives whole),
then sort only those rows by score descending, ties by doc_id ascending.
No approximate structure is involved, so results must equal a
brute-force oracle that sorts every score.

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
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@functools.lru_cache(maxsize=1 << 16)
def _token_bucket(token: str, dim: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % dim


def embed(text: str, dim: int) -> np.ndarray:
    """Embed ``text`` into a unit vector of length ``dim``.

    Token order does not matter. Empty or whitespace-only text maps to
    the first basis vector so every embedding has unit norm.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    vec = np.zeros(dim, dtype=np.float64)
    tokens = text.lower().split()
    if not tokens:
        vec[0] = 1.0
        return vec
    for token in tokens:
        vec[_token_bucket(token, dim)] += 1.0
    return vec / np.linalg.norm(vec)


class VectorIndex:
    """Flat in-memory index of unit vectors with their source documents."""

    def __init__(self, dim: int,
                 entries: Sequence[tuple[str, np.ndarray]],
                 documents: Mapping[str, Document]) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        ids = [doc_id for doc_id, _ in entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate doc_id in index entries")
        if set(ids) != set(documents):
            raise ValueError("entries and documents must cover the same doc_ids")
        self.dim = dim
        self._ids: list[str] = ids
        self._documents: dict[str, Document] = dict(documents)
        matrix = np.zeros((len(entries), dim), dtype=np.float64)
        for row, (doc_id, vector) in enumerate(entries):
            arr = np.asarray(vector, dtype=np.float64)
            if arr.shape != (dim,):
                raise DimensionMismatchError(
                    f"embedding for {doc_id!r} has shape {arr.shape}, index dim is {dim}")
            norm = float(np.linalg.norm(arr))
            if abs(norm - 1.0) > _NORM_TOL:
                raise ValueError(f"embedding for {doc_id!r} is not unit norm (|v|={norm})")
            matrix[row] = arr
        self._matrix = matrix

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
        docs = list(documents)
        entries = [(d.doc_id, embed(d.text, dim)) for d in docs]
        return cls(dim, entries, {d.doc_id: d for d in docs})


def load_documents(docs_dir: str | Path) -> list[Document]:
    """Read every ``*.txt`` under ``docs_dir`` as a document.

    The doc_id is the file stem; documents come back sorted by doc_id so
    downstream artifacts are byte-reproducible.
    """
    root = Path(docs_dir)
    if not root.is_dir():
        raise EmptyCorpusError(f"document directory {root} does not exist")
    docs: list[Document] = []
    for path in sorted(root.glob("*.txt"), key=lambda p: p.stem):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CorpusIOError(f"cannot read corpus file {path}: {exc}") from exc
        docs.append(Document(doc_id=path.stem, text=text))
    if not docs:
        raise EmptyCorpusError(f"no *.txt documents found under {root}")
    return docs


def build_index(docs_dir: str | Path, dim: int) -> VectorIndex:
    """Embed every text file under ``docs_dir`` into a fresh index."""
    return VectorIndex.from_documents(load_documents(docs_dir), dim)


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Write the index cache; loading it back is bit-identical."""
    out = bytearray()
    out += _HEADER.pack(CACHE_MAGIC, CACHE_VERSION, index.dim, len(index))
    rows = index._matrix.astype("<f8", copy=False)
    for row, doc_id in enumerate(index._ids):
        id_bytes = doc_id.encode("utf-8")
        text_bytes = index.document(doc_id).text.encode("utf-8")
        out += _U32.pack(len(id_bytes)) + id_bytes
        out += _U32.pack(len(text_bytes)) + text_bytes
        out += rows[row].tobytes()
    Path(path).write_bytes(out)


def load_index(path: str | Path) -> VectorIndex:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise CacheFormatError(f"cache file {path} is truncated before the header")
    magic, version, dim, count = _HEADER.unpack_from(data)
    if magic != CACHE_MAGIC:
        raise CacheFormatError(f"cache file {path} has bad magic {magic!r}")
    if version != CACHE_VERSION:
        raise CacheVersionError(
            f"cache file {path} has version {version}, expected {CACHE_VERSION}; rebuild it")
    pos = _HEADER.size
    entries: list[tuple[str, np.ndarray]] = []
    documents: dict[str, Document] = {}

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise CacheFormatError(f"cache file {path} is truncated mid-entry")
        chunk = data[pos:pos + n]
        pos += n
        return chunk

    for _ in range(count):
        doc_id = take(_U32.unpack(take(4))[0]).decode("utf-8")
        text = take(_U32.unpack(take(4))[0]).decode("utf-8")
        vector = np.frombuffer(take(8 * dim), dtype="<f8").astype(np.float64)
        entries.append((doc_id, vector))
        documents[doc_id] = Document(doc_id, text)
    if pos != len(data):
        raise CacheFormatError(
            f"cache file {path} has {len(data) - pos} trailing bytes after the last entry")
    return VectorIndex(dim, entries, documents)


def search(index: VectorIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Exact top-k by inner product; ties break by doc_id ascending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (index.dim,):
        raise DimensionMismatchError(f"query has shape {q.shape}, index dim is {index.dim}")
    if len(index) == 0:
        return []
    scores = index._matrix @ q
    ids = index._ids
    if k < len(scores):
        top = np.partition(scores, -k)[-k:].tolist()  # top[0] is the k-th best
        # NaN compares false both ways, so it has no rank to cut at; only
        # the full sort reproduces the brute-force order then.
        if not any(map(math.isnan, top)):
            rows = np.flatnonzero(scores >= top[0]).tolist()
            ids, scores = [ids[r] for r in rows], scores[rows]
    ranked = sorted(zip(ids, scores.tolist()), key=lambda e: (-e[1], e[0]))
    return ranked[:k]


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
