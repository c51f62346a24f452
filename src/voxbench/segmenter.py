"""Incremental sentence segmentation over a token stream.

A sentence boundary is a terminator character (``.``, ``!`` or ``?``),
optionally followed by a run of closing quotes or brackets (``"``, ``'``,
``)``, ``]``), whose next character is whitespace. A terminator sitting at
the end of the buffer is NOT a boundary yet: the decision waits until the
following character arrives or the stream is flushed. Because every
decision looks only at the characters up to the first non-closer after the
terminator, the emitted sentences are identical for every possible
chunking of the same text, and decimals such as "3.14" never split while
abbreviation-like "e.g. foo" does (the rule is purely punctuation-driven
on purpose; it keeps segmentation reproducible and auditable).

Emitted sentence texts are stripped of outer whitespace. Inner whitespace
is preserved, so joining all emissions with single spaces reconstructs the
input up to trimming and inter-sentence whitespace collapsing.
"""

from __future__ import annotations

from .types import Sentence

TERMINATORS = frozenset(".!?")
CLOSERS = frozenset("\"')]")


class SentenceSegmenter:
    """Feed text chunks in, receive completed sentences out.

    Every timestamp is the caller's ``now_s``, unchanged. Not
    thread-safe; each generation run owns exactly one instance.
    """

    def __init__(self) -> None:
        self._buffer = ""
        self._next_index = 0
        # Index into _buffer up to which no undecided terminator exists.
        self._scan_pos = 0

    @property
    def buffer(self) -> str:
        return self._buffer

    @property
    def next_index(self) -> int:
        return self._next_index

    def feed(self, chunk: str, now_s: float) -> list[Sentence]:
        """Append ``chunk`` and return every sentence completed by it.

        ``now_s`` must be monotonically non-decreasing across calls; all
        sentences completed by this chunk are stamped with it.
        """
        if not chunk:
            return []
        self._buffer += chunk
        return self._drain(now_s)

    def flush(self, now_s: float) -> Sentence | None:
        """Emit whatever remains in the buffer as a final sentence."""
        text = self._buffer.strip()
        self._buffer = ""
        self._scan_pos = 0
        if not text:
            return None
        sentence = Sentence(self._next_index, text, now_s)
        self._next_index += 1
        return sentence

    def _drain(self, now_s: float) -> list[Sentence]:
        buf = self._buffer
        n = len(buf)
        spans: list[tuple[int, int]] = []
        seg_start = 0
        undecided = n
        i = self._scan_pos
        while i < n:
            if buf[i] not in TERMINATORS:
                i += 1
                continue
            j = i + 1
            while j < n and buf[j] in CLOSERS:
                j += 1
            if j >= n:
                # Terminator (plus closers) touches the end of the buffer:
                # the boundary decision needs the next character.
                undecided = i
                break
            if buf[j].isspace():
                spans.append((seg_start, j))
                seg_start = j
                i = j + 1
            else:
                i = j

        emitted: list[Sentence] = []
        for a, b in spans:
            text = buf[a:b].strip()
            if not text:
                continue  # whitespace-only span, dropped without an index
            emitted.append(Sentence(self._next_index, text, now_s))
            self._next_index += 1

        if spans:
            rest = buf[spans[-1][1]:]
            stripped = rest.lstrip()
            shift = spans[-1][1] + (len(rest) - len(stripped))
            self._buffer = stripped
            self._scan_pos = max(0, undecided - shift)
        else:
            self._scan_pos = undecided
        return emitted
