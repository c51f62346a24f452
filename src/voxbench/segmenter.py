"""Incremental sentence segmentation over a token stream.

A sentence boundary is a terminator character (``.``, ``!`` or ``?``),
optionally followed by a run of closing quotes or brackets (``"``, ``'``,
``)``, ``]``), whose next character is whitespace. The rule is the one
compiled pattern ``_BOUNDARY``. A terminator sitting at the end of the
buffer is NOT a boundary yet: the decision waits until the following
character arrives or the stream is flushed. Because every decision looks
only at the characters up to the first non-closer after the terminator,
the emitted sentences are identical for every possible chunking of the
same text, and decimals such as "3.14" never split while
abbreviation-like "e.g. foo" does (the rule is purely punctuation-driven
on purpose; it keeps segmentation reproducible and auditable).

Each ``feed`` resumes the search at the buffer's trailing run of
terminators and closers, the only part that can still be undecided, so a
token costs time in proportion to its own length.

Emitted sentence texts are stripped of outer whitespace. Inner whitespace
is preserved, so joining all emissions with single spaces reconstructs the
input up to trimming and inter-sentence whitespace collapsing.
"""

from __future__ import annotations

import re

from .types import Sentence

TERMINATORS = ".!?"
CLOSERS = "\"')]"

_BOUNDARY = re.compile(f"[{re.escape(TERMINATORS)}][{re.escape(CLOSERS)}]*(?=\\s)")
_PENDING = TERMINATORS + CLOSERS


class SentenceSegmenter:
    """Feed text chunks in, receive completed sentences out.

    Every timestamp is the caller's ``now_s``, unchanged. Not
    thread-safe; each generation run owns exactly one instance.
    """

    def __init__(self) -> None:
        self._buffer = ""
        self._next_index = 0

    def feed(self, chunk: str, now_s: float) -> list[Sentence]:
        """Append ``chunk`` and return every sentence completed by it.

        ``now_s`` must be monotonically non-decreasing across calls; all
        sentences completed by this chunk are stamped with it.
        """
        old = self._buffer
        buf = old + chunk
        emitted: list[Sentence] = []
        cut = 0
        # Resuming at the old buffer's trailing punctuation run keeps a feed
        # O(chunk). Scanning from 0 emits the same sentences, so no test
        # notices, but an unterminated sentence then costs O(n) per token.
        # search, not finditer: most tokens match nothing, and building an
        # iterator costs more than the scan.
        match = _BOUNDARY.search(buf, len(old.rstrip(_PENDING)))
        while match:
            end = match.end()
            emitted.append(Sentence(self._next_index, buf[cut:end].strip(), now_s))
            self._next_index += 1
            cut = end
            match = _BOUNDARY.search(buf, cut)
        self._buffer = buf[cut:].lstrip() if cut else buf
        return emitted

    def flush(self, now_s: float) -> Sentence | None:
        """Emit whatever remains in the buffer as a final sentence."""
        text = self._buffer.strip()
        self._buffer = ""
        if not text:
            return None
        sentence = Sentence(self._next_index, text, now_s)
        self._next_index += 1
        return sentence
