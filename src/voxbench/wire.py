"""Binary framing for sentences crossing the generation/synthesis boundary.

Frame layout, little-endian, no padding:

    offset  size  field
    0       4     magic b"SVF1"
    4       2     version, u16 (currently 1)
    6       1     kind, u8 (0 = sentence, 1 = end of stream)
    7       4     sentence index, u32
    11      8     emitted_at, u64 microseconds (round(emitted_at_s * 1e6))
    19      4     payload length, u32
    23      ...   payload, UTF-8 text (empty for end-of-stream frames)

The 23-byte header makes an end-of-stream frame exactly 23 bytes long.
Frames are self-delimiting, so a byte stream of concatenated frames can be
cut at arbitrary positions and decoded incrementally; a buffer that ends
mid-frame raises IncompleteFrameError, which means "wait for more bytes".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import (
    CorruptFrameError,
    FrameTooLargeError,
    FrameVersionError,
    IncompleteFrameError,
)
from .types import Sentence

MAGIC = b"SVF1"
VERSION = 1
KIND_SENTENCE = 0
KIND_END = 1

_HEADER = struct.Struct("<4sHBIQI")
HEADER_SIZE = _HEADER.size  # 23

_U32_MAX = 2**32 - 1


@dataclass(frozen=True)
class SentenceFrame:
    """Decoded frame: either one sentence or the end-of-stream marker."""

    kind: int
    index: int
    emitted_at_us: int
    payload: bytes

    @property
    def text(self) -> str:
        return self.payload.decode("utf-8")

    @property
    def emitted_at_s(self) -> float:
        return self.emitted_at_us / 1e6

    def is_end(self) -> bool:
        return self.kind == KIND_END


def _pack(kind: int, index: int, emitted_at_s: float, payload: bytes) -> bytes:
    if not 0 <= index <= _U32_MAX:
        raise FrameTooLargeError(f"sentence index {index} does not fit in u32")
    emitted_us = emitted_at_s * 1e6
    if not -0.5 <= emitted_us < 2.0**64:  # floats that round into u64; NaN fails too
        raise FrameTooLargeError(f"timestamp {emitted_at_s} does not fit in u64 microseconds")
    if len(payload) > _U32_MAX:
        raise FrameTooLargeError(f"payload of {len(payload)} bytes does not fit in u32")
    return _HEADER.pack(MAGIC, VERSION, kind, index, round(emitted_us), len(payload)) + payload


def encode_frame(sentence: Sentence) -> bytes:
    """Encode one sentence as a frame."""
    return _pack(KIND_SENTENCE, sentence.index, sentence.emitted_at_s,
                 sentence.text.encode("utf-8"))


def encode_end(next_index: int, now_s: float) -> bytes:
    """Encode the end-of-stream marker (exactly 23 bytes)."""
    return _pack(KIND_END, next_index, now_s, b"")


def decode_frame(buffer: bytes | bytearray | memoryview) -> tuple[SentenceFrame, int]:
    """Decode the first frame in ``buffer``; return (frame, bytes consumed).

    Raises IncompleteFrameError when the buffer ends mid-frame (not an
    error, wait for more bytes), CorruptFrameError on bad magic, a bad
    kind or an undecodable payload, and FrameVersionError on a version
    this decoder does not support.
    """
    # Read the header in place and copy out only the payload, so decoding
    # the next frame of a long stream never copies the rest of it.
    if len(buffer) < HEADER_SIZE:
        # A short buffer whose bytes can still become a valid header is a
        # wait-for-more signal; a wrong magic prefix can never recover.
        head = bytes(buffer[:4])
        if MAGIC.startswith(head):
            raise IncompleteFrameError(f"need {HEADER_SIZE} header bytes, have {len(buffer)}")
        raise CorruptFrameError(f"bad magic {head!r}")
    magic, version, kind, index, emitted_us, length = _HEADER.unpack_from(buffer)
    if magic != MAGIC:
        raise CorruptFrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameVersionError(f"unsupported frame version {version}")
    if kind not in (KIND_SENTENCE, KIND_END):
        raise CorruptFrameError(f"unknown frame kind {kind}")
    end = HEADER_SIZE + length
    if len(buffer) < end:
        raise IncompleteFrameError(f"need {end} bytes for payload, have {len(buffer)}")
    payload = bytes(buffer[HEADER_SIZE:end])
    if kind == KIND_END and payload:
        raise CorruptFrameError("end-of-stream frame must carry no payload")
    try:
        payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFrameError(f"payload is not valid UTF-8: {exc}") from exc
    return SentenceFrame(kind, index, emitted_us, payload), end


def frame_to_sentence(frame: SentenceFrame) -> Sentence:
    """Rebuild the Sentence a sentence frame was encoded from."""
    if frame.is_end():
        raise CorruptFrameError("end-of-stream frame carries no sentence")
    return Sentence(frame.index, frame.text, frame.emitted_at_s)


def iter_frames(stream: bytes) -> list[SentenceFrame]:
    """Decode a full byte stream of back-to-back frames.

    Trailing partial bytes raise IncompleteFrameError.
    """
    frames: list[SentenceFrame] = []
    pos = 0
    view = memoryview(stream)
    while pos < len(stream):
        frame, used = decode_frame(view[pos:])
        frames.append(frame)
        pos += used
    return frames
