"""Frame encoding against hand-written byte vectors, plus round trips."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from voxbench.errors import (
    CorruptFrameError,
    FrameTooLargeError,
    FrameVersionError,
    IncompleteFrameError,
)
from voxbench.types import Sentence
from voxbench.wire import (
    HEADER_SIZE,
    KIND_END,
    KIND_SENTENCE,
    decode_frame,
    encode_end,
    encode_frame,
    frame_to_sentence,
    iter_frames,
)

from .support import random_unicode_text

# Byte vectors written out by hand from the header layout, never generated
# by the code under test.
GOLDEN = [
    (
        Sentence(0, "Hi.", 0.0),
        bytes.fromhex("53564631" "0100" "00" "00000000"
                      "0000000000000000" "03000000") + b"Hi.",
    ),
    (
        Sentence(7, "¿Qué?", 0.25),
        bytes.fromhex("53564631" "0100" "00" "07000000"
                      "90d0030000000000" "07000000")
        + bytes.fromhex("c2bf5175c3a93f"),
    ),
    (
        Sentence(70000, "OK ✅", 12.5),
        bytes.fromhex("53564631" "0100" "00" "70110100"
                      "20bcbe0000000000" "06000000")
        + bytes.fromhex("4f4b20e29c85"),
    ),
]

GOLDEN_END = bytes.fromhex("53564631" "0100" "01" "03000000"
                           "80841e0000000000" "00000000")


class TestGoldenVectors:
    @pytest.mark.parametrize("sentence,expected", GOLDEN,
                             ids=["ascii", "latin", "emoji"])
    def test_encode_matches_handwritten_bytes(self, sentence, expected):
        assert encode_frame(sentence) == expected

    @pytest.mark.parametrize("sentence,blob", GOLDEN,
                             ids=["ascii", "latin", "emoji"])
    def test_decode_recovers_the_sentence(self, sentence, blob):
        frame, used = decode_frame(blob + b"junk after")
        assert used == len(blob)
        assert frame.kind == KIND_SENTENCE
        assert not frame.is_end()
        assert frame_to_sentence(frame) == sentence

    def test_end_marker_bytes_and_size(self):
        blob = encode_end(3, 2.0)
        assert blob == GOLDEN_END
        assert len(blob) == HEADER_SIZE == 23

    def test_end_marker_decodes(self):
        frame, used = decode_frame(GOLDEN_END)
        assert used == 23
        assert frame.is_end()
        assert frame.kind == KIND_END
        assert frame.index == 3
        assert frame.emitted_at_s == 2.0
        with pytest.raises(CorruptFrameError):
            frame_to_sentence(frame)


class TestRoundTrip:
    def test_reencode_is_byte_identical(self):
        for sentence, blob in GOLDEN:
            frame, _ = decode_frame(blob)
            assert encode_frame(frame_to_sentence(frame)) == blob

    def test_timestamp_keeps_microsecond_precision(self):
        sentence = Sentence(1, "x", 1.234567)
        frame, _ = decode_frame(encode_frame(sentence))
        assert frame.emitted_at_us == 1234567
        assert frame.emitted_at_s == pytest.approx(1.234567, abs=1e-12)

    def test_seeded_unicode_round_trips(self):
        rng = random.Random(7711)
        for _ in range(300):
            sentence = Sentence(
                rng.randrange(2**32),
                random_unicode_text(rng),
                rng.random() * 1e4,
            )
            frame, used = decode_frame(encode_frame(sentence))
            assert used == HEADER_SIZE + len(frame.payload)
            assert frame.index == sentence.index
            assert frame.text == sentence.text
            assert frame.emitted_at_us == round(sentence.emitted_at_s * 1e6)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.text(max_size=80),
           st.floats(0, 1e6, allow_nan=False))
    def test_hypothesis_round_trip(self, index, text, at_s):
        frame, _ = decode_frame(encode_frame(Sentence(index, text, at_s)))
        assert (frame.index, frame.text) == (index, text)
        assert frame.emitted_at_us == round(at_s * 1e6)


class TestStreamDecoding:
    def stream(self):
        parts = [encode_frame(s) for s, _ in GOLDEN] + [encode_end(3, 2.0)]
        return b"".join(parts), parts

    def test_iter_frames_decodes_back_to_back_frames(self):
        blob, parts = self.stream()
        frames = iter_frames(blob)
        assert len(frames) == 4
        assert [f.is_end() for f in frames] == [False, False, False, True]
        assert [f.index for f in frames] == [0, 7, 70000, 3]

    def test_every_cut_point_is_either_clean_or_incomplete(self):
        blob, _ = self.stream()
        boundaries = set()
        acc = 0
        for _, part in GOLDEN:
            acc += len(part)
            boundaries.add(acc)
        boundaries.add(len(blob))
        for cut in range(len(blob) + 1):
            prefix = blob[:cut]
            try:
                frames = iter_frames(prefix)
            except IncompleteFrameError:
                assert cut not in boundaries and cut != 0
            else:
                assert cut in boundaries or cut == 0
                assert sum(HEADER_SIZE + len(f.payload) for f in frames) == cut

    def test_incremental_consumption_matches_whole_buffer(self):
        blob, _ = self.stream()
        rng = random.Random(3)
        received = b""
        decoded = []
        pos = 0
        while pos < len(blob) or received:
            if pos < len(blob):
                take = rng.randint(1, 9)
                received += blob[pos:pos + take]
                pos += take
            try:
                frame, used = decode_frame(received)
            except IncompleteFrameError:
                continue
            decoded.append(frame)
            received = received[used:]
        assert [f.index for f in decoded] == [0, 7, 70000, 3]


class TestErrorTaxonomy:
    def test_short_buffer_with_valid_prefix_waits(self):
        with pytest.raises(IncompleteFrameError):
            decode_frame(b"SV")
        with pytest.raises(IncompleteFrameError):
            decode_frame(GOLDEN[0][1][:10])

    def test_empty_buffer_waits(self):
        with pytest.raises(IncompleteFrameError):
            decode_frame(b"")

    def test_bad_magic_is_corrupt_even_when_short(self):
        with pytest.raises(CorruptFrameError):
            decode_frame(b"XX")
        with pytest.raises(CorruptFrameError):
            decode_frame(b"NOPE" + GOLDEN[0][1][4:])

    def test_unknown_version_is_its_own_error(self):
        blob = bytearray(GOLDEN[0][1])
        blob[4:6] = (2).to_bytes(2, "little")
        with pytest.raises(FrameVersionError):
            decode_frame(bytes(blob))
        # and it still reads as corrupt for callers catching broadly
        assert issubclass(FrameVersionError, CorruptFrameError)

    def test_unknown_kind_is_corrupt(self):
        blob = bytearray(GOLDEN[0][1])
        blob[6] = 9
        with pytest.raises(CorruptFrameError, match="kind"):
            decode_frame(bytes(blob))

    def test_invalid_utf8_payload_is_corrupt(self):
        blob = bytearray(GOLDEN[0][1])
        blob[HEADER_SIZE] = 0xFF
        with pytest.raises(CorruptFrameError, match="UTF-8"):
            decode_frame(bytes(blob))

    def test_end_frame_with_payload_is_corrupt(self):
        blob = bytearray(GOLDEN_END)
        blob[19:23] = (2).to_bytes(4, "little")
        with pytest.raises(CorruptFrameError, match="payload"):
            decode_frame(bytes(blob) + b"hi")

    def test_truncated_payload_waits_for_more(self):
        blob = GOLDEN[1][1]
        with pytest.raises(IncompleteFrameError):
            decode_frame(blob[:-1])

    def test_oversized_index_refuses_to_encode(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame(Sentence(2**32, "x", 0.0))
        with pytest.raises(FrameTooLargeError):
            encode_end(2**32, 0.0)

    def test_negative_timestamp_refuses_to_encode(self):
        for at_s in (-0.5, math.nan, math.inf):
            with pytest.raises(FrameTooLargeError):
                encode_frame(Sentence(0, "x", at_s))
