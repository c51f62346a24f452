"""Incremental sentence segmentation, checked against an offline oracle."""

import random

from hypothesis import given, settings, strategies as st

from voxbench.segmenter import SentenceSegmenter

from .support import oracle_sentences, random_chunks, random_sentence_text


def feed_all(chunks, flush=True):
    seg = SentenceSegmenter()
    out = []
    t = 0.0
    for chunk in chunks:
        t += 0.01
        out.extend(s.text for s in seg.feed(chunk, t))
    if flush:
        tail = seg.flush(t + 0.01)
        if tail is not None:
            out.append(tail.text)
    return out


class TestBoundaryRule:
    def test_basic_split_keeps_incomplete_tail_buffered(self):
        seg = SentenceSegmenter()
        emitted = seg.feed("Hello world. How are", 0.1)
        assert [s.text for s in emitted] == ["Hello world."]
        emitted = seg.feed(" you? ", 0.2)
        assert [s.text for s in emitted] == ["How are you?"]
        seg = SentenceSegmenter()
        seg.feed("Hello world. How are", 0.1)
        tail = seg.flush(0.2)
        assert tail is not None and (tail.index, tail.text) == (1, "How are")

    def test_terminator_at_buffer_end_waits_for_next_char(self):
        seg = SentenceSegmenter()
        assert seg.feed("Done.", 0.1) == []
        assert [s.text for s in seg.feed(" Next", 0.2)] == ["Done."]

    def test_flush_emits_the_remainder(self):
        seg = SentenceSegmenter()
        seg.feed("Done.", 0.1)
        tail = seg.flush(0.2)
        assert tail is not None and tail.text == "Done."
        assert seg.flush(0.3) is None

    def test_decimals_never_split(self):
        assert feed_all(["Pi is 3.14 exactly. Next!"]) == ["Pi is 3.14 exactly.", "Next!"]

    def test_abbreviation_style_dot_does_split(self):
        # The rule is punctuation-driven on purpose: "e.g. foo" splits.
        assert feed_all(["e.g. foo bar."]) == ["e.g.", "foo bar."]

    def test_closing_quotes_attach_to_the_sentence(self):
        text = 'He said "Fine." Then he left.'
        assert feed_all([text]) == ['He said "Fine."', "Then he left."]

    def test_closer_run_spanning_chunks(self):
        text = 'She wrote (really!) "Stop.") Go on.'
        assert feed_all(list(text)) == feed_all([text])

    def test_multi_terminator_runs(self):
        assert feed_all(["What?! Really?"]) == ["What?!", "Really?"]
        assert feed_all(["Wait... done. "]) == ["Wait...", "done."]

    def test_terminator_followed_by_letter_is_not_a_boundary(self):
        assert feed_all(["v1.2.3 shipped today."]) == ["v1.2.3 shipped today."]

    def test_whitespace_only_input(self):
        assert feed_all(["   \n  "]) == []


class TestBookkeeping:
    def test_indices_count_up_without_gaps(self):
        seg = SentenceSegmenter()
        sentences = seg.feed("One. Two. Three. ", 0.5)
        assert [s.index for s in sentences] == [0, 1, 2]
        assert seg.flush(0.6) is None
        assert [s.index for s in seg.feed("Four. Fi", 0.7)] == [3]
        tail = seg.flush(0.8)
        assert tail is not None and (tail.index, tail.text) == (4, "Fi")

    def test_emission_timestamps_use_the_feed_time(self):
        seg = SentenceSegmenter()
        sentences = seg.feed("A done. B done. ", 0.75)
        assert all(s.emitted_at_s == 0.75 for s in sentences)


class TestChunkingIndependence:
    def test_seeded_random_chunkings_match_the_oracle(self):
        rng = random.Random(1234)
        for _ in range(150):
            text = random_sentence_text(rng)
            expected = oracle_sentences(text)
            for _ in range(8):
                chunks = random_chunks(text, rng)
                assert feed_all(chunks) == expected, (text, chunks)

    def test_single_char_chunks_match_whole_string(self):
        rng = random.Random(99)
        for _ in range(40):
            text = random_sentence_text(rng)
            assert feed_all(list(text)) == feed_all([text])

    def test_no_characters_are_lost(self):
        rng = random.Random(5)
        strip_ws = str.maketrans("", "", " \t\n\r\x0b\x0c")
        for _ in range(60):
            text = random_sentence_text(rng)
            joined = "".join(feed_all(random_chunks(text, rng)))
            assert joined.translate(strip_ws) == text.translate(strip_ws)

    @settings(max_examples=120, deadline=None)
    @given(st.text(alphabet='ab .!?")\n3', max_size=40), st.data())
    def test_hypothesis_chunkings_match_the_oracle(self, text, data):
        cuts = data.draw(st.lists(st.integers(0, len(text)), max_size=6))
        points = sorted(set(cuts))
        chunks = []
        last = 0
        for p in points + [len(text)]:
            chunks.append(text[last:p])
            last = p
        assert feed_all(chunks) == oracle_sentences(text)
