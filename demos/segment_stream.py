#!/usr/bin/env python3
"""Watch the sentence segmenter work on an incremental token stream.

The point to notice: emissions depend only on the text, never on how it
was chopped into chunks, and a terminator at the end of the buffer stays
unemitted until the next character proves it really ends a sentence.
"""

from voxbench import SentenceSegmenter
from voxbench.stages import stream_tokens

TEXT = ('Thanks for calling. Your router, model AX-3, needs a reset! '
        'Hold the button for 3.5 seconds... then wait. "Did it blink?" '
        'If yes, the line should sync within two minutes')

segmenter = SentenceSegmenter()

print("feeding token by token:")
now = 0.0
first_token_at = None
for token in stream_tokens(TEXT):
    now += 0.0125  # pretend each token takes 12.5 ms
    if first_token_at is None:
        first_token_at = now  # the caller stamps time; the segmenter only echoes it
    for sentence in segmenter.feed(token, now):
        print(f"  [{sentence.emitted_at_s:6.3f}s] sentence {sentence.index}: "
              f"{sentence.text!r}")

# the last sentence has no trailing terminator, so only flush reveals it
tail = segmenter.flush(now)
if tail is not None:
    print(f"  [{tail.emitted_at_s:6.3f}s] flushed tail {tail.index}: {tail.text!r}")

print(f"\nfirst token arrived at {first_token_at:.4f}s after the epoch")

# same text, pathological chunking: one character at a time
single = SentenceSegmenter()
out = [s.text for c in TEXT for s in single.feed(c, 0.0)]
if (t := single.flush(0.0)) is not None:
    out.append(t.text)

rerun = SentenceSegmenter()
whole = [s.text for s in rerun.feed(TEXT, 0.0)]
if (t := rerun.flush(0.0)) is not None:
    whole.append(t.text)

print(f"char-by-char chunking gives the same {len(out)} sentences:",
      out == whole)
