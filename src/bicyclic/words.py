"""Words over {a, b} and their normal forms.

The bicyclic monoid is the monoid presented by ba = 1, so every word
over {a, b} reduces to a unique normal form a^i b^j; the `normalize`
command finds it with `word_normalize`.

Read a as a step up and b as a step down.  A leading block of a's can
never cancel and each later a cancels the most recent surviving b, so
i is the highest point the walk reaches (0 counts, as the start) and
i - j is where it ends.  The (top, end) of a word uv follows from those
of u and v: `_join` gives (max(top_u, end_u + top_v), end_u + end_v).
Joining the two one-letter walks with themselves three times gives
`_TOP` and `_END` for all 256 words of 8 letters, read as a byte with
a as bit 1, b as bit 0 and the first letter highest.

`word_normalize` checks and packs the letters with C-level `bytes`
operations, after padding the word with b's to a multiple of 8, and its
Python loop takes one step per byte.  Trailing b's leave the top where
it was and lower the end by one each, so the pad is added back to j.
"""

from __future__ import annotations

from . import _EXPORTS
from .elements import Element

__all__ = list(_EXPORTS["words"])

# a -> "1", b -> "0": the word as the binary digits of its packed bytes
_BITS = bytes.maketrans(b"ab", b"10")


def _join(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """(top, end) of the walk uv, from those of u and of v."""
    return max(u[0], u[1] + v[0]), u[1] + v[1]


def _byte_walks() -> list[tuple[int, int]]:
    """(top, end) of each 8-letter word, indexed by its packed byte."""
    walks = [(0, -1), (1, 1)]  # b, a
    for _ in range(3):
        walks = [_join(u, v) for u in walks for v in walks]
    return walks


_TOP, _END = zip(*_byte_walks())


def word_normalize(word: str) -> Element:
    """Reduce a word over {a, b} to its normal form exponent pair.

    One step per byte of 8 letters: `h` is the walk's height so far and
    `i` its highest point (see the module docstring).
    """
    if not word.isascii() or word.encode("ascii").translate(None, b"ab"):
        ch = next(ch for ch in word if ch not in "ab")
        raise ValueError(f"invalid letter {ch!r}: words use the alphabet {{a, b}}")
    if not word:
        return Element(0, 0)
    pad = -len(word) % 8
    packed = (int(word.encode("ascii").translate(_BITS), 2) << pad).to_bytes((len(word) + pad) // 8, "big")
    h = i = 0
    for byte in packed:
        # a comparison, not max(): a call per byte would cost more than the step
        top = h + _TOP[byte]
        if top > i:
            i = top
        h += _END[byte]
    return Element(i, i - h - pad)
