"""Words over {a, b} and their normal forms.

The bicyclic monoid is the monoid presented by ba = 1, so every word
over {a, b} reduces to a unique normal form a^i b^j.  `word_normalize`
finds it in one left-to-right scan; the `normalize` command uses it.
"""

from __future__ import annotations

from . import _EXPORTS
from .elements import Element

__all__ = list(_EXPORTS["words"])


def word_normalize(word: str) -> Element:
    """Reduce a word over {a, b} to its normal form exponent pair.

    Single left-to-right scan: a leading block of a's can never cancel,
    and each later 'a' cancels the most recent surviving 'b'.
    """
    i = j = 0
    for ch in word:
        if ch == "a":
            if j:
                j -= 1
            else:
                i += 1
        elif ch == "b":
            j += 1
        else:
            raise ValueError(f"invalid letter {ch!r}: words use the alphabet {{a, b}}")
    return Element(i, j)
