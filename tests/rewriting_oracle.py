"""Test-only reference arithmetic: the monoid as a string rewriting system.

Words over {a, b} rewrite by deleting occurrences of the factor "ba" (the
defining relation ba = 1).  Each deletion shortens the word by two letters,
so rewriting terminates, and the system is confluent, so the surviving word
a^i b^j is independent of the deletion order.  This gives a multiplication
oracle that shares no code with the coordinate formula in
`bicyclic.elements`.  It spells out every letter, so keep the coordinates
small.  `normalize_by_scan` reduces a word in one left-to-right scan, a
letter per step; it is the reference for the packed walk of
`bicyclic.words`.
"""

from __future__ import annotations

from bicyclic import Element, word_normalize


def _check_alphabet(word: str) -> None:
    for ch in word:
        if ch not in "ab":
            raise ValueError(f"invalid letter {ch!r}: words use the alphabet {{a, b}}")


def normalize_by_scan(word: str) -> Element:
    """Reduce a word over {a, b} to its normal form exponent pair.

    Single left-to-right scan: a leading block of a's can never cancel,
    and each later 'a' cancels the most recent surviving 'b'.  One
    Python step per letter, the reference the packed walk of
    `word_normalize` is checked against, errors included.
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


def normalize_by_deletion(word: str, leftmost: bool = True) -> Element:
    """Naive fixpoint reference: repeatedly delete one "ba" factor.

    `leftmost` picks which occurrence goes first; confluence makes the
    result identical either way.
    """
    _check_alphabet(word)
    w = word
    while True:
        pos = w.find("ba") if leftmost else w.rfind("ba")
        if pos < 0:
            break
        w = w[:pos] + w[pos + 2 :]
    i = w.count("a")
    # no "ba" factor left, so every a precedes every b
    assert w == "a" * i + "b" * (len(w) - i)
    return Element(i, len(w) - i)


def element_to_word(x: Element) -> str:
    """The canonical word a^i b^j for an exponent pair."""
    return "a" * x.i + "b" * x.j


def multiply_via_rewriting(x: Element, y: Element) -> Element:
    """Multiply by concatenating canonical words and rewriting to normal form."""
    return word_normalize(element_to_word(x) + element_to_word(y))
