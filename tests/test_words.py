import random

import pytest
from hypothesis import given, strategies as st

from bicyclic import Element, multiply, word_normalize
from rewriting_oracle import multiply_via_rewriting, normalize_by_deletion

small = st.integers(0, 15)


def test_word_normalize_examples():
    assert word_normalize("ba") == Element(0, 0)
    assert word_normalize("ab") == Element(1, 1)
    assert word_normalize("aababb") == Element(2, 2)
    assert word_normalize("") == Element(0, 0)


def test_word_normalize_matches_generator_folding():
    # fold multiply over the generators a = (1,0), b = (0,1)
    gens = {"a": Element(1, 0), "b": Element(0, 1)}
    for word in ("aababb", "bbaa", "abababa", "baba", "aaabbbab"):
        acc = Element(0, 0)
        for ch in word:
            acc = multiply(acc, gens[ch])
        assert word_normalize(word) == acc


def test_word_normalize_rejects_bad_letters():
    with pytest.raises(ValueError):
        word_normalize("abc")
    with pytest.raises(ValueError):
        normalize_by_deletion("ax")


def test_multiply_via_rewriting_examples():
    assert multiply_via_rewriting(Element(2, 3), Element(5, 1)) == Element(4, 1)
    assert multiply_via_rewriting(Element(0, 0), Element(0, 0)) == Element(0, 0)
    assert multiply_via_rewriting(Element(1, 2), Element(2, 1)) == Element(1, 1)


@given(st.builds(Element, small, small), st.builds(Element, small, small))
def test_oracle_agrees_with_formula(x, y):
    assert multiply_via_rewriting(x, y) == multiply(x, y)


def test_deletion_order_independence():
    # 1000 random words of length <= 40: leftmost-first and rightmost-first
    # deletion agree with each other and with the scanning normalizer.
    rng = random.Random(271828)
    for _ in range(1000):
        word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 40)))
        left = normalize_by_deletion(word, leftmost=True)
        right = normalize_by_deletion(word, leftmost=False)
        assert left == right == word_normalize(word)


@given(st.text(alphabet="ab", max_size=60))
def test_scan_matches_deletion(word):
    assert word_normalize(word) == normalize_by_deletion(word)
