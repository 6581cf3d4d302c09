import itertools
import random

import pytest
from hypothesis import given, strategies as st

from bicyclic import Element, multiply, word_normalize
from rewriting_oracle import multiply_via_rewriting, normalize_by_deletion, normalize_by_scan

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


def test_packed_walk_matches_scan_on_every_short_word():
    # every word of length <= 12: each pad from 0 to 7, and up to two bytes
    for n in range(13):
        for letters in itertools.product("ab", repeat=n):
            word = "".join(letters)
            assert word_normalize(word) == normalize_by_scan(word), word


def test_packed_walk_matches_scan_on_random_and_long_words():
    rng = random.Random(314159)
    for n in range(71):
        for _ in range(20):
            word = "".join(rng.choices("ab", k=n))
            assert word_normalize(word) == normalize_by_scan(word), word
    for _ in range(5):
        word = "".join(rng.choices("ab", k=20_000))
        assert word_normalize(word) == normalize_by_scan(word)


@pytest.mark.parametrize("k", [1, 7, 8, 9, 63, 64, 1000, 4099])
def test_packed_walk_matches_scan_on_extreme_walks(k):
    # the walk's highest point at the start, at the end, and everywhere between
    for word in ("b" * k + "a" * k, "a" * k, "b" * k, "ab" * k, "ba" * k):
        assert word_normalize(word) == normalize_by_scan(word), (word[:2], k)


@pytest.mark.parametrize(
    "word",
    ["abc", "aé", "a\udcffb", "٣", "abababab" + "xb", "ab" * 2500 + "ca"],
    ids=["ascii", "latin", "surrogate", "digit", "position-9", "after-5000"],
)
def test_bad_letter_errors_match_scan(word):
    # é, a surrogate-escaped argv byte and a non-ASCII digit fail the ASCII
    # check, the others the alphabet check; each error names the first bad letter
    with pytest.raises(ValueError) as expected:
        normalize_by_scan(word)
    with pytest.raises(ValueError) as got:
        word_normalize(word)
    assert str(got.value) == str(expected.value)


def test_multiply_via_rewriting_examples():
    assert multiply_via_rewriting(Element(2, 3), Element(5, 1)) == Element(4, 1)
    assert multiply_via_rewriting(Element(0, 0), Element(0, 0)) == Element(0, 0)
    assert multiply_via_rewriting(Element(1, 2), Element(2, 1)) == Element(1, 1)


@given(st.builds(Element, small, small), st.builds(Element, small, small))
def test_oracle_agrees_with_formula(x, y):
    assert multiply_via_rewriting(x, y) == multiply(x, y)


def test_deletion_order_independence():
    # 1000 random words of length <= 40: leftmost-first and rightmost-first
    # deletion agree with each other and with the packed walk.
    rng = random.Random(271828)
    for _ in range(1000):
        word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 40)))
        left = normalize_by_deletion(word, leftmost=True)
        right = normalize_by_deletion(word, leftmost=False)
        assert left == right == word_normalize(word)


@given(st.text(alphabet="ab", max_size=200))
def test_scan_matches_deletion(word):
    assert word_normalize(word) == normalize_by_deletion(word)
