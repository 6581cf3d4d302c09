import pytest
from hypothesis import given, strategies as st

from bicyclic import (
    Element,
    green,
    hat,
    inverse,
    multiply,
    parse_element,
)

elements = st.builds(Element, st.integers(0, 20), st.integers(0, 20))


def piecewise_multiply(x, y):
    # Independent transcription of the two-case product rule.
    if x.j <= y.i:
        return Element(x.i + y.i - x.j, y.j)
    return Element(x.i, x.j - y.i + y.j)


def test_multiply_examples():
    assert multiply(Element(2, 3), Element(5, 1)) == Element(4, 1)
    assert multiply(Element(0, 0), Element(6, 2)) == Element(6, 2)
    assert multiply(Element(3, 1), Element(1, 4)) == Element(3, 4)


def test_identity_both_sides():
    for x in (Element(0, 0), Element(2, 5), Element(7, 0)):
        assert multiply(Element(0, 0), x) == x
        assert multiply(x, Element(0, 0)) == x


def test_inverse_examples():
    assert inverse(Element(2, 5)) == Element(5, 2)
    assert inverse(Element(0, 0)) == Element(0, 0)
    assert inverse(Element(7, 0)) == Element(0, 7)


def test_green_examples():
    flags = green(Element(3, 5), Element(7, 5))
    assert (flags.l, flags.r, flags.h, flags.d) == (True, False, False, True)
    flags = green(Element(3, 5), Element(3, 5))
    assert (flags.l, flags.r, flags.h, flags.d) == (True, True, True, True)
    flags = green(Element(0, 1), Element(9, 4))
    assert (flags.l, flags.r, flags.h, flags.d) == (False, False, False, True)


def test_hat_examples():
    assert hat(Element(2, 5)) == Element(5, 2)
    assert hat(Element(0, 0)) == Element(0, 0)
    lhs = hat(multiply(Element(2, 3), Element(5, 1)))
    rhs = multiply(hat(Element(5, 1)), hat(Element(2, 3)))
    assert lhs == rhs == Element(1, 4)


def test_negative_coordinates_rejected():
    with pytest.raises(ValueError):
        Element(-1, 0)
    with pytest.raises(ValueError):
        Element(0, -2)
    with pytest.raises(ValueError):
        Element(1.5, 0)


def test_parse_element_round_trip():
    assert parse_element("(2,5)") == Element(2, 5)
    assert parse_element(" ( 2 , 5 ) ") == Element(2, 5)
    assert str(Element(2, 5)) == "(2,5)"
    with pytest.raises(ValueError):
        parse_element("2,5")
    with pytest.raises(ValueError):
        parse_element("(2,-5)")


def test_two_case_rule_agrees_exhaustively():
    # Both product formulations over the full window of coordinates <= 20.
    window = [Element(i, j) for i in range(21) for j in range(21)]
    for x in window:
        for y in window:
            assert multiply(x, y) == piecewise_multiply(x, y)


@given(elements, elements, elements)
def test_associativity(x, y, z):
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@given(elements)
def test_inverse_laws(x):
    xi = inverse(x)
    assert multiply(multiply(x, xi), x) == x
    assert multiply(multiply(xi, x), xi) == xi


@given(elements)
def test_inverse_products_are_class_anchors(x):
    assert multiply(x, inverse(x)) == Element(x.i, x.i)
    assert multiply(inverse(x), x) == Element(x.j, x.j)


@given(elements, elements)
def test_green_coherence(x, y):
    flags = green(x, y)
    assert flags.h == (flags.l and flags.r)
    assert flags.d


@given(elements, elements, elements)
def test_green_equivalence_on_samples(x, y, z):
    # reflexive, symmetric, and transitive on each relation
    for attr in ("l", "r", "h"):
        assert getattr(green(x, x), attr)
        assert getattr(green(x, y), attr) == getattr(green(y, x), attr)
        if getattr(green(x, y), attr) and getattr(green(y, z), attr):
            assert getattr(green(x, z), attr)


@given(elements, elements)
def test_hat_reverses_products(x, y):
    assert hat(multiply(x, y)) == multiply(hat(y), hat(x))
    assert hat(hat(x)) == x
