"""The region predicates of the test-only membership oracle."""

import pytest

from bicyclic import Element
from membership_oracle import in_diagonal, in_row, in_rows, in_square, reflected

WINDOW = [Element(i, j) for i in range(30) for j in range(30)]


def test_in_diagonal_examples():
    assert in_diagonal(Element(3, 3))
    assert in_diagonal(Element(0, 0))
    assert not in_diagonal(Element(3, 4))


def test_in_row_examples():
    assert in_row(Element(1, 10), 1, 7, 3)
    assert in_row(Element(1, 1), 1, 0, 1)
    assert not in_row(Element(1, 9), 1, 7, 3)
    with pytest.raises(ValueError):
        in_row(Element(0, 0), 0, 0, 0)


def test_in_square_examples():
    # picture-style offsets may exceed the spacing
    assert in_square(Element(8, 11), 8, 3, {0, 4})
    assert not in_square(Element(9, 9), 8, 3, {0, 4})
    assert in_square(Element(12, 12), 8, 3, {0, 4})
    with pytest.raises(ValueError):
        in_square(Element(0, 0), 0, 0, {0})
    with pytest.raises(ValueError):
        in_square(Element(0, 0), 0, 2, {-1})


def test_reflected_examples():
    assert reflected(lambda e: in_row(e, 1, 7, 3), Element(10, 1))
    assert reflected(in_diagonal, Element(3, 3))
    assert not reflected(lambda e: in_row(e, 1, 7, 3), Element(1, 10))


def test_rows_union_equals_direct_formula():
    rows = {1, 4, 7}
    for x in WINDOW:
        union = any(in_row(x, r, 7, 3) for r in rows)
        assert in_rows(x, rows, 7, 3) == union


def test_square_with_unit_step_is_quadrant():
    for p in (0, 3, 8):
        for x in WINDOW:
            assert in_square(x, p, 1, {0}) == (x.i >= p and x.j >= p)


def test_double_reflection_is_identity():
    preds = [
        in_diagonal,
        lambda e: in_row(e, 3, 5, 2),
        lambda e: in_square(e, 4, 3, {0, 1}),
    ]
    for pred in preds:
        for x in WINDOW:
            assert reflected(lambda e: reflected(pred, e), x) == pred(x)
