"""Test-only reference membership: one element at a time.

The package answers membership from per-row column masks.  This module
keeps the element-by-element formulation they replaced, so the tests can
compare the two: region predicates for the rows, the modular square and
the diagonal reflection, a membership test composed from them for each
of the five forms, and the closure probe as a loop over every ordered
pair of window members.  Nothing here is fast; it is meant to be obvious.
"""

from __future__ import annotations

from typing import Callable, Container, Iterable, Optional

from bicyclic import (
    ClosureFailure,
    Diagonal,
    Element,
    Lower,
    TwoSidedI,
    TwoSidedII,
    Upper,
    hat,
    multiply,
)


def in_diagonal(x: Element) -> bool:
    """{(i, i) : i >= 0}."""
    return x.i == x.j


def in_row(x: Element, row: int, start: int, step: int) -> bool:
    """{(row, j) : step | j - row, j >= start}."""
    if step < 1:
        raise ValueError(f"row spacing must be positive, got step={step}")
    return x.i == row and x.j >= start and (x.j - x.i) % step == 0


def in_rows(x: Element, rows: Container[int], start: int, step: int) -> bool:
    """Union of `in_row` over a set of row indices."""
    if step < 1:
        raise ValueError(f"row spacing must be positive, got step={step}")
    return x.i in rows and x.j >= start and (x.j - x.i) % step == 0


def in_square(x: Element, corner: int, step: int, offsets: Iterable[int]) -> bool:
    """Union over r in offsets of {(corner+r+u*step, corner+r+v*step) : u, v >= 0}."""
    if step < 1:
        raise ValueError(f"square spacing must be positive, got step={step}")
    offs = tuple(offsets)
    for r in offs:
        if r < 0:
            raise ValueError(f"square offsets must be nonnegative, got {r}")
    for r in offs:
        base = corner + r
        if (
            x.i >= base
            and x.j >= base
            and (x.i - base) % step == 0
            and (x.j - base) % step == 0
        ):
            return True
    return False


def reflected(pred: Callable[[Element], bool], x: Element) -> bool:
    """Evaluate a predicate at the diagonal reflection of x."""
    return pred(hat(x))


def _in_row_family(spec, x: Element) -> bool:
    # upper orientation: row x.i, column x.j
    if x in spec.diagonal_part:
        return True
    if x.i not in spec.row_indices:
        return False
    # the first override listed for the row wins; rows never dip below the diagonal
    m = next((ov.m for ov in spec.rows.overrides if ov.row == x.i), spec.rows.m_default)
    if any(ov.row == x.i and x in ov.extra for ov in spec.rows.overrides):
        return True
    return in_row(x, x.i, max(m, x.i), spec.row_indices.step)


def _in_two_sided(spec, x: Element) -> bool:
    # upper orientation, except for the square, which reflection fixes
    return (
        x in spec.diagonal_part
        or x in spec.triangle_part
        or in_rows(x, spec.row_indices, spec.p, spec.step)
        or in_square(x, spec.p, spec.step, spec.offsets)
    )


def contains(spec, x: Element) -> bool:
    """Membership of x, element by element; the spec must be valid."""
    if isinstance(spec, Diagonal):
        return in_diagonal(x) and (
            x in spec.elements or (spec.tail is not None and x.i in spec.tail)
        )
    if isinstance(spec, Upper):
        return _in_row_family(spec, x)
    if isinstance(spec, Lower):
        return reflected(lambda e: _in_row_family(spec, e), x)
    if isinstance(spec, TwoSidedI):
        return _in_two_sided(spec, x)
    if isinstance(spec, TwoSidedII):
        return reflected(lambda e: _in_two_sided(spec, e), x)
    raise TypeError(f"not a subsemigroup spec: {spec!r}")


def members(spec, rows: int, cols: int) -> set[Element]:
    """Members (i, j) with i < rows and j < cols."""
    return {
        Element(i, j) for i in range(rows) for j in range(cols) if contains(spec, Element(i, j))
    }


def closure_falsify(spec, window: int) -> Optional[ClosureFailure]:
    """First pair of window members, in sorted order, whose product escapes."""
    ordered = sorted(members(spec, window + 1, window + 1))
    for x in ordered:
        for y in ordered:
            prod = multiply(x, y)
            if not contains(spec, prod):
                return ClosureFailure(x, y, prod)
    return None
