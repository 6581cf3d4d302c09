"""Exact arithmetic in the bicyclic monoid.

The bicyclic monoid is generated by two elements a and b subject only to
ba = 1.  Every element has a unique normal form a^i b^j with i, j >= 0, so
the monoid is modeled here as pairs (i, j) of nonnegative integers with

    (k, l) (m, n) = (k - l + t, n - m + t)   where t = max(l, m).

Inversion swaps the coordinates, the idempotents are exactly the diagonal
pairs (n, n) and form a descending chain (0,0) >= (1,1) >= ..., and the
Green relations read straight off the coordinates: rows are R-classes,
columns are L-classes, H-classes are points, and the whole monoid is a
single D-class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from . import _EXPORTS

__all__ = list(_EXPORTS["elements"])


@dataclass(frozen=True, order=True)
class Element:
    """Normal form a^i b^j, stored as the exponent pair (i, j).

    Coordinates are plain Python integers, so arithmetic never wraps; any
    negative exponent is rejected outright.
    """

    i: int
    j: int

    def __post_init__(self) -> None:
        if not isinstance(self.i, int) or not isinstance(self.j, int):
            raise ValueError(f"exponents must be integers, got ({self.i!r}, {self.j!r})")
        if self.i < 0 or self.j < 0:
            raise ValueError(f"exponents must be nonnegative, got ({self.i}, {self.j})")

    def __str__(self) -> str:
        try:
            return f"({self.i},{self.j})"
        except ValueError:
            # str() refuses more digits than sys.get_int_max_str_digits();
            # decimal counts them without converting, and only this path needs it.
            from decimal import Decimal

            digits = max(Decimal(c).adjusted() + 1 for c in (self.i, self.j))
            raise ValueError(f"element coordinate has too many digits to print ({digits})") from None


class GreenRelations(NamedTuple):
    """Which of the Green relations hold for a pair of elements."""

    l: bool
    r: bool
    h: bool
    d: bool


def multiply(x: Element, y: Element) -> Element:
    """Product in normal form: (k,l)(m,n) = (k-l+t, n-m+t), t = max(l, m)."""
    t = x.j if x.j >= y.i else y.i
    return Element(x.i - x.j + t, y.j - y.i + t)


def inverse(x: Element) -> Element:
    """The inverse of a^i b^j in the inverse-semigroup sense: a^j b^i."""
    return Element(x.j, x.i)


def hat(x: Element) -> Element:
    """Reflection across the main diagonal, (i, j) -> (j, i).

    This map is an anti-isomorphism (it reverses products) and an
    involution; on single elements it coincides with `inverse`.
    """
    return Element(x.j, x.i)


def green(x: Element, y: Element) -> GreenRelations:
    """Green relation flags: L iff equal columns, R iff equal rows.

    H is the conjunction of L and R, and D always holds because the
    bicyclic monoid is bisimple.
    """
    l = x.j == y.j
    r = x.i == y.i
    return GreenRelations(l, r, l and r, True)


# ASCII digits only: \d also matches digits such as "٣" that int() reads.
_ELEMENT_RE = re.compile(r"\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)")


def parse_element(text: str) -> Element:
    """Parse the textual syntax `(i,j)` used by the CLI and spec files."""
    match = _ELEMENT_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"expected an element of the form (i,j), got {text!r}")
    # int() refuses more digits than sys.get_int_max_str_digits().
    try:
        i, j = int(match.group(1)), int(match.group(2))
    except ValueError:
        digits = max(len(match.group(1)), len(match.group(2)))
        raise ValueError(f"element coordinate has too many digits ({digits})") from None
    return Element(i, j)
