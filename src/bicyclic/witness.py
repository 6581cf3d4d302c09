"""Constructive straight decompositions q = inverse(x) * y with x R y.

Every left I-order in the bicyclic monoid is straight: each element q
admits a decomposition whose two factors share an R-class.  The two
schemes below are closed formulas read off the spec's rows, so
`decompose` never searches.  `verify_witness` rechecks a witness from
scratch, multiplying through both the coordinate formula and a max-plus
matrix image of the monoid that shares no code with it.

The image is that of Izhakian & Margolis (Semigroup Forum 80, 2010):
2x2 upper triangular max-plus matrices [[x, y], [-inf, z]], kept as
triples (x, y, z), with a -> (1, 0, -1) and b -> (-1, 0, 1).  Then ba is
(0, -1, 0), which acts as the identity on the image, and a^i b^j maps to
(i - j, i + j - 1, j - i).  The map is injective, since i - j and i + j
determine i and j, and powers take O(log n) products by squaring, so a
witness checks at any coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _EXPORTS
from .elements import Element, green, inverse, multiply
from .iorder import Decision, decide_left_iorder
from .subsemigroups import SubsemigroupSpec, contains, require_valid

__all__ = list(_EXPORTS["witness"])

SCHEME_ROW0 = "row0"

_A = (1, 0, -1)
_B = (-1, 0, 1)
_UNIT = (0, -1, 0)


@dataclass(frozen=True)
class Witness:
    """A decomposition q = inverse(x) * y with x, y in S and x R y."""

    q: Element
    x: Element
    y: Element
    scheme: str

    def __str__(self) -> str:
        return f"q={self.q} x={self.x} y={self.y} scheme={self.scheme}"


class NotLeftIOrderError(ValueError):
    """Decomposition refused: the spec is not a left I-order."""

    def __init__(self, decision: Decision):
        self.decision = decision
        failed = decision.certificate.failed_condition
        super().__init__(f"not a left I-order ({decision.form}): condition {failed} fails")


def decompose(spec: SubsemigroupSpec, q: Element) -> Witness:
    """The canonical straight decomposition of q over the subsemigroup.

    Writing q = (m, n): upper forms and two-sided form (i) contain the
    identity row and use x = (0, m), y = (0, n), scheme row0.  The
    reflected forms, lower and two-sided (ii), lift into the rows with
    x = (m+n+t, m), y = (m+n+t, n), where t is the larger of the
    progression starts of rows m and n in the upper orientation (row
    thresholds for lower, p for two-sided (ii)); the scheme is the form's
    name.  A yes verdict leaves d = 1 and a progression on every row, so
    both starts exist.  Refused (with the decision attached) when the
    verdict is no.
    """
    decision = decide_left_iorder(spec)
    if not decision.verdict:
        raise NotLeftIOrderError(decision)
    m, n = q.i, q.j
    if not spec.reflected:
        return Witness(q, Element(0, m), Element(0, n), SCHEME_ROW0)
    lift = m + n + max(spec._start(m), spec._start(n))
    return Witness(q, Element(lift, m), Element(lift, n), spec.form)


def _maxplus(s: tuple[int, int, int], t: tuple[int, int, int]) -> tuple[int, int, int]:
    """Product of upper triangular max-plus matrices kept as (x, y, z)."""
    return (s[0] + t[0], max(s[0] + t[1], s[1] + t[2]), s[2] + t[2])


def _power(g: tuple[int, int, int], n: int) -> tuple[int, int, int]:
    """g to the n, by squaring."""
    out = _UNIT
    while n:
        if n & 1:
            out = _maxplus(out, g)
        g = _maxplus(g, g)
        n >>= 1
    return out


def _tropical(i: int, j: int) -> tuple[int, int, int]:
    """The max-plus image of a^i b^j, built by squaring."""
    return _maxplus(_power(_A, i), _power(_B, j))


def verify_witness(spec: SubsemigroupSpec, w: Witness) -> bool:
    """Recheck every witness invariant independently.

    Membership goes through `contains`, the product through both the
    coordinate formula and the max-plus image, and the R relation
    through the Green flags.
    """
    require_valid(spec)
    return (
        multiply(inverse(w.x), w.y) == w.q
        # inverse(x) is a^(x.j) b^(x.i)
        and _maxplus(_tropical(w.x.j, w.x.i), _tropical(w.y.i, w.y.j)) == _tropical(w.q.i, w.q.j)
        and green(w.x, w.y).r
        and contains(spec, w.x)
        and contains(spec, w.y)
    )
