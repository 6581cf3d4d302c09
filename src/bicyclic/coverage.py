"""Brute-force coverage oracle and decision cross-validation.

Coverage scans the subsemigroup inside a generous pair window and marks
every product inverse(x) * y that lands in the report window.  For a left
I-order the report window must come out fully covered; for a negative
decision the certificate element must sit in the gaps.  Window checks
refute but never prove, so negative confirmations are labeled evidence
throughout.

The member scan reads the pair window as row masks, which the row-bitset
engine in `_cover` turns into the reached rows of the report window; the
report keeps those rows, and its gaps are read off them as (i, j) cells.
Windows and pair bounds above `WINDOW_LIMIT` are refused before anything
of that size is built.

The reached rows of the last 16 scans are kept, keyed by the spec, the
window and the rows and columns scanned, so a session that asks
`coverage` and `crosscheck` about one spec and window scans once, as do
pair bounds that scan the same rows.  The bound, `_CACHE_SIZE`, is the
one the parse cache in `specfile` uses: in the sessions measured, every
repeat was the next command on the same spec.  Only a process that runs
several commands hits the memo (a library session, or the benchmark's
and the differential's workers); a one-command CLI process never does.
A spec keeps its hash, so a lookup costs O(1) in the spec.  The
refusals run before the lookup, on every call, and each call gets a
report of its own: the memo keeps ints only, never a report's gaps.
The closure probe and the decisions are not kept: no session repeats
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional

from . import _cover
from .elements import Element
from .iorder import Decision, decide_left_iorder
from .subsemigroups import (
    _CACHE_SIZE,
    ClosureFailure,
    SubsemigroupSpec,
    _check_limit,
    _check_window,
    _grid,
    _last_start,
    _set_bits,
    closure_falsify,
    require_valid,
)

__all__ = [
    "CoverageReport",
    "CrossCheckReport",
    "default_pair_bound",
    "coverage",
    "cross_validate",
]


@dataclass(frozen=True)
class CoverageReport:
    """Window coverage: bit j of rows[i] is set iff (i, j) is some inverse(x) * y."""

    window: int
    pair_bound: int
    rows: tuple[int, ...]

    def gap_cells(self) -> Iterator[tuple[int, int]]:
        """The uncovered window cells as (i, j) int pairs, in (i, j) order."""
        full = (1 << (self.window + 1)) - 1
        for i, row in enumerate(self.rows):
            for j in _set_bits(full & ~row):
                yield i, j

    @cached_property
    def gaps(self) -> tuple[Element, ...]:
        """The uncovered window elements, in (i, j) order."""
        return tuple(Element(i, j) for i, j in self.gap_cells())

    @property
    def gap_count(self) -> int:
        """How many window elements are uncovered, counted on the masks."""
        full = (1 << (self.window + 1)) - 1
        return sum((full & ~row).bit_count() for row in self.rows)


def default_pair_bound(spec: SubsemigroupSpec, window: int) -> int:
    """Default member window for the pair enumeration.

    Follows the coordinate growth of the witness formulas, with slack:
    3 * (2 * window + c + 4), where c is the spec's `_corner` (p on the
    two-sided forms, m_default on the row forms, 0 on diagonal), raised
    for the reflected forms to L + d + window, where L is the largest
    finite row or progression start over the columns 0 .. window.

    Why that covers every product in the window: for x = (a, c) and
    y = (r, n), inverse(x) * y = (c - a + t, n - r + t) with
    t = max(a, r), so a product in the window has c, n <= window and
    |a - r| <= window.  Above L every column 0 .. window repeats with
    period d, so a pair whose lower row is above L + d moves down by d
    to a pair of members with the same product; the pairs with both rows
    at most L + d + window therefore reach every product there is.  The
    move lowers both rows, so for any bound B the pairs with both rows
    at most min(B, L + d + window) reach every product of the pairs with
    both rows at most B, and `coverage` scans no further.

    Upper and diagonal specs need no more than the window: every member
    lies on or above the diagonal, so a member of a column c <= window
    lies in a row <= c, and the formula is at least window.

    Two-sided (i) keeps the formula alone, and it too needs no more
    than the window.  If x lies on or above the diagonal, then a <= c <=
    window, and r <= window as well: when r > a, the product's row
    c - a + r is at least r.  Likewise if y does.  Every member outside
    the square lies on or above the diagonal.  A square member (i, j)
    below it has i >= j + d, since d divides i - j, so (i - d, j) is a
    square member too; a pair with both factors below the diagonal thus
    moves down by d to a pair with the same product, until one factor
    lies on or above it.
    """
    return _bounds(spec, window)[0]


def _bounds(spec: SubsemigroupSpec, window: int) -> tuple[int, int]:
    """The default pair bound, and the last member row any product in the
    window needs: L + d + window on the reflected forms, the window on
    the others (see `default_pair_bound`)."""
    reach = _last_start(spec, window + 1) + spec.step + window if spec.reflected else window
    return max(3 * (2 * window + spec._corner + 4), reach), reach


def coverage(
    spec: SubsemigroupSpec, window: int, pair_bound: Optional[int] = None
) -> CoverageReport:
    """Scan the pair window's members and mark the window rows they cover."""
    require_valid(spec)
    _check_window(window)
    default, reach = _bounds(spec, window)
    if pair_bound is None:
        pair_bound = default
    # no lower check: a negative pair bound scans no members
    _check_limit("pair bound", pair_bound)
    # A product inverse(x) * y has first coordinate >= x.j and second
    # >= y.j, so only members with j <= window can contribute.  The
    # members of rows up to `reach` give every product there is (see
    # `default_pair_bound`): the window on the forms that are not
    # reflected, L + d + window on the reflected ones, which reach the
    # window from rows below it.  Rows past it add no product, so a
    # larger pair bound scans the same rows.
    rows = _reached(spec, window, min(pair_bound, reach) + 1, min(window, pair_bound) + 1)
    return CoverageReport(window, pair_bound, rows)


@lru_cache(maxsize=_CACHE_SIZE)
def _reached(spec: SubsemigroupSpec, window: int, rows: int, cols: int) -> tuple[int, ...]:
    """The window rows reached by the members of the first `rows` rows
    and `cols` columns: one scan per key, kept as ints only."""
    return tuple(_cover.cover_grid(_grid(spec, rows, cols), window))


@dataclass(frozen=True)
class CrossCheckReport:
    """Decision versus coverage oracle, with the closure probe alongside."""

    passed: bool
    decision: Decision
    coverage: CoverageReport
    closure: Optional[ClosureFailure]
    notes: tuple[str, ...] = ()


def cross_validate(spec: SubsemigroupSpec, window: int) -> CrossCheckReport:
    """PASS iff the decision and the coverage oracle agree on the window.

    A yes verdict demands zero gaps; a no verdict with a certificate
    element demands that element among the gaps whenever it fits the
    window.  Negative agreement is evidence, not proof.
    """
    decision = decide_left_iorder(spec)
    report = coverage(spec, window)
    closure = closure_falsify(spec, window)
    notes: list[str] = []
    passed = True
    if decision.verdict:
        gaps = report.gap_count
        passed = not gaps
        if not passed:
            notes.append(f"yes verdict but {gaps} window gaps")
    else:
        c = decision.certificate.uncovered
        if c is not None:
            if c.i <= window and c.j <= window:
                passed = not report.rows[c.i] >> c.j & 1
                notes.append(
                    f"certificate {c} confirmed uncovered (evidence, not proof)"
                    if passed
                    else f"certificate {c} unexpectedly covered"
                )
            else:
                notes.append(f"certificate {c} outside window, not checked")
        else:
            notes.append("no certificate element to check")
    if closure is not None:
        notes.append(
            f"closure fails on window: {closure.x} * {closure.y} = {closure.product}"
        )
    return CrossCheckReport(passed, decision, report, closure, tuple(notes))
