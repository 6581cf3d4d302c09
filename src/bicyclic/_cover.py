"""Row-bitset coverage engine.

Which elements of the square window arise as inverse(x) * y for members
x, y of a set, computed on whole rows at once instead of pair by pair.
The set comes as its row masks, the form every membership query in
`subsemigroups` produces.

For x = (a, c) and a member y in row r, inverse(x) * y is
(c - a + t, y.j - r + t) with t = max(a, r), so

- if r >= a, it lands in row c - a + r with the columns of y unchanged;
- if r < a, it lands in row c with the columns of y shifted up by a - r.

With R[r] the column mask of row r, the first case ORs R[r] into row
r + (c - a) for every r >= a: among the x sharing the offset c - a, the
one with the least a reaches every row the others reach, so only it is
kept.  The second case ORs S(a) = OR over r < a of R[r] << (a - r) into
row c; walking the rows upward with S = ((S | R[r]) << 1) & full yields
S(a) on reaching row a.  Masks keep window + 1 bits: the product's row
is at least x.j and its column at least y.j, and shifts only move bits
up, so bits beyond the window never come back into it, and members with
j > window are dropped.
"""

from __future__ import annotations

from typing import Sequence

from .subsemigroups import _set_bits


def cover_grid(rows: Sequence[int], window: int) -> list[int]:
    """Column masks of the window rows reached by inverse(x) * y.

    Bit j of rows[r] marks the member (r, j); the members act as both
    factors.  Bit qj of entry qi in the returned list of window + 1 ints
    is set iff some ordered pair (x, y) of members yields (qi, qj).
    """
    size = window + 1
    full = (1 << size) - 1
    rows = [row & full for row in rows]
    out = [0] * size
    least: dict[int, int] = {}
    shifted = 0
    for r, row in enumerate(rows):
        for c in _set_bits(row):
            least.setdefault(c - r, r)
            # r < a: the rows below r land shifted in row c.
            out[c] |= shifted
        shifted = ((shifted | row) << 1) & full

    # r >= a: row r lands in row r + offset, which must stay in the window.
    last_row = len(rows) - 1
    for offset, a in least.items():
        for r in range(a, min(last_row, window - offset) + 1):
            out[r + offset] |= rows[r]
    return out
