"""Row-bitset coverage engine.

Which elements of the square window arise as inverse(x) * y for members
x, y of a set, computed on whole rows at once instead of pair by pair.
The set comes as its row masks, the form every membership query in
`subsemigroups` produces.

For x = (a, c) and a member y = (r, n) with r <= a, inverse(x) * y is
(c, n + a - r): it lands in row c with the columns of y shifted up by
a - r.  With R[r] the column mask of row r, the columns all such y
reach in row c are B(a), the OR over r <= a of R[r] << (a - r), which
`subsemigroups._blocks` gives for every row at once; the walk ORs B(a)
into row c for every member (a, c).

The pairs with r > a need no second recurrence, as the set is closed
under inverse: inverse(inverse(x) * y) = inverse(y) * x, and (y, x) is
a pair of the first kind, so the walk marks its cell and (x, y)'s cell
is that cell's mirror.  The grid is the walk's grid ORed with its
transpose; the window is a square, so a mirrored cell stays inside it.
The transpose is `subsemigroups._transpose`, the one the member grids of
the reflected forms use: it walks the marked cells when few are set, as
on sparse specs, and otherwise reads each column as one slice of the
grid written out as a bit string, so the mirror costs the smaller of
the cells marked and the window's area.

Masks keep window + 1 bits: the product's row is x.j and its column at
least y.j, and shifts only move bits up, so bits beyond the window never
come back into it, and members with j > window are dropped.
"""

from __future__ import annotations

from typing import Sequence

from .subsemigroups import _blocks, _set_bits, _transpose


def cover_grid(rows: Sequence[int], window: int) -> list[int]:
    """Column masks of the window rows reached by inverse(x) * y.

    Bit j of rows[r] marks the member (r, j); the members act as both
    factors.  Bit qj of entry qi in the returned list of window + 1 ints
    is set iff some ordered pair (x, y) of members yields (qi, qj).
    """
    size = window + 1
    full = (1 << size) - 1
    out = [0] * size
    for row, block in zip(rows, _blocks(rows, size)):
        for c in _set_bits(row & full):
            out[c] |= block
    return [row | col for row, col in zip(out, _transpose(out, size))]
