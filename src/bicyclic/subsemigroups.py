"""Finitely described subsemigroups of the bicyclic monoid.

Five spec forms cover the classification of subsemigroups: subsets of the
diagonal, the upper and lower forms built from rows (or their diagonal
reflections) that share one modular spacing, and the two two-sided forms
that combine a finite triangle with infinite rows and a modular square.

Each form is plain immutable data.  `validate` checks the parameter
constraints and returns violations as data rather than raising.

Membership has one primitive.  Row by row, every form is a finite set
plus arithmetic progressions, so each form's `row_bits(i, lo, width)`
builds the column bits lo .. lo + width - 1 of row i straight from the
parameters.  A form indexes its finite parts by row once, so reading a
row costs that row's members, not the whole finite part.  Lower and
two-sided (ii) are the diagonal reflections of upper and two-sided (i)
with the same parameters: their `reflected` flag says to read the
primitive at hat(x), and their grids are the transposed grids of the
upper orientation.  `contains` is the primitive at one column;
rendering, the coverage member scan, `closure_falsify` and the
identity-row checks of the decisions work on whole rows.

Each class carries the facts that the modules downstream read in place
of testing a spec's class.  They are class attributes, not fields, so
they stay out of `repr`, equality, hashing and pickling:

  form             the form's name in spec files and output
  reflected        read the upper-orientation primitive at hat(x)
  _mirror          the class of the diagonal reflection (None on
                   diagonal, which reflection fixes)
  _corner          the p + default_m term of the default pair bound
  _report          the spec's `ValidationReport`, which `validate`
                   returns: computed on first read and then kept in
                   the instance `__dict__`, as `_finite_columns` is,
                   so it stays out of `repr`, equality and hashing
                   but travels in pickles

The classification guarantees every subsemigroup has one of these
shapes; the converse is not guaranteed, so the decision procedures
downstream assume the data denotes a genuine subsemigroup and
`closure_falsify` provides bounded assurance of that.

Window-sized work is bounded: negative windows, and windows and pair
bounds above `WINDOW_LIMIT`, raise ValueError before anything of that
size is built.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

from .elements import Element, hat, multiply

__all__ = [
    "IndexSet",
    "RowOverride",
    "RowData",
    "DiagonalTail",
    "Diagonal",
    "Upper",
    "Lower",
    "TwoSidedI",
    "TwoSidedII",
    "SubsemigroupSpec",
    "ValidationReport",
    "ClosureFailure",
    "InvalidSpecError",
    "validate",
    "require_valid",
    "contains",
    "closure_falsify",
    "WINDOW_LIMIT",
]

# Largest window or pair bound that window-sized work accepts.
WINDOW_LIMIT = 500

# Texts and scans whose results the parse cache and coverage's scan
# memo keep: each one's repeats are the next operations on one spec.
_CACHE_SIZE = 16

# `_transpose` walks the set bits of a grid with fewer than one cell in
# this many set, and reads the others by column slices of one string.
_SPARSE = 16


@dataclass(frozen=True)
class IndexSet:
    """A set of nonnegative integers: finite part plus residue tails.

    Denotes fixed | {k >= start : k % step in residues}.  The finite part
    must lie below `start` and the residues below `step`, which makes the
    description canonical enough for the membership queries here.
    """

    fixed: frozenset[int] = frozenset()
    residues: frozenset[int] = frozenset()
    start: int = 0
    step: int = 1

    def __contains__(self, k: int) -> bool:
        if k in self.fixed:
            return True
        return k >= self.start and k % self.step in self.residues

    def is_empty(self) -> bool:
        return not self.fixed and not self.residues

    def is_full(self) -> bool:
        """True iff the set is all of {0, 1, 2, ...}.

        Counts suffice because the fixed part lies in {0, ..., start-1}
        and the residues in {0, ..., step-1}.
        """
        return len(self.fixed) == self.start and len(self.residues) == self.step

    def min(self) -> Optional[int]:
        candidates = list(self.fixed)
        for r in self.residues:
            candidates.append(self.start + (r - self.start) % self.step)
        return min(candidates) if candidates else None


@dataclass(frozen=True)
class RowOverride:
    """Per-row data: threshold m and finitely many extra members."""

    row: int
    m: int
    extra: frozenset[Element] = frozenset()


@dataclass(frozen=True)
class RowData:
    """Row thresholds: a default m plus finitely many overrides.

    The effective threshold of row i is max(m, i), so rows never dip
    below the diagonal.
    """

    m_default: int = 0
    overrides: tuple[RowOverride, ...] = ()

    # the generated hash, computed once: it would walk every override
    _hash = cached_property(lambda self: hash((self.m_default, self.overrides)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _by_row(self) -> dict[int, RowOverride]:
        # reversed, so the first override listed for a row wins
        return {ov.row: ov for ov in reversed(self.overrides)}

    def override_for(self, row: int) -> Optional[RowOverride]:
        return self._by_row.get(row)

    def threshold(self, row: int) -> int:
        ov = self.override_for(row)
        m = ov.m if ov is not None else self.m_default
        return max(m, row)


@dataclass(frozen=True)
class DiagonalTail:
    """Arithmetic progression of diagonal indices: n >= start, n % step == residue."""

    start: int
    step: int
    residue: int

    def __contains__(self, n: int) -> bool:
        return n >= self.start and n % self.step == self.residue


def _progression(first: int, step: int, lo: int, width: int) -> int:
    """Bits of the columns first, first + step, ... among lo .. lo + width - 1."""
    if first < lo:
        first += (lo - first + step - 1) // step * step
    offset = first - lo
    if offset >= width:
        return 0
    count = (width - 1 - offset) // step + 1
    if count == 1:
        return 1 << offset
    # count > 1 means step < width, so the repunit stays within 2 * width bits
    return ((1 << count * step) - 1) // ((1 << step) - 1) << offset


def _columns_by_row(*parts: frozenset[Element]) -> dict[int, list[int]]:
    """The sorted columns that the finite parts hold in each of their rows."""
    columns: dict[int, list[int]] = {}
    for part in parts:
        for e in part:
            columns.setdefault(e.i, []).append(e.j)
    for row in columns.values():
        row.sort()
    return columns


def _finite_bits(columns: dict[int, list[int]], i: int, lo: int, width: int) -> int:
    """Bits of the indexed columns of row i among lo .. lo + width - 1."""
    row = columns.get(i)
    if row is None:
        return 0
    bits = 0
    for j in row[bisect_left(row, lo) : bisect_left(row, lo + width)]:
        bits |= 1 << (j - lo)
    return bits


def _row_bits(spec: _RowFamily | _TwoSided, i: int, lo: int, width: int) -> int:
    """Column bits lo .. lo + width - 1 of row i in the upper orientation."""
    bits = _finite_bits(spec._finite_columns, i, lo, width)
    start = spec._start(i)
    if start is not None:
        bits |= _progression(start, spec.step, lo, width)
    return bits


@dataclass(frozen=True)
class Diagonal:
    """A subset of the diagonal: finitely many idempotents plus an optional tail."""

    elements: frozenset[Element] = frozenset()
    tail: Optional[DiagonalTail] = None

    form = "diagonal"
    reflected = False
    _mirror = None
    _corner = 0

    _report = cached_property(lambda self: _validate_diagonal(self))

    @cached_property
    def _finite_columns(self) -> dict[int, list[int]]:
        return _columns_by_row(self.elements)

    def row_bits(self, i: int, lo: int, width: int) -> int:
        """Column bits lo .. lo + width - 1 of row i."""
        bits = _finite_bits(self._finite_columns, i, lo, width)
        if self.tail is not None and i in self.tail and lo <= i < lo + width:
            bits |= 1 << (i - lo)
        return bits


@dataclass(frozen=True)
class _RowFamily:
    """Rows on or above the diagonal sharing one modular spacing.

    Denotes diagonal_part | union over i in row_indices of
    (extras of row i) | {(i, j) : step | j - i, j >= threshold(i)},
    or its diagonal reflection when `reflected` is set.
    """

    diagonal_part: frozenset[Element] = frozenset()
    row_indices: IndexSet = field(default_factory=IndexSet)
    rows: RowData = field(default_factory=RowData)

    reflected = False

    _report = cached_property(lambda self: _validate_row_family(self))

    @property
    def step(self) -> int:
        return self.row_indices.step

    @property
    def _corner(self) -> int:
        return self.rows.m_default

    @cached_property
    def _finite_columns(self) -> dict[int, list[int]]:
        # validation keeps each override's extras on its own row, inside I
        return _columns_by_row(self.diagonal_part, *(ov.extra for ov in self.rows.overrides))

    def _start(self, i: int) -> Optional[int]:
        """First column of row i's progression in the upper orientation, if any."""
        if i not in self.row_indices:
            return None
        t = self.rows.threshold(i)
        return t + (i - t) % self.step

    row_bits = _row_bits


class Upper(_RowFamily):
    """Rows on or above the diagonal sharing one modular spacing."""

    form = "upper"


class Lower(_RowFamily):
    """Diagonal reflection of the upper form with the same parameters."""

    form = "lower"
    reflected = True


Upper._mirror, Lower._mirror = Lower, Upper


@dataclass(frozen=True)
class _TwoSided:
    """Diagonal part, triangle part, rows, and a modular square.

    Denotes diagonal_part | triangle_part
            | {(i, j) : i in row_indices, step | j - i, j >= p}
            | the modular square at corner p with the given offsets,
    or the diagonal reflection of all but the square, which reflection
    fixes, when `reflected` is set.
    """

    q: int
    p: int
    step: int
    row_indices: frozenset[int]
    offsets: frozenset[int]
    diagonal_part: frozenset[Element] = frozenset()
    triangle_part: frozenset[Element] = frozenset()

    reflected = False

    _report = cached_property(lambda self: _validate_two_sided(self))

    @property
    def _corner(self) -> int:
        return self.p

    @cached_property
    def _finite_columns(self) -> dict[int, list[int]]:
        return _columns_by_row(self.diagonal_part, self.triangle_part)

    def _start(self, i: int) -> Optional[int]:
        """First column of row i's progression in the upper orientation, if any.

        A row of I and a row of the square both start at p + r with
        r = (i - p) % d: validation keeps P below d, so only one offset
        can hold row i, and I below p, so no row has both.
        """
        r = (i - self.p) % self.step
        if i in self.row_indices or (r in self.offsets and i >= self.p + r):
            return self.p + r
        return None

    row_bits = _row_bits


class TwoSidedI(_TwoSided):
    """Triangle side up: diagonal part, triangle part, rows, and a square."""

    form = "twosided-i"


class TwoSidedII(_TwoSided):
    """Triangle side down: reflection of the non-square parts of form (i)."""

    form = "twosided-ii"
    reflected = True


TwoSidedI._mirror, TwoSidedII._mirror = TwoSidedII, TwoSidedI


SubsemigroupSpec = Union[Diagonal, Upper, Lower, TwoSidedI, TwoSidedII]


def _last_start(spec: _RowFamily | _TwoSided, rows: int) -> int:
    """The largest finite column or progression start of rows 0 .. rows-1, or 0.

    Read in the upper orientation: past it, each of those rows repeats
    with period `spec.step`.
    """
    last = 0
    for i in range(rows):
        finite = spec._finite_columns.get(i)
        start = spec._start(i)
        last = max(last, finite[-1] if finite else 0, 0 if start is None else start)
    return last


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class InvalidSpecError(ValueError):
    """Raised when an operation requires a spec that failed validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("invalid subsemigroup spec: " + "; ".join(report.violations))


def _validate_diagonal(spec: Diagonal) -> ValidationReport:
    violations = []
    for e in sorted(spec.elements):
        if e.i != e.j:
            violations.append(f"elements on the diagonal fails: {e} is off the diagonal")
    if spec.tail is not None:
        t = spec.tail
        if t.step < 1:
            violations.append(f"tail_d >= 1 fails: tail_d={t.step}")
        elif not 0 <= t.residue < t.step:
            violations.append(f"tail_r within {{0,...,tail_d-1}} fails: tail_r={t.residue}")
        if t.start < 0:
            violations.append(f"tail_N >= 0 fails: tail_N={t.start}")
    if not spec.elements and spec.tail is None:
        violations.append("nonempty fails: no elements and no tail, the spec denotes the empty set")
    return ValidationReport(tuple(violations))


def _validate_index_set(idx: IndexSet, violations: list[str]) -> None:
    if idx.step < 1:
        violations.append(f"d >= 1 fails: d={idx.step}")
        return
    if idx.start < 0:
        violations.append(f"N >= 0 fails: N={idx.start}")
    for k in sorted(idx.fixed):
        if not 0 <= k < idx.start:
            violations.append(f"I0 within {{0,...,N-1}} fails: {k} with N={idx.start}")
    for r in sorted(idx.residues):
        if not 0 <= r < idx.step:
            violations.append(f"R within {{0,...,d-1}} fails: {r} with d={idx.step}")


def _validate_fd(
    fd: frozenset[Element], bound: int, label: str, violations: list[str], notes: list[str]
) -> None:
    """FD lies on the diagonal within the column strip of indices <= bound."""
    for e in sorted(fd):
        if e.i != e.j:
            violations.append(f"FD on the diagonal fails: {e} is off the diagonal")
        elif e.i > bound:
            violations.append(f"FD within the column strip fails: index {e.i} exceeds {label}")
    if fd:
        notes.append(f"FD bound read as the column strip: diagonal indices <= {label}")


def _validate_row_family(spec: _RowFamily) -> ValidationReport:
    violations: list[str] = []
    notes: list[str] = []
    idx = spec.row_indices
    _validate_index_set(idx, violations)
    if violations:
        return ValidationReport(tuple(violations))
    if idx.is_empty():
        violations.append("I nonempty fails: the index set denotes no rows (use form=diagonal)")
        return ValidationReport(tuple(violations))

    lo = idx.min()
    assert lo is not None
    _validate_fd(spec.diagonal_part, lo, f"min(I)={lo}", violations, notes)

    seen_rows = set()
    for ov in spec.rows.overrides:
        if ov.row in seen_rows:
            violations.append(f"duplicate row override fails: row {ov.row}")
        seen_rows.add(ov.row)
        if ov.row not in idx:
            violations.append(f"override rows within I fails: row {ov.row} is not in I")
        if ov.m < 0:
            violations.append(f"row m >= 0 fails: m={ov.m} on row {ov.row}")
        for e in sorted(ov.extra):
            if e.i != ov.row or e.j < ov.row or (e.j - e.i) % idx.step != 0:
                violations.append(
                    f"row F within the row fails: {e} is not on row {ov.row} "
                    f"with spacing d={idx.step} at or above the diagonal"
                )
    if spec.rows.m_default < 0:
        violations.append(f"default_m >= 0 fails: default_m={spec.rows.m_default}")
    return ValidationReport(tuple(violations), tuple(notes))


def _validate_two_sided(spec: _TwoSided) -> ValidationReport:
    violations: list[str] = []
    notes: list[str] = []
    if spec.step < 1:
        violations.append(f"d >= 1 fails: d={spec.step}")
    if spec.q < 0:
        violations.append(f"q >= 0 fails: q={spec.q}")
    if spec.q > spec.p:
        violations.append(f"q <= p fails: q={spec.q}, p={spec.p}")
    for k in sorted(spec.row_indices):
        if not spec.q <= k < spec.p:
            violations.append(f"I within {{q,...,p-1}} fails: {k} with q={spec.q}, p={spec.p}")
    if spec.q not in spec.row_indices:
        fmt = "{" + ",".join(str(k) for k in sorted(spec.row_indices)) + "}"
        violations.append(f"q in I fails: q={spec.q} is not in I={fmt}")
    if spec.step >= 1:
        for r in sorted(spec.offsets):
            if not 0 <= r < spec.step:
                violations.append(f"P within {{0,...,d-1}} fails: {r} with d={spec.step}")
    if 0 not in spec.offsets:
        fmt = "{" + ",".join(str(r) for r in sorted(spec.offsets)) + "}"
        violations.append(f"0 in P fails: P={fmt}")
    _validate_fd(spec.diagonal_part, spec.q, f"q={spec.q}", violations, notes)
    for e in sorted(spec.triangle_part):
        if not spec.q <= e.i <= e.j < spec.p:
            violations.append(
                f"F within the triangle fails: {e} is outside q <= i <= j < p "
                f"with q={spec.q}, p={spec.p}"
            )
    return ValidationReport(tuple(violations), tuple(notes))


def validate(spec: SubsemigroupSpec) -> ValidationReport:
    """Check every parameter constraint; violations come back as data.

    Each spec keeps its report (`_report`), so only its first call runs
    the checks, and a later one costs O(1) whatever the spec's size.
    """
    if not isinstance(spec, (Diagonal, _RowFamily, _TwoSided)):
        raise TypeError(f"not a subsemigroup spec: {spec!r}")
    return spec._report


def require_valid(spec: SubsemigroupSpec) -> None:
    report = validate(spec)
    if not report.ok:
        raise InvalidSpecError(report)


def _shown(before: str, value: int) -> str:
    """`before` and the refused value, for a message; "" when the value has
    more digits than the interpreter converts to a string."""
    try:
        return f"{before}{value}"
    except ValueError:
        return ""


def _check_limit(name: str, value: int) -> None:
    """Refuse window-sized work beyond WINDOW_LIMIT, before any of it is built."""
    if value > WINDOW_LIMIT:
        raise ValueError(f"{name}{_shown(' ', value)} exceeds the limit {WINDOW_LIMIT}")


def _check_window(window: int) -> None:
    """Refuse a negative window, or one beyond WINDOW_LIMIT."""
    if window < 0:
        raise ValueError(f"window must be nonnegative{_shown(', got ', window)}")
    _check_limit("window", window)


def _set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """The grid read by columns: bit i of entry j is bit j of rows[i].

    Each of the rows holds `width` bits; the result holds `width` masks
    of len(rows) bits.  A sparse grid is walked by its set bits, which
    costs the cells set; any other is written out as one bit string and
    read by columns, each one C-level slice of it, which costs the area
    but runs at C speed per column.
    """
    out = [0] * max(width, 0)
    # format(0, "00b") is "0", one column too many, so no strings here
    if not rows or width <= 0:
        return out
    cells = sum(row.bit_count() for row in rows)
    if cells * _SPARSE < len(rows) * width:
        for i, row in enumerate(rows):
            bit = 1 << i
            for j in _set_bits(row):
                out[j] |= bit
        return out
    # format() writes column 0 last, so in the rows' strings joined from
    # the last row down, column j is every width-th character from
    # width - 1 - j on, with row 0 last
    text = "".join([format(row, f"0{width}b") for row in reversed(rows)])
    return [int(text[width - 1 - j :: width], 2) for j in range(width)]


def _grid(spec: SubsemigroupSpec, rows: int, cols: int) -> list[int]:
    """Column masks of rows 0 .. rows-1, over columns 0 .. cols-1."""
    if not spec.reflected:
        return [spec.row_bits(i, 0, cols) for i in range(rows)]
    # A reflected grid is the transposed grid of the upper orientation.
    return _transpose([spec.row_bits(j, 0, rows) for j in range(cols)], rows)


def contains(spec: SubsemigroupSpec, x: Element) -> bool:
    """Exact membership of x in the denoted set."""
    require_valid(spec)
    if spec.reflected:
        x = hat(x)
    return spec.row_bits(x.i, x.j, 1) == 1


@dataclass(frozen=True)
class ClosureFailure:
    """A pair of members whose product falls outside the described set."""

    x: Element
    y: Element
    product: Element


def closure_falsify(spec: SubsemigroupSpec, window: int) -> Optional[ClosureFailure]:
    """Search the window for a product that escapes the set.

    Returns the first failing pair in sorted order, or None.  A None
    result is evidence that the data denotes a genuine subsemigroup, not
    a proof: products of elements outside the window are never examined.

    For x = (k, l) and the members y = (m, n) of row m, the product
    x * y is (k - l + t, n + t - m) with t = max(l, m): the whole row
    lands in one row, shifted by t - m.  One product with the row's
    least member gives both, and the shifted row must be a subset of
    the row it lands in.  Products of window members stay within
    2 * window in both coordinates, so one grid of that size holds every
    row they land in.

    With R[m] the window members of row m, that gives two conditions on
    x, one per side of t:

    - m <= l: y lands in row k at column n + l - m, so every such row
      is safe iff B(l) = OR over m <= l of R[m] << (l - m) is a subset
      of row k.  B(l) = (B(l - 1) << 1) | R[l], and read as a virtual
      row l it is checked by the same product with its least member.
    - m > l: y lands in row m + o at column n, with o = k - l, so every
      such row is safe iff no m > l has R[m] outside row m + o.  The
      largest m that breaks this depends on o alone, so it is found
      once per offset.

    Every row m is on one side, so x is safe iff both hold.  B(l) lands
    in row k unshifted, since x * (l, h) = (k, h), so the members of row
    k are all safe on the first side iff the OR of their B(l) is a
    subset of row k, which one product with the row's least member as x
    checks.  A pass thus costs one product per nonempty member row and
    one lookup per member, or none when no offset escapes, as on every
    closed window.  Only a row that fails checks its members one by one,
    and the first member that fails runs the per-row check above, which
    names the first failing y in sorted order.
    """
    require_valid(spec)
    _check_window(window)
    size = window + 1
    span = _grid(spec, 2 * window + 1, 2 * window + 1)
    rows = [row & ((1 << size) - 1) for row in span[:size]]
    columns = [list(_set_bits(row)) for row in rows]
    # blocks[l] is B(l); last_escape[o] is the largest m, above the least l
    # of the members with offset o, whose R[m] is outside row m + o, or -1
    blocks = []
    block = 0
    for row in rows:
        block = (block << 1) | row
        blocks.append(block)
    # in (k, l) order the first member with offset o has the least l
    least: dict[int, int] = {}
    for k, cols in enumerate(columns):
        for l in cols:
            least.setdefault(k - l, l)
    last_escape = {
        o: next((m for m in range(window, l, -1) if rows[m] & ~span[m + o]), -1)
        for o, l in least.items()
    }
    # with no offset escaping, every member passes its lookup
    escaping = any(m >= 0 for m in last_escape.values())
    for k, cols in enumerate(columns):
        union = 0
        for l in cols:
            union |= blocks[l]
        # a nonzero union means the row has members
        if (not escaping or all(last_escape[k - l] <= l for l in cols)) and not (
            union and _escape(Element(k, cols[0]), cols[0], union, span)
        ):
            continue
        for l in cols:
            x = Element(k, l)
            if last_escape[k - l] <= l and not (blocks[l] and _escape(x, l, blocks[l], span)):
                continue
            for m, row in enumerate(rows):
                failure = row and _escape(x, m, row, span)
                if failure:
                    return failure
    return None


def _escape(x: Element, m: int, row: int, span: list[int]) -> Optional[ClosureFailure]:
    """The first member of row m, given by its mask, that x sends outside the set."""
    head = Element(m, (row & -row).bit_length() - 1)
    z = multiply(x, head)
    escaped = row & ~(span[z.i] >> (z.j - head.j))
    if not escaped:
        return None
    y = Element(m, (escaped & -escaped).bit_length() - 1)
    return ClosureFailure(x, y, multiply(x, y))
