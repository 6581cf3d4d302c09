"""Decision procedures for left and right I-orders in the bicyclic monoid.

A subsemigroup S is a left I-order when every element of the monoid
factors as inverse(x) * y with x, y in S; it is a right I-order when every
element factors as x * inverse(y).  For each classification form the left
question reduces to finitely checkable parameter conditions:

  diagonal      never (products of idempotents are idempotent)
  upper         the identity row is contained in S
  lower         unit spacing and every column index present
  twosided-i    the identity row is contained in S
  twosided-ii   unit spacing and column indices exactly {0, ..., p-1}

Negative verdicts carry a certificate: the failed condition plus, when
one can be read off the data, a concrete element that no product
inverse(x) * y can reach.  Each form's decider returns its conditions
and certificate, and `_decision` alone forms the verdict from them,
checking that the two agree.  The right question reduces to the left
one for the reflected spec, since reflection is an anti-isomorphism.
Every spec holds its data in the upper orientation, and the deciders
read only that data (the fields, the rows `_start`, `_finite_columns`
and `row_bits` give, and the parameters), never `reflected` or the
class; so the right question runs the mirror form's decider on the
spec itself, and no reflected copy is built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from . import _EXPORTS
from .elements import Element
from .subsemigroups import SubsemigroupSpec, require_valid

__all__ = list(_EXPORTS["iorder"])

REASON_PARITY = "parity"
REASON_EMPTY_L_CLASS = "empty-L-class"
REASON_ROW0_GAP = "row0-gap"
REASON_IDEMPOTENTS_ONLY = "idempotents-only"


@dataclass(frozen=True)
class Condition:
    name: str
    holds: bool


@dataclass(frozen=True)
class Certificate:
    """Why the verdict is no: a failed condition, optionally witnessed.

    The `uncovered` element, when present, is provably not of the form
    inverse(x) * y over the subsemigroup and can be confirmed against
    `coverage`'s window scan.
    """

    failed_condition: str
    uncovered: Optional[Element] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class Decision:
    verdict: bool
    form: str
    conditions: tuple[Condition, ...]
    certificate: Optional[Certificate] = None


def _decision(form: str, conditions: tuple[Condition, ...], certificate) -> Decision:
    verdict = all(c.holds for c in conditions)
    if verdict != (certificate is None):
        raise RuntimeError(
            f"{form}: verdict {'yes' if verdict else 'no'} disagrees with certificate {certificate}"
        )
    return Decision(verdict, form, conditions, certificate)


# With spacing d > 1 no member pair reaches the parity class of (0, 1).
_PARITY = Certificate("d-is-1", Element(0, 1), REASON_PARITY)

_Verdict = tuple[tuple[Condition, ...], Optional[Certificate]]


def _decide_diagonal(spec: SubsemigroupSpec) -> _Verdict:
    # Products of idempotents are idempotent, so inverse(x) * y stays on
    # the diagonal and (0, 1) is never reached.
    cond = Condition("contains-non-idempotent", False)
    return (cond,), Certificate("contains-non-idempotent", Element(0, 1), REASON_IDEMPOTENTS_ONLY)


def _row0_gap(spec: SubsemigroupSpec) -> Optional[int]:
    """Least h with (0, h) missing from S, or None.

    Let f count row 0's finite members, which the spec's row index holds
    apart from its progression.  A gap lies at or below f + 1: were
    columns 0 .. f + 1 all members, the progression would supply two of
    them, and then either (d = 1) every later column too, or (d > 1)
    leave a column between two of its terms to the finite parts, which
    sit at multiples of d (upper) or below the progression (two-sided
    (i)).  So one mask of f + 2 columns decides the row, however large
    p or the row thresholds.

    Row 0 outside the row indices holds at most (0, 0), so a None here
    also means that row 0 is in I (upper) and that q = 0 (two-sided (i)):
    with d = 1, the deciders' conditions all hold iff this is None.
    """
    width = len(spec._finite_columns.get(0, ())) + 2
    bits = spec.row_bits(0, 0, width)
    gap = (~bits & (bits + 1)).bit_length() - 1
    return gap if gap < width else None


def _decide_row0(spec: SubsemigroupSpec, index: Condition, name: str, failed: str) -> _Verdict:
    """The verdict of a row-0 form on its row condition `name`.

    `index` is the form's condition that row 0 is a row of I, and
    `failed` the condition a row-0 gap certifies.  By `_row0_gap`, with
    d = 1 the conditions all hold iff row 0 has no gap.  A gap (0, h) is
    unreachable: inverse(x) * y lands in row 0 only when x lies in
    column 0, these forms' only member there is (0, 0), and
    inverse((0, 0)) * y = y, so row 0 is reached where S has members.
    """
    gap = _row0_gap(spec)
    conditions = (Condition("d-is-1", spec.step == 1), index, Condition(name, gap is None))
    if spec.step != 1:
        return conditions, _PARITY
    if gap is None:
        return conditions, None
    return conditions, Certificate(failed, Element(0, gap), REASON_ROW0_GAP)


def _decide_upper(spec: SubsemigroupSpec) -> _Verdict:
    has_row0 = 0 in spec.row_indices
    failed = "row-0-prefix-covered" if has_row0 else "row-0-in-indices"
    return _decide_row0(spec, Condition("row-0-in-indices", has_row0), "row-0-prefix-covered", failed)


def _decide_columns(spec: SubsemigroupSpec, name: str, holds: bool, bound: int) -> _Verdict:
    """The verdict of a reflected form on its column condition `name`.

    `holds` says whether every column of S is present.  A column k of S
    is empty when row k of the upper orientation is: it has no
    progression start and no finite member.  Its idempotent (k, k) is
    then unreachable.  The scan takes the least such k below `bound`;
    each k it passes has a start or a finite member, so it ends within
    the spec's data however large the bound.
    """
    conditions = (Condition("d-is-1", spec.step == 1), Condition(name, holds))
    if spec.step != 1:
        return conditions, _PARITY
    if holds:
        return conditions, None
    for k in range(bound):
        if spec._start(k) is None and k not in spec._finite_columns:
            return conditions, Certificate(name, Element(k, k), REASON_EMPTY_L_CLASS)
    return conditions, Certificate(name)


def _decide_lower(spec: SubsemigroupSpec) -> _Verdict:
    # With d = 1, I holds every column from N on when R = {0}, and column
    # N, above FD's strip, is missing when R is empty, so the columns
    # 0 .. N hold the least empty one.
    return _decide_columns(spec, "all-columns-present", spec.row_indices.is_full(), spec.row_indices.start + 1)


def _decide_twosided_i(spec: SubsemigroupSpec) -> _Verdict:
    covered = "identity-row-covered"
    return _decide_row0(spec, Condition("q-is-0", spec.q == 0), covered, covered)


def _decide_twosided_ii(spec: SubsemigroupSpec) -> _Verdict:
    # Validation keeps I within {q, ..., p-1}, so I is all of {0, ..., p-1}
    # exactly when q = 0 and I has p members; the square's rows start at
    # p, so the scan below p meets only rows of I.
    covered = spec.q == 0 and len(spec.row_indices) == spec.p
    return _decide_columns(spec, "columns-0-to-p-covered", covered, spec.p)


_DECIDERS = {
    "diagonal": _decide_diagonal,
    "upper": _decide_upper,
    "lower": _decide_lower,
    "twosided-i": _decide_twosided_i,
    "twosided-ii": _decide_twosided_ii,
}


def decide_left_iorder(spec: SubsemigroupSpec) -> Decision:
    """Decide whether the described subsemigroup is a left I-order."""
    require_valid(spec)
    return _decision(spec.form, *_DECIDERS[spec.form](spec))


def hat_spec(spec: SubsemigroupSpec) -> SubsemigroupSpec:
    """The spec describing the diagonal reflection of the set.

    Upper and lower swap with identical parameters, the two two-sided
    forms swap (the square is reflection-fixed), and diagonal specs are
    fixed points.  An involution by construction.
    """
    require_valid(spec)
    if spec._mirror is None:
        return spec
    # the fields only: vars(spec) also holds the spec's cached row index
    return spec._mirror(**{f.name: getattr(spec, f.name) for f in fields(spec)})


def decide_right_iorder(spec: SubsemigroupSpec) -> Decision:
    """S is a right I-order iff its reflection is a left I-order.

    The reflection `hat_spec` builds has the spec's fields under the
    mirror class, and a decider reads the fields and the upper-orientation
    rows only, never the class, so the mirror form's decider runs on the
    spec itself.  Validation runs first, so a non-spec raises its
    TypeError before `_mirror` is read.
    """
    require_valid(spec)
    form = (spec._mirror or type(spec)).form
    return _decision(form, *_DECIDERS[form](spec))


def decision_lines(decision: Decision, side: str = "left") -> list[str]:
    """Machine-readable key=value rendering of a decision."""
    lines = [
        f"side={side}",
        f"verdict={'yes' if decision.verdict else 'no'}",
        f"form={decision.form}",
    ]
    for cond in decision.conditions:
        lines.append(f"condition.{cond.name}={'holds' if cond.holds else 'fails'}")
    if decision.certificate is not None:
        cert = decision.certificate
        lines.append(f"certificate.failed={cert.failed_condition}")
        if cert.uncovered is not None:
            lines.append(f"certificate.element={cert.uncovered}")
        if cert.reason is not None:
            lines.append(f"certificate.reason={cert.reason}")
    return lines
