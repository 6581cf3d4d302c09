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
inverse(x) * y can reach.  The right question reduces to the left one for
the reflected spec, since reflection is an anti-isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .elements import Element
from .subsemigroups import (
    Diagonal,
    Lower,
    SubsemigroupSpec,
    TwoSidedI,
    TwoSidedII,
    Upper,
    require_valid,
)

__all__ = [
    "Condition",
    "Certificate",
    "Decision",
    "decide_left_iorder",
    "decide_right_iorder",
    "hat_spec",
    "decision_lines",
]

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
    inverse(x) * y over the subsemigroup and can be confirmed against the
    brute-force coverage oracle.
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


def _decide_diagonal(spec: Diagonal) -> Decision:
    # Products of idempotents are idempotent, so inverse(x) * y stays on
    # the diagonal and (0, 1) is never reached.
    cond = Condition("contains-non-idempotent", False)
    cert = Certificate("contains-non-idempotent", Element(0, 1), REASON_IDEMPOTENTS_ONLY)
    return _decision(spec.form, (cond,), cert)


def _row0_gap(spec: Upper | TwoSidedI) -> Optional[int]:
    """Least h with (0, h) missing from S, or None.

    Let f count row 0's finite members, which the spec's row index holds
    apart from its progression.  A gap lies at or below f + 1: were
    columns 0 .. f + 1 all members, the progression would supply two of
    them, and then either (d = 1) every later column too, or (d > 1)
    leave a column between two of its terms to the finite parts, which
    sit at multiples of d (upper) or below the progression (two-sided
    (i)).  So one mask of f + 2 columns decides the row, however large
    p or the row thresholds.
    """
    width = len(spec._finite_columns.get(0, ())) + 2
    bits = spec.row_bits(0, 0, width)
    gap = (~bits & (bits + 1)).bit_length() - 1
    return gap if gap < width else None


def _decide_upper(spec: Upper) -> Decision:
    step = spec.row_indices.step
    has_row0 = 0 in spec.row_indices
    gap = _row0_gap(spec)
    conditions = (
        Condition("d-is-1", step == 1),
        Condition("row-0-in-indices", has_row0),
        Condition("row-0-prefix-covered", gap is None),
    )
    if all(c.holds for c in conditions):
        return _decision(spec.form, conditions, None)
    if step != 1:
        cert = Certificate("d-is-1", Element(0, 1), REASON_PARITY)
    else:
        assert gap is not None
        cert = Certificate(
            "row-0-in-indices" if not has_row0 else "row-0-prefix-covered",
            Element(0, gap),
            REASON_ROW0_GAP,
        )
    return _decision(spec.form, conditions, cert)


def _diagonal_indices(spec) -> frozenset[int]:
    return frozenset(e.i for e in spec.diagonal_part)


def _decide_lower(spec: Lower) -> Decision:
    step = spec.row_indices.step
    full = spec.row_indices.is_full()
    conditions = (
        Condition("d-is-1", step == 1),
        Condition("all-columns-present", full),
    )
    if all(c.holds for c in conditions):
        return _decision(spec.form, conditions, None)
    if step != 1:
        cert = Certificate("d-is-1", Element(0, 1), REASON_PARITY)
    else:
        # Any column index outside I whose diagonal point is not patched
        # by FD marks an empty L-class, so its idempotent is unreachable.
        # With d = 1, I holds every column from N on when R = {0}, and
        # column N, above FD's strip, is missing when R is empty, so the
        # columns 0 .. N hold the least one.
        idx = spec.row_indices
        patched = _diagonal_indices(spec)
        k = next((k for k in range(idx.start + 1) if k not in idx and k not in patched), None)
        uncovered = Element(k, k) if k is not None else None
        reason = REASON_EMPTY_L_CLASS if k is not None else None
        cert = Certificate("all-columns-present", uncovered, reason)
    return _decision(spec.form, conditions, cert)


def _decide_twosided_i(spec: TwoSidedI) -> Decision:
    gap = _row0_gap(spec)
    conditions = (
        Condition("d-is-1", spec.step == 1),
        Condition("q-is-0", spec.q == 0),
        Condition("identity-row-covered", gap is None),
    )
    if all(c.holds for c in conditions):
        return _decision(spec.form, conditions, None)
    if spec.step != 1:
        cert = Certificate("d-is-1", Element(0, 1), REASON_PARITY)
    else:
        assert gap is not None
        cert = Certificate("identity-row-covered", Element(0, gap), REASON_ROW0_GAP)
    return _decision(spec.form, conditions, cert)


def _decide_twosided_ii(spec: TwoSidedII) -> Decision:
    # Validation keeps I within {q, ..., p-1}, so I is all of {0, ..., p-1}
    # exactly when q = 0 and I has p members.
    conditions = (
        Condition("d-is-1", spec.step == 1),
        Condition("columns-0-to-p-covered", spec.q == 0 and len(spec.row_indices) == spec.p),
    )
    if all(c.holds for c in conditions):
        return _decision(spec.form, conditions, None)
    if spec.step != 1:
        cert = Certificate("d-is-1", Element(0, 1), REASON_PARITY)
    else:
        # A missing column below p is an empty L-class provided neither FD
        # nor the reflected triangle touches it.  Each column the scan
        # passes is in I, FD or a triangle row, which bounds the scan.
        touched = spec.row_indices | _diagonal_indices(spec) | {e.i for e in spec.triangle_part}
        m = next((m for m in range(spec.p) if m not in touched), None)
        uncovered = Element(m, m) if m is not None else None
        reason = REASON_EMPTY_L_CLASS if m is not None else None
        cert = Certificate("columns-0-to-p-covered", uncovered, reason)
    return _decision(spec.form, conditions, cert)


def decide_left_iorder(spec: SubsemigroupSpec) -> Decision:
    """Decide whether the described subsemigroup is a left I-order."""
    require_valid(spec)
    if isinstance(spec, Diagonal):
        return _decide_diagonal(spec)
    if isinstance(spec, Upper):
        return _decide_upper(spec)
    if isinstance(spec, Lower):
        return _decide_lower(spec)
    if isinstance(spec, TwoSidedI):
        return _decide_twosided_i(spec)
    if isinstance(spec, TwoSidedII):
        return _decide_twosided_ii(spec)
    raise TypeError(f"not a subsemigroup spec: {spec!r}")


_REFLECTION = {Upper: Lower, Lower: Upper, TwoSidedI: TwoSidedII, TwoSidedII: TwoSidedI}


def hat_spec(spec: SubsemigroupSpec) -> SubsemigroupSpec:
    """The spec describing the diagonal reflection of the set.

    Upper and lower swap with identical parameters, the two two-sided
    forms swap (the square is reflection-fixed), and diagonal specs are
    fixed points.  An involution by construction.
    """
    require_valid(spec)
    if isinstance(spec, Diagonal):
        return spec
    # the fields only: vars(spec) also holds the spec's cached row index
    return _REFLECTION[type(spec)](**{f.name: getattr(spec, f.name) for f in fields(spec)})


def decide_right_iorder(spec: SubsemigroupSpec) -> Decision:
    """S is a right I-order iff its reflection is a left I-order."""
    return decide_left_iorder(hat_spec(spec))


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
