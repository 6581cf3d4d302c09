import dataclasses
import random

import pytest

from bicyclic import (
    Certificate,
    Condition,
    Diagonal,
    Element,
    IndexSet,
    InvalidSpecError,
    Lower,
    RowData,
    TwoSidedI,
    TwoSidedII,
    Upper,
    contains,
    decide_left_iorder,
    decide_right_iorder,
    decision_lines,
    hat,
    hat_spec,
    inverse,
    multiply,
    parse_spec,
    validate,
)
from bicyclic import closure_falsify, iorder
from bicyclic.specfile import parse_spec_unchecked
from bicyclic.subsemigroups import _grid
import membership_oracle as oracle
from golden import NO_ENTRIES, VALID_ENTRIES, YES_ENTRIES
from test_cli_transcripts import random_spec_text
from test_row_masks import grid_cells, random_specs

fs = frozenset

R1 = Upper(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(0))
B_PLUS = Upper(fs(), IndexSet(fs(), fs({0}), 0, 1), RowData(0))
T2 = Lower(fs(), IndexSet(fs(), fs({0}), 0, 1), RowData(2))
COLUMN0 = Lower(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(0))
TS2_FULL = TwoSidedII(0, 2, 1, fs({0, 1}), fs({0}))


def test_decide_examples():
    assert decide_left_iorder(R1).verdict
    assert decide_left_iorder(B_PLUS).verdict
    assert decide_left_iorder(T2).verdict
    assert decide_left_iorder(TS2_FULL).verdict

    even = Upper(fs(), IndexSet(fs({0}), fs(), 1, 2), RowData(0))
    decision = decide_left_iorder(even)
    assert not decision.verdict
    assert decision.certificate.uncovered == Element(0, 1)
    assert decision.certificate.reason == "parity"

    decision = decide_left_iorder(COLUMN0)
    assert not decision.verdict
    assert decision.certificate.uncovered == Element(1, 1)
    assert decision.certificate.reason == "empty-L-class"


def test_decide_right_examples():
    assert decide_right_iorder(B_PLUS).verdict
    assert not decide_right_iorder(R1).verdict
    assert not decide_right_iorder(Diagonal(fs({Element(0, 0)}))).verdict


def test_right_is_left_of_reflection(corpus_specs):
    for spec in corpus_specs.values():
        assert decide_right_iorder(spec) == decide_left_iorder(hat_spec(spec))


def test_validation_is_blind_to_reflection():
    # decide_right_iorder checks the spec, then runs the mirror form's
    # decider on the spec itself: on valid and invalid random specs of all
    # five forms, the reflection built from the same fields reads the same
    # report and gets the same right decision
    rng = random.Random(71)
    seen = set()
    for _ in range(600):
        spec = parse_spec_unchecked(random_spec_text(rng))
        fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
        mirror = spec._mirror(**fields) if spec._mirror else spec
        report = validate(spec)
        assert validate(mirror) == report, spec
        if report.ok:
            assert hat_spec(spec) == mirror
            assert decide_right_iorder(spec) == decide_left_iorder(mirror)
        seen.add((spec.form, report.ok))
    assert len(seen) == 10


def test_b_plus_is_an_iorder():
    assert decide_left_iorder(B_PLUS).verdict
    assert decide_right_iorder(B_PLUS).verdict


def test_hat_spec_swaps_forms():
    assert isinstance(hat_spec(R1), Lower)
    assert hat_spec(R1) == Lower(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(0))
    swapped = hat_spec(TS2_FULL)
    assert isinstance(swapped, TwoSidedI)
    assert (swapped.q, swapped.p, swapped.step) == (0, 2, 1)
    diag = Diagonal(fs({Element(2, 2)}))
    assert hat_spec(diag) is diag


def test_hat_spec_involution_and_window_commutation(corpus_specs):
    for spec in corpus_specs.values():
        assert hat_spec(hat_spec(spec)) == spec
        mirrored = hat_spec(spec)
        for window in (5, 12):
            assert grid_cells(mirrored, window + 1, window + 1) == {
                hat(e) for e in grid_cells(spec, window + 1, window + 1)
            }


def test_verdict_matches_conditions(corpus_specs):
    for spec in corpus_specs.values():
        decision = decide_left_iorder(spec)
        assert decision.verdict == all(c.holds for c in decision.conditions)
        assert (decision.certificate is None) == decision.verdict
        if decision.certificate is not None:
            failed = {c.name for c in decision.conditions if not c.holds}
            assert decision.certificate.failed_condition in failed


def test_yes_specs_have_unit_step(corpus_specs):
    for entry in YES_ENTRIES:
        spec = corpus_specs[entry.name]
        assert spec.step == 1


def test_yes_specs_meet_every_column(corpus_specs):
    # a left I-order meets every L-class; checked on the window
    for entry in YES_ENTRIES:
        spec = corpus_specs[entry.name]
        members = oracle.members(spec, 41, 41)
        for k in range(13):
            assert any(e.j == k for e in members), (entry.name, k)


def test_yes_specs_have_tiny_diagonal_part(corpus_specs):
    for entry in YES_ENTRIES:
        spec = corpus_specs[entry.name]
        assert spec.diagonal_part <= fs({Element(0, 0)})


def _pair_window_bound(spec, c):
    p = getattr(spec, "p", 0)
    m_default = spec.rows.m_default if hasattr(spec, "rows") else 0
    return 3 * (c.i + c.j + p + m_default + 4)


def test_negative_certificates_are_uncovered(corpus_specs):
    # kernel-free brute force straight from the definition
    for entry in NO_ENTRIES:
        spec = corpus_specs[entry.name]
        cert = decide_left_iorder(spec).certificate
        assert cert is not None and cert.uncovered is not None, entry.name
        c = cert.uncovered
        bound = _pair_window_bound(spec, c)
        members = sorted(oracle.members(spec, bound + 1, bound + 1))
        for x in members:
            for y in members:
                assert multiply(inverse(x), y) != c, (entry.name, x, y)


def test_expected_corpus_decisions(corpus_specs):
    for entry in VALID_ENTRIES:
        decision = decide_left_iorder(corpus_specs[entry.name])
        assert decision.verdict == entry.left_verdict, entry.name
        if not entry.left_verdict:
            assert decision.certificate.uncovered == entry.cert_element, entry.name
            assert decision.certificate.reason == entry.cert_reason, entry.name


def test_lower_certificate_skips_diagonal_part():
    # FD patches the missing columns, so no sound element certificate exists.
    spec = Lower(
        fs({Element(0, 0), Element(1, 1), Element(2, 2)}),
        IndexSet(fs(), fs({0}), 2, 1),
        RowData(0),
    )
    decision = decide_left_iorder(spec)
    assert not decision.verdict
    assert decision.certificate is not None
    assert decision.certificate.uncovered is None


# Every constant that test_random_specs' generators draw is below 20.
CERT_WINDOW = 20


def _column_members(spec, k):
    return [i for i in range(CERT_WINDOW) if oracle.contains(spec, Element(i, k))]


def test_random_certificates_mean_what_they_say():
    # Each "no" is checked against the element oracle for what its reason
    # claims, on both sides, so a certificate that is well formed but points
    # at the wrong element fails here.
    reasons = {}
    for spec in random_specs(11, 900):
        for decided in (spec, hat_spec(spec)):
            decision = decide_left_iorder(decided)
            if decision.verdict:
                continue
            cert = decision.certificate
            assert cert.failed_condition in {c.name for c in decision.conditions if not c.holds}
            reasons[cert.reason] = reasons.get(cert.reason, 0) + 1
            c = cert.uncovered
            if cert.reason == "parity":
                assert decided.step != 1, decided
            elif cert.reason == "idempotents-only":
                assert isinstance(decided, Diagonal), decided
            elif cert.reason == "row0-gap":
                assert c.i == 0, decided
                assert not oracle.contains(decided, c), decided
                assert all(oracle.contains(decided, Element(0, j)) for j in range(c.j)), decided
            elif cert.reason == "empty-L-class":
                assert c.i == c.j, decided
                assert not _column_members(decided, c.j), decided
                assert all(_column_members(decided, j) for j in range(c.j)), decided
            else:
                assert cert.reason is None and c is None, decided
    assert all(reasons.get(r) for r in ("parity", "idempotents-only", "row0-gap", "empty-L-class")), reasons


# Right verdicts are checked against x * inverse(y) scanned on the spec's
# own rows, with neither `hat_spec` nor the left deciders.  With
# x = (a, b) and y = (c, e), x * inverse(y) = (a - b + t, c - e + t),
# t = max(b, e): its row is >= a and its column >= c, so window products
# come from rows 0 .. RIGHT_WINDOW alone, and they have |b - e| <= the
# window.  Past their last finite column or progression start L, those
# rows repeat with period d, so a pair with both columns above L + d
# moves left by d to a pair with the same product; random_specs keeps
# L + d below 20, so RIGHT_COLUMNS holds every pair that cannot.
RIGHT_WINDOW = 8
RIGHT_COLUMNS = 80


def _right_reached(spec):
    """The cells (i, j) of the window that some x * inverse(y) reaches."""
    rows = _grid(spec, RIGHT_WINDOW + 1, RIGHT_COLUMNS)
    reached = set()
    for a, x_row in enumerate(rows):
        for c, y_row in enumerate(rows):
            # s = b - e: the product is (a, c + s) for s >= 0, else (a - s, c)
            for s in range(RIGHT_WINDOW - c + 1):
                if x_row & (y_row << s):
                    reached.add((a, c + s))
            for s in range(1, RIGHT_WINDOW - a + 1):
                if (x_row << s) & y_row:
                    reached.add((a + s, c))
    return reached


def test_right_verdicts_against_a_direct_scan():
    window = {(i, j) for i in range(RIGHT_WINDOW + 1) for j in range(RIGHT_WINDOW + 1)}
    closed = yes = 0
    for spec in random_specs(31, 600):
        if closure_falsify(spec, 12) is not None:
            continue
        closed += 1
        missing = window - _right_reached(spec)
        decision = decide_right_iorder(spec)
        assert decision.verdict == (not missing), (spec, sorted(missing)[:3])
        yes += decision.verdict
        c = None if decision.verdict else decision.certificate.uncovered
        if c is not None and (c.i, c.j) in window:
            assert (c.i, c.j) in missing, (spec, c)
    assert closed > 400 and yes > 20, (closed, yes)


def test_decision_lines_format():
    lines = decision_lines(decide_left_iorder(COLUMN0))
    assert "side=left" in lines
    assert "verdict=no" in lines
    assert "form=lower" in lines
    assert "certificate.element=(1,1)" in lines
    assert "certificate.reason=empty-L-class" in lines


def test_decide_rejects_invalid_spec():
    with pytest.raises(InvalidSpecError):
        decide_left_iorder(TwoSidedI(1, 3, 1, fs({2}), fs({0})))


def test_verdict_and_certificate_must_agree():
    # an explicit check, so it still runs under python -O
    holds = (Condition("c", True),)
    fails = (Condition("c", False),)
    with pytest.raises(RuntimeError, match="disagrees"):
        iorder._decision("upper", holds, Certificate("c", Element(0, 1)))
    with pytest.raises(RuntimeError, match="disagrees"):
        iorder._decision("upper", fails, None)
