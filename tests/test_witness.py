import random

import pytest

from bicyclic import (
    Element,
    IndexSet,
    Lower,
    NotLeftIOrderError,
    RowData,
    RowOverride,
    TwoSidedII,
    Upper,
    decide_left_iorder,
    decompose,
    multiply,
    verify_witness,
)
from bicyclic import witness
from bicyclic.witness import Witness, _maxplus, _tropical
from golden import YES_ENTRIES
from rewriting_oracle import multiply_via_rewriting

fs = frozenset

R1 = Upper(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(0))
B_PLUS = Upper(fs(), IndexSet(fs(), fs({0}), 0, 1), RowData(0))
T2 = Lower(fs(), IndexSet(fs(), fs({0}), 0, 1), RowData(2))
TS2_FULL = TwoSidedII(0, 2, 1, fs({0, 1}), fs({0}))


def test_decompose_examples():
    w = decompose(R1, Element(3, 5))
    assert (w.x, w.y, w.scheme) == (Element(0, 3), Element(0, 5), "row0")

    w = decompose(T2, Element(1, 0))
    assert (w.x, w.y, w.scheme) == (Element(3, 1), Element(3, 0), "lower")

    w = decompose(TS2_FULL, Element(1, 1))
    assert (w.x, w.y, w.scheme) == (Element(4, 1), Element(4, 1), "twosided-ii")

    w = decompose(B_PLUS, Element(2, 2))
    assert (w.x, w.y) == (Element(0, 2), Element(0, 2))


def test_verify_witness_examples():
    good = Witness(Element(3, 5), Element(0, 3), Element(0, 5), "row0")
    assert verify_witness(R1, good)
    outside = Witness(Element(3, 5), Element(0, 3), Element(1, 5), "row0")
    assert not verify_witness(R1, outside)
    wrong_product = Witness(Element(3, 5), Element(0, 4), Element(0, 5), "row0")
    assert not verify_witness(R1, wrong_product)


def test_maxplus_image_is_a_faithful_product():
    # a^i b^j maps to (i - j, i + j - 1, j - i), which determines (i, j),
    # and products map to products: against the coordinate formula and
    # the rewriting oracle on small pairs, against the formula far out
    rng = random.Random(1729)
    for _ in range(3000):
        top = rng.choice((30, 10**15))
        x = Element(rng.randint(0, top), rng.randint(0, top))
        y = Element(rng.randint(0, top), rng.randint(0, top))
        xy = multiply(x, y)
        image = _maxplus(_tropical(x.i, x.j), _tropical(y.i, y.j))
        assert image == _tropical(xy.i, xy.j) == (xy.i - xy.j, xy.i + xy.j - 1, xy.j - xy.i)
        if top == 30:
            rewritten = multiply_via_rewriting(x, y)
            assert image == _tropical(rewritten.i, rewritten.j)


def test_maxplus_check_catches_a_wrong_formula(monkeypatch):
    # with the coordinate formula patched to agree with any claim, the
    # max-plus image alone still refuses a wrong product, far out too
    for q, x, y, ok in (
        (Element(3, 5), Element(0, 4), Element(0, 5), False),
        (Element(10**12, 5), Element(0, 10**12 + 1), Element(0, 5), False),
        (Element(10**12, 5), Element(0, 10**12), Element(0, 5), True),
    ):
        monkeypatch.setattr(witness, "multiply", lambda a, b, q=q: q)
        assert verify_witness(R1, Witness(q, x, y, "row0")) == ok, q


def test_straight_and_correct_on_corpus(corpus_specs):
    for entry in YES_ENTRIES:
        spec = corpus_specs[entry.name]
        for i in range(13):
            for j in range(13):
                q = Element(i, j)
                w = decompose(spec, q)
                assert w.x.i == w.y.i, (entry.name, q)
                assert verify_witness(spec, w), (entry.name, q)


def test_witness_growth_bound(corpus_specs):
    # coordinates stay below 2*(q.i + q.j) + p + m_default + largest row m
    for entry in YES_ENTRIES:
        spec = corpus_specs[entry.name]
        p = getattr(spec, "p", 0)
        rows = getattr(spec, "rows", None)
        m_extra = max([rows.m_default] + [ov.m for ov in rows.overrides]) if rows is not None else 0
        for i in range(13):
            for j in range(13):
                w = decompose(spec, Element(i, j))
                bound = 2 * (i + j) + p + m_extra
                for coord in (w.x.i, w.x.j, w.y.i, w.y.j):
                    assert coord <= bound, (entry.name, w)


def _coordinate(rng, rows):
    return rng.choice((rng.randint(0, 12), rng.randint(0, 10**12), rng.choice(rows)))


def test_reflected_lifts_keep_their_formulas():
    # the reflected forms lift by their rows' progression starts; on yes
    # specs those are the row thresholds (lower) and p (two-sided (ii))
    rng = random.Random(30)
    for case in range(400):
        if case % 2:
            start = rng.randint(0, 4)
            rows = rng.sample(range(12), 3) + [rng.randint(0, 10**12)]
            overrides = []
            for row in rows:
                m = row + rng.choice((rng.randint(0, 9), rng.randint(0, 10**12)))
                extra = fs(Element(row, j) for j in rng.sample(range(row, row + 12), rng.randint(0, 3)))
                overrides.append(RowOverride(row, m, extra))
            fd = fs({Element(0, 0)}) if rng.random() < 0.5 else fs()
            spec = Lower(fd, IndexSet(fs(range(start)), fs({0}), start, 1), RowData(rng.randint(0, 6), tuple(overrides)))

            def lift(m, n, spec=spec):
                return m + n + max(spec.rows.threshold(m), spec.rows.threshold(n))

        else:
            p = rng.randint(1, 10)
            rows = list(range(p + 2))
            triangle = fs(Element(i, j) for i in range(p) for j in range(i, p) if rng.random() < 0.3)
            fd = fs({Element(0, 0)}) if rng.random() < 0.5 else fs()
            spec = TwoSidedII(0, p, 1, fs(range(p)), fs({0}), fd, triangle)

            def lift(m, n, p=p):
                return p + m + n

        assert decide_left_iorder(spec).verdict, spec
        for _ in range(5):
            q = Element(_coordinate(rng, rows), _coordinate(rng, rows))
            row = lift(q.i, q.j)
            assert decompose(spec, q) == Witness(q, Element(row, q.i), Element(row, q.j), spec.form), (spec, q)


def test_decompose_refuses_non_iorders():
    column0 = Lower(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(0))
    with pytest.raises(NotLeftIOrderError) as excinfo:
        decompose(column0, Element(2, 2))
    decision = excinfo.value.decision
    assert not decision.verdict
    assert decision.certificate.uncovered == Element(1, 1)


def test_witness_print_format():
    w = decompose(R1, Element(3, 5))
    assert str(w) == "q=(3,5) x=(0,3) y=(0,5) scheme=row0"
