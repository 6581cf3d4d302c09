import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import bicyclic
from bicyclic import (
    Diagonal,
    DiagonalTail,
    Element,
    IndexSet,
    InvalidSpecError,
    Lower,
    RowData,
    RowOverride,
    TwoSidedI,
    TwoSidedII,
    Upper,
    closure_falsify,
    contains,
    decide_left_iorder,
    decide_right_iorder,
    hat,
    hat_spec,
    multiply,
    validate,
)
from bicyclic import _cover
from bicyclic.coverage import coverage, default_pair_bound
from bicyclic.iorder import _DECIDERS
from bicyclic.specfile import _CLASSES
from bicyclic.subsemigroups import _grid
from test_row_masks import grid_cells, random_specs

fs = frozenset

R1 = Upper(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(0))
B_PLUS = Upper(fs(), IndexSet(fs(), fs({0}), 0, 1), RowData(0))


class TestIndexSet:
    def test_membership(self):
        idx = IndexSet(fixed=fs({1, 4, 7}), residues=fs(), start=8, step=3)
        assert 4 in idx and 7 in idx
        assert 0 not in idx and 8 not in idx and 100 not in idx
        idx = IndexSet(fixed=fs({0}), residues=fs({1}), start=5, step=2)
        assert 0 in idx and 5 in idx and 7 in idx
        assert 1 not in idx and 3 not in idx and 6 not in idx

    def test_is_full(self):
        assert IndexSet(fs(), fs({0}), 0, 1).is_full()
        assert IndexSet(fs({0, 1}), fs({0}), 2, 1).is_full()
        assert not IndexSet(fs({0}), fs(), 1, 1).is_full()
        assert not IndexSet(fs({0}), fs({0}), 2, 1).is_full()

    def test_min(self):
        assert IndexSet(fs({3}), fs({1}), 6, 4).min() == 3
        assert IndexSet(fs(), fs({1}), 6, 4).min() == 9
        assert IndexSet(fs(), fs(), 0, 1).min() is None


class TestValidate:
    def test_q_in_i_violation(self):
        spec = TwoSidedI(1, 3, 1, fs({2}), fs({0}))
        report = validate(spec)
        assert not report.ok
        assert any("q in I fails" in v for v in report.violations)

    def test_small_upper_ok(self):
        spec = Upper(fs({Element(0, 0)}), IndexSet(fs({0}), fs(), 1, 1), RowData(0))
        assert validate(spec).ok

    def test_zero_in_p_violation(self):
        spec = TwoSidedI(0, 1, 2, fs({0}), fs({1}))
        report = validate(spec)
        assert any("0 in P fails" in v for v in report.violations)

    def test_strip_reading_is_noted(self):
        spec = Upper(fs({Element(0, 0)}), IndexSet(fs({0}), fs(), 1, 1), RowData(0))
        assert any("column strip" in note for note in validate(spec).notes)

    def test_empty_index_set_rejected(self):
        spec = Upper(fs(), IndexSet(fs(), fs(), 0, 1), RowData(0))
        assert any("I nonempty fails" in v for v in validate(spec).violations)

    def test_override_outside_index_set(self):
        spec = Upper(
            fs(), IndexSet(fs({0}), fs(), 1, 1),
            RowData(0, (RowOverride(5, 5, fs()),)),
        )
        assert any("override rows within I fails" in v for v in validate(spec).violations)

    def test_diagonal_violations(self):
        assert any(
            "off the diagonal" in v
            for v in validate(Diagonal(fs({Element(1, 2)}))).violations
        )
        assert any(
            "empty set" in v for v in validate(Diagonal(fs())).violations
        )
        report = validate(Diagonal(fs({Element(1, 1)}), DiagonalTail(4, 2, 3)))
        assert any("tail_r" in v for v in report.violations)

    def test_index_set_bounds(self):
        spec = Upper(fs(), IndexSet(fs({3}), fs(), 2, 1), RowData(0))
        assert any("I0 within" in v for v in validate(spec).violations)
        spec = Upper(fs(), IndexSet(fs(), fs({2}), 0, 2), RowData(0))
        assert any("R within" in v for v in validate(spec).violations)

    @pytest.mark.parametrize(
        "spec, violation",
        [
            (Upper(fs(), IndexSet(fs(), fs({0}), -1, 1), RowData(0)), "N >= 0 fails: N=-1"),
            (Upper(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(-1)), "default_m >= 0 fails: default_m=-1"),
            (
                Upper(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(0, (RowOverride(0, -2),))),
                "row m >= 0 fails: m=-2 on row 0",
            ),
            (TwoSidedI(-1, 2, 1, fs({-1}), fs({0})), "q >= 0 fails: q=-1"),
            (Diagonal(fs({Element(0, 0)}), DiagonalTail(-2, 1, 0)), "tail_N >= 0 fails: tail_N=-2"),
        ],
        ids=["N", "default_m", "row-m", "q", "tail_N"],
    )
    def test_negative_parameters(self, spec, violation):
        assert validate(spec).violations == (violation,)

    def test_non_spec_is_refused(self):
        for call in (validate, decide_left_iorder, decide_right_iorder):
            with pytest.raises(TypeError, match=r"^not a subsemigroup spec: \(0, 1\)$"):
                call((0, 1))

    def test_invalid_spec_blocks_operations(self):
        spec = TwoSidedI(1, 3, 1, fs({2}), fs({0}))
        with pytest.raises(InvalidSpecError):
            contains(spec, Element(0, 0))
        with pytest.raises(InvalidSpecError):
            closure_falsify(spec, 3)


class TestContains:
    def test_twosided_row_tail(self):
        spec = TwoSidedI(0, 3, 1, fs({0, 2}), fs({0}), fs(), fs({Element(0, 1)}))
        assert contains(spec, Element(2, 5))

    def test_r1_membership(self):
        assert contains(R1, Element(0, 9))
        assert not contains(R1, Element(1, 1))

    def test_diagonal_tail_membership(self):
        spec = Diagonal(fs({Element(1, 1)}), DiagonalTail(4, 2, 0))
        assert contains(spec, Element(1, 1))
        assert contains(spec, Element(6, 6))
        assert not contains(spec, Element(5, 5))
        assert not contains(spec, Element(2, 2))


class TestEnumerateWindow:
    """Window members, read off the row-mask grid."""

    def test_r1_window(self):
        assert grid_cells(R1, 4, 4) == {
            Element(0, 0), Element(0, 1), Element(0, 2), Element(0, 3)
        }

    def test_window_excludes_everything(self):
        assert grid_cells(Diagonal(fs({Element(1, 1)})), 1, 1) == set()

    def test_b_plus_window(self):
        assert grid_cells(B_PLUS, 2, 2) == {
            Element(0, 0), Element(0, 1), Element(1, 1)
        }

    def test_agrees_with_contains_on_corpus(self, corpus_specs):
        for spec in corpus_specs.values():
            members = grid_cells(spec, 10, 10)
            for i in range(10):
                for j in range(10):
                    e = Element(i, j)
                    assert (e in members) == contains(spec, e)


class TestClosureFalsify:
    def test_r1_closed(self):
        assert closure_falsify(R1, 10) is None

    def test_single_row_closed(self):
        spec = Upper(fs(), IndexSet(fs({1}), fs(), 2, 1), RowData(1))
        assert closure_falsify(spec, 5) is None

    def test_unclosed_triangle_choice(self):
        # (0,1) in F but row 1 missing: some product must escape.
        spec = TwoSidedI(0, 2, 1, fs({0}), fs({0}), fs(), fs({Element(0, 1)}))
        failure = closure_falsify(spec, 6)
        assert failure is not None
        assert multiply(failure.x, failure.y) == failure.product
        assert contains(spec, failure.x) and contains(spec, failure.y)
        assert not contains(spec, failure.product)

    def test_corpus_closed_at_12(self, corpus_specs):
        for name, spec in corpus_specs.items():
            assert closure_falsify(spec, 12) is None, name


class TestShapeInvariants:
    def test_upper_above_lower_below(self, corpus_specs):
        for spec in corpus_specs.values():
            members = grid_cells(spec, 13, 13)
            if isinstance(spec, Upper):
                assert all(e.j >= e.i for e in members)
            if isinstance(spec, Lower):
                assert all(e.i >= e.j for e in members)

    def test_lower_is_hat_image_of_upper(self, corpus_specs):
        for spec in corpus_specs.values():
            if isinstance(spec, Lower):
                mirrored = Upper(spec.diagonal_part, spec.row_indices, spec.rows)
                assert grid_cells(spec, 13, 13) == {hat(e) for e in grid_cells(mirrored, 13, 13)}

    def test_step_divides_coordinate_difference(self, corpus_specs):
        for spec in corpus_specs.values():
            if isinstance(spec, Diagonal):
                continue
            for e in grid_cells(spec, 13, 13):
                assert (e.j - e.i) % spec.step == 0


# One spec per form, with the repr each had before the form facts moved
# onto the classes.
FORM_SPECS = {
    "diagonal": (
        Diagonal(fs({Element(1, 1)}), DiagonalTail(2, 3, 2)),
        "Diagonal(elements=frozenset({Element(i=1, j=1)}), "
        "tail=DiagonalTail(start=2, step=3, residue=2))",
    ),
    "upper": (
        Upper(fs(), IndexSet(fs({0}), fs({1}), 1, 2), RowData(1, (RowOverride(1, 3, fs({Element(1, 5)})),))),
        "Upper(diagonal_part=frozenset(), row_indices=IndexSet(fixed=frozenset({0}), "
        "residues=frozenset({1}), start=1, step=2), rows=RowData(m_default=1, "
        "overrides=(RowOverride(row=1, m=3, extra=frozenset({Element(i=1, j=5)})),)))",
    ),
    "lower": (
        Lower(fs(), IndexSet(fs(), fs({0}), 0, 1), RowData(2)),
        "Lower(diagonal_part=frozenset(), row_indices=IndexSet(fixed=frozenset(), "
        "residues=frozenset({0}), start=0, step=1), rows=RowData(m_default=2, overrides=()))",
    ),
    "twosided-i": (
        TwoSidedI(0, 2, 2, fs({0}), fs({0}), fs({Element(0, 0)}), fs({Element(0, 1)})),
        "TwoSidedI(q=0, p=2, step=2, row_indices=frozenset({0}), offsets=frozenset({0}), "
        "diagonal_part=frozenset({Element(i=0, j=0)}), triangle_part=frozenset({Element(i=0, j=1)}))",
    ),
    "twosided-ii": (
        TwoSidedII(0, 1, 1, fs({0}), fs({0})),
        "TwoSidedII(q=0, p=1, step=1, row_indices=frozenset({0}), offsets=frozenset({0}), "
        "diagonal_part=frozenset(), triangle_part=frozenset())",
    ),
}
ROW_FIELDS = ("diagonal_part", "row_indices", "rows")
TWO_SIDED_FIELDS = ("q", "p", "step", "row_indices", "offsets", "diagonal_part", "triangle_part")
MIRRORS = {
    "diagonal": "diagonal",
    "upper": "lower",
    "lower": "upper",
    "twosided-i": "twosided-ii",
    "twosided-ii": "twosided-i",
}


class TestFormData:
    """The facts other modules read off a spec's class stay out of its fields."""

    def test_fields(self):
        expected = {
            Diagonal: ("elements", "tail"),
            Upper: ROW_FIELDS,
            Lower: ROW_FIELDS,
            TwoSidedI: TWO_SIDED_FIELDS,
            TwoSidedII: TWO_SIDED_FIELDS,
        }
        for cls, names in expected.items():
            fields = tuple(f.name for f in dataclasses.fields(cls))
            assert fields == names, cls
            for fact in ("form", "reflected", "_mirror", "_corner"):
                assert fact not in fields and hasattr(cls, fact), (cls, fact)

    def test_repr_and_pickle(self):
        for form, (spec, text) in FORM_SPECS.items():
            assert validate(spec).ok and spec.form == form
            spec.row_bits(0, 0, 8)  # fill the cached row index first
            copy = pickle.loads(pickle.dumps(spec))
            assert repr(spec) == repr(copy) == text
            assert copy == spec and hash(copy) == hash(spec) and type(copy) is type(spec)

    def test_pickled_report_and_hash_hold_under_another_hash_seed(self):
        # After `validate` and `hash`, a spec carries its report, and an
        # upper spec its rows' hash, in `__dict__`.  Both hash ints only, so
        # a process with another hash seed unpickles a spec equal to a fresh
        # one, with the same `repr`, report and hash.
        cases = []
        for spec, text in FORM_SPECS.values():
            validate(spec)
            cases.append((spec, text, hash(spec)))
        upper = FORM_SPECS["upper"][0]
        assert "_report" in vars(upper) and "_hash" in vars(upper.rows)
        script = (
            "import pickle, sys\n"
            "from bicyclic.elements import Element\n"
            "from bicyclic.subsemigroups import *\n"
            "cases = pickle.load(sys.stdin.buffer)\n"
            "for copy, text, parent_hash in cases:\n"
            "    fresh = eval(text)\n"
            "    assert copy == fresh and repr(copy) == text, text\n"
            "    assert validate(copy) is vars(copy)['_report'], text\n"
            "    assert validate(copy) == validate(fresh), text\n"
            "    assert hash(copy) == hash(fresh) == parent_hash, text\n"
            "print(len(cases))\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = Path(bicyclic.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(cases), env=env, capture_output=True
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == f"{len(cases)}\n".encode()

    def test_mirrors(self):
        for form, (spec, _) in FORM_SPECS.items():
            mirrored = hat_spec(spec)
            assert mirrored.form == MIRRORS[form]
            assert hat_spec(mirrored) == spec
        diagonal = FORM_SPECS["diagonal"][0]
        assert hat_spec(diagonal) is diagonal

    def test_one_decider_per_form(self):
        assert set(_DECIDERS) == set(_CLASSES)

    def test_row_trim_and_corner(self):
        # on the forms that are not reflected, coverage on rows 0 .. window
        # equals a scan of every row up to the default pair bound; on the
        # reflected ones, some spec shows that those rows fall short
        short = set()
        for n, spec in enumerate(random_specs(41, 300)):
            window = n % 11
            full = _cover.cover_grid(_grid(spec, default_pair_bound(spec, window) + 1, window + 1), window)
            if not spec.reflected:
                assert list(coverage(spec, window).rows) == full, spec
            elif _cover.cover_grid(_grid(spec, window + 1, window + 1), window) != full:
                short.add(spec.form)
            if spec.form == "diagonal":
                assert spec._corner == 0
            elif spec.form in ("upper", "lower"):
                assert spec._corner == spec.rows.m_default
            else:
                assert spec._corner == spec.p
        assert short == {"lower", "twosided-ii"}
