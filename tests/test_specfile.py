import pytest

from bicyclic import (
    Diagonal,
    Element,
    Lower,
    TwoSidedII,
    Upper,
    parse_spec,
    parse_spec_unchecked,
    validate,
)
from bicyclic.specfile import SpecSyntaxError, SpecValidationError
from golden import CORPUS, INVALID_ENTRIES, VALID_ENTRIES
from test_cli import INT_STR_DIGITS, needs_int_str_limit
from test_row_masks import grid_cells

R1_TEXT = "form=upper\nd=1\nN=1\nI0=0\nrow=0 m=0 F="


def test_parse_r1():
    spec = parse_spec(R1_TEXT)
    assert isinstance(spec, Upper)
    assert grid_cells(spec, 4, 4) == {Element(0, j) for j in range(4)}


def test_parse_diagonal():
    spec = parse_spec("form=diagonal\nelements=(0,0),(3,3)")
    assert isinstance(spec, Diagonal)
    assert spec.elements == frozenset({Element(0, 0), Element(3, 3)})
    assert spec.tail is None


def test_validation_error_carries_violation():
    with pytest.raises(SpecValidationError) as excinfo:
        parse_spec("form=twosided-i\nq=1\np=3\nd=1\nI=2\nP=0")
    assert any("q in I fails" in v for v in excinfo.value.violations)


def test_comments_and_blank_lines():
    spec = parse_spec("# header\n\nform=upper  # trailing\nd=1\nN=1\nI0=0\n")
    assert isinstance(spec, Upper)


def test_row_lines_build_overrides():
    text = "form=upper\nd=1\nN=1\nI0=0\nrow=0 m=3 F=(0,0),(0,1),(0,2)"
    spec = parse_spec(text)
    ov = spec.rows.override_for(0)
    assert ov.m == 3
    assert ov.extra == frozenset({Element(0, 0), Element(0, 1), Element(0, 2)})


def test_diagonal_tail_round_trip():
    spec = parse_spec("form=diagonal\nelements=(1,1)\ntail_N=4 tail_d=2 tail_r=0")
    assert spec.tail is not None
    members = grid_cells(spec, 9, 9)
    assert members == {Element(1, 1), Element(4, 4), Element(6, 6), Element(8, 8)}


class TestSyntaxErrors:
    def test_unknown_key(self):
        with pytest.raises(SpecSyntaxError) as excinfo:
            parse_spec("form=upper\nd=1\nN=1\nI0=0\nbogus=3")
        assert "bogus" in str(excinfo.value)
        assert excinfo.value.line_no == 5

    def test_key_for_wrong_form(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("form=upper\nd=1\nN=1\nI0=0\nq=0")

    def test_missing_form(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("d=1\nN=1")

    def test_unknown_form(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("form=slanted")

    def test_duplicate_key(self):
        with pytest.raises(SpecSyntaxError) as excinfo:
            parse_spec("form=upper\nd=1\nd=2\nN=1\nI0=0")
        assert excinfo.value.line_no == 3

    def test_bad_integer(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("form=upper\nd=one\nN=1\nI0=0")

    def test_non_ascii_integers(self):
        # "²" passes str.isdigit but not int(); "٣" is read by int() but
        # is no ASCII digit
        cases = (
            ("form=upper\nd=\u00b2\nN=1\nI0=0", "line 2: d "),
            ("form=upper\nd=1\nN=1\nI0=0,\u00b2", "line 4: I0 "),
            ("form=twosided-i\nq=0\np=1\nd=1\nI=0\nP=\u0663", "line 6: P "),
            ("form=diagonal\nelements=(\u0663,\u0663)", "line 2: elements "),
        )
        for text, message in cases:
            with pytest.raises(SpecSyntaxError, match=message):
                parse_spec_unchecked(text)

    @needs_int_str_limit
    def test_integers_beyond_the_int_string_limit(self):
        # int() refuses one digit more than the interpreter's limit
        digits = "1" * (INT_STR_DIGITS + 1)
        cases = (
            ("form=upper\nd=" + digits + "\nN=1\nI0=0", "line 2: d has too many digits"),
            ("form=diagonal\nelements=(0," + digits + ")", "line 2: elements has too many digits"),
        )
        for text, message in cases:
            with pytest.raises(SpecSyntaxError, match=rf"{message} \({len(digits)}\)$"):
                parse_spec_unchecked(text)

    def test_bad_element_list(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("form=diagonal\nelements=(0 0)")

    def test_missing_required_key(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("form=twosided-i\nq=0\np=2\nd=1\nI=0,1")

    def test_row_line_needs_m(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("form=upper\nd=1\nN=1\nI0=0\nrow=0 F=(0,0)")

    def test_row_line_on_wrong_form(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("form=diagonal\nelements=(0,0)\nrow=0 m=1")

    def test_partial_tail(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("form=diagonal\nelements=(0,0)\ntail_N=4")

    def test_not_key_value(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("form=upper\nd=1\nN=1\nI0=0\njust some words")


def test_corpus_validity_outcomes():
    for entry in CORPUS:
        spec = parse_spec_unchecked(entry.text())
        assert spec.form == entry.form, entry.name
        report = validate(spec)
        assert report.ok == entry.valid, entry.name
        if not entry.valid:
            assert any(entry.violation in v for v in report.violations), entry.name


def test_corpus_valid_files_parse():
    for entry in VALID_ENTRIES:
        spec = parse_spec(entry.text())
        assert spec.form == entry.form


def test_corpus_invalid_files_raise():
    for entry in INVALID_ENTRIES:
        with pytest.raises(SpecValidationError):
            parse_spec(entry.text())
