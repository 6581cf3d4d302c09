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


# A spec with several faults reports the first in the order that the
# specfile module's docstring states.
FIRST_FAULT = {
    "form=upper\nI0=x": "line 2: I0 expects comma-separated integers, got 'x'",
    "form=upper\nd=1": "form=upper requires N=<...>",
    "form=upper\nN=1 default_m=x FD=bad": "form=upper requires d=<...>",
    "form=upper\nd=1 N=1 default_m=x FD=bad": "line 2: default_m expects a nonnegative integer, got 'x'",
    "form=upper\nd=1 N=1 R=y FD=bad default_m=z": "line 2: R expects comma-separated integers, got 'y'",
    "form=upper\nd=x N=y": "line 2: N expects a nonnegative integer, got 'y'",
    "form=lower\nzz=1": "line 2: unknown key 'zz' for form=lower",
    "form=twosided-i\nP=x": "form=twosided-i requires q=<...>",
    "form=twosided-ii\nq=0 p=x": "line 2: p expects a nonnegative integer, got 'x'",
    "form=twosided-i\nq=0 p=2 d=1 P=x": "form=twosided-i requires I=<...>",
    "form=twosided-i\nq=0 p=0 d=z I=x": "line 2: d expects a nonnegative integer, got 'z'",
    "form=twosided-i\nq=0 p=0 d=1 I=0 P=0 FD=bad F=bad2": (
        "line 2: FD expects elements like (0,0),(1,2) with no spaces, got 'bad'"
    ),
    "form=diagonal\nelements=bad tail_N=1": (
        "line 2: elements expects elements like (0,0),(1,2) with no spaces, got 'bad'"
    ),
    "form=diagonal\ntail_N=x tail_d=1": "tail needs all of tail_N, tail_d, tail_r",
    "form=diagonal\ntail_N=1 tail_d=x tail_r=y": "line 2: tail_d expects a nonnegative integer, got 'x'",
    "form=upper\nrow=1 m=x\nrow=1 zz=1": "line 2: m expects a nonnegative integer, got 'x'",
    "form=upper\nrow=1 m=1 zz=1 m=2": "line 2: unknown key 'zz' on row line",
    "form=upper\nrow=1 m=1 m=x": "line 2: duplicate key 'm' on row line",
    "form=diagonal\nrow=0 m=0 zz=1": "line 2: unknown key 'zz' on row line",
    "form=diagonal\nzz=1\nrow=0 m=0": "line 2: unknown key 'zz' for form=diagonal",
    "d=1\nform=nope zz=1": "line 2: unknown form 'nope'",
    "zz=1\nrow=0 m=x": "line 2: m expects a nonnegative integer, got 'x'",
    "d=1 d=2": "line 1: duplicate key 'd'",
    "form=upper\nrow=1 F=bad m=x": "line 2: F expects elements like (0,0),(1,2) with no spaces, got 'bad'",
}


@pytest.mark.parametrize("text", FIRST_FAULT)
def test_first_fault_reported(text):
    with pytest.raises(SpecSyntaxError) as excinfo:
        parse_spec_unchecked(text)
    assert str(excinfo.value) == FIRST_FAULT[text]


@pytest.mark.parametrize(
    "text, key",
    [
        ("form=diagonal\ntail_N=1 tail_d=1 tail_r=0", "elements="),
        ("form=upper\nd=1 N=1", "I0="),
        ("form=lower\nd=1 N=1", "R="),
        ("form=upper\nd=1 N=1", "FD="),
        ("form=lower\nd=1 N=1", "default_m=0"),
        ("form=twosided-i\nq=0 p=0 d=1 I=0 P=0", "FD="),
        ("form=twosided-ii\nq=0 p=0 d=1 I=0 P=0", "F="),
    ],
)
def test_optional_key_left_out_reads_as_empty(text, key):
    absent = parse_spec_unchecked(text)
    given = parse_spec_unchecked(f"{text}\n{key}")
    assert absent == given
    assert hash(absent) == hash(given)


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
