"""Hypothesis properties at the package's boundaries.

Arbitrary spec text parses or fails with a `SpecError`; row masks equal
the element-by-element oracle at any offset and width; and every CLI run
of the window-sized commands and `witness` ends in exit 0, 1 or 2.
Windows stay small; values beyond `WINDOW_LIMIT` reach only the guard
that refuses them.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

import membership_oracle as oracle
from bicyclic import Element, parse_spec, parse_spec_unchecked
from bicyclic.cli import main
from bicyclic.specfile import SpecError
from bicyclic.subsemigroups import WINDOW_LIMIT
from golden import CORPUS, VALID_ENTRIES
from test_row_masks import random_specs

ROW_FAMILY_KEYS = ("d", "N", "I0", "R", "FD", "default_m")
TWO_SIDED_KEYS = ("q", "p", "d", "I", "P", "FD", "F")
KEYS_BY_FORM = {
    "diagonal": ("elements", "tail_N", "tail_d", "tail_r"),
    "upper": ROW_FAMILY_KEYS,
    "lower": ROW_FAMILY_KEYS,
    "twosided-i": TWO_SIDED_KEYS,
    "twosided-ii": TWO_SIDED_KEYS,
}
# ASCII digits, digits that int() refuses ("²") or reads ("٣"), and the
# punctuation of integer and element lists.
number = st.one_of(st.integers(0, 12).map(str), st.text(alphabet="0123456789²٣ -x()", max_size=5))
value = st.one_of(
    number,
    st.lists(number, max_size=3).map(",".join),
    st.lists(st.tuples(number, number), max_size=3).map(lambda ps: ",".join(f"({a},{b})" for a, b in ps)),
)
row_line = st.builds(lambda row, m, f: f"row={row} m={m} F={f}", number, number, value)


def spec_text(form):
    pairs = st.dictionaries(st.sampled_from(KEYS_BY_FORM[form]), value)
    return st.builds(
        lambda kv, rows: "\n".join([f"form={form}"] + [f"{k}={v}" for k, v in kv.items()] + rows),
        pairs,
        st.lists(row_line, max_size=2) if form in ("upper", "lower") else st.just([]),
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.sampled_from(tuple(KEYS_BY_FORM)).flatmap(spec_text)))
def test_any_text_parses_or_raises_spec_error(text):
    for parse in (parse_spec_unchecked, parse_spec):
        try:
            parse(text)
        except SpecError:
            pass


SPECS = [parse_spec(entry.text()) for entry in VALID_ENTRIES] + random_specs(29, 60)
near_or_far = st.one_of(st.integers(0, 40), st.integers(10**12 - 20, 10**15))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SPECS), near_or_far, near_or_far, st.integers(0, 70))
def test_row_bits_equal_the_oracle(spec, i, lo, width):
    cell = (lambda j: Element(j, i)) if spec.reflected else (lambda j: Element(i, j))
    expected = sum(1 << k for k in range(width) if oracle.contains(spec, cell(lo + k)))
    assert spec.row_bits(i, lo, width) == expected


huge = st.integers(WINDOW_LIMIT + 1, 10**40)
windows = st.one_of(st.integers(-3, 60), huge).map(str)
coordinates = st.one_of(st.integers(0, 100), st.integers(10**11, 10**30))
elements = st.one_of(
    st.builds(lambda i, j: f"({i},{j})", coordinates, coordinates),
    st.text(alphabet="(),0123456789 -", max_size=10),
)
spec_files = st.sampled_from([str(entry.path) for entry in CORPUS])
argvs = st.one_of(
    st.tuples(st.just("coverage"), spec_files, st.just("--window"), windows),
    st.tuples(
        st.just("coverage"), spec_files, st.just("--window"), windows,
        st.just("--pairs"), st.one_of(st.integers(-3, 60), huge).map(str),
    ),
    st.tuples(st.just("crosscheck"), spec_files, st.just("--window"), windows),
    st.tuples(st.just("render"), spec_files, st.just("--window"), windows),
    st.tuples(st.just("witness"), spec_files, elements),
).map(list)


def run_cli(argv):
    """Exit code and stderr of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs)
def test_cli_exit_codes(argv):
    code, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.startswith("error=") or "usage:" in err or err.startswith("violation="), (argv, err)
