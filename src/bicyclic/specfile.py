"""Parser for the line-oriented subsemigroup spec format.

Lines hold whitespace-separated key=value tokens; '#' starts a comment.
Keys by form:

    form=diagonal|upper|lower|twosided-i|twosided-ii
    diagonal      elements=<elements>  tail_N=<int> tail_d=<int> tail_r=<int>
    upper/lower   d=<int> N=<int> I0=<ints> R=<ints> FD=<elements>
                  default_m=<int>  plus repeatable lines
                  row=<int> m=<int> F=<elements>
    twosided-*    q=<int> p=<int> d=<int> I=<ints> P=<ints>
                  FD=<elements> F=<elements>

Integer lists are comma separated, element lists look like (0,0),(1,2),
and an empty value denotes the empty set.  Unknown or misplaced keys are
errors; parsing ends with validation, so a syntactically fine file with
inconsistent parameters is rejected too.

A text with several faults raises the first in this order: syntax and
duplicate-key errors in line order (a row line's own tokens in token
order); then a missing or unknown form; then keys the form does not
take; then row lines on a form other than upper or lower; then each
form's keys in the order the parser reads them:

    diagonal      elements, the all-or-none tail check, tail_N, tail_d, tail_r
    upper/lower   I0, R, N, d, default_m, FD
    twosided-*    q, p, d, I, P, FD, F
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

from . import _EXPORTS
from .elements import _ELEMENT_RE, Element
from .subsemigroups import (
    _CACHE_SIZE,
    Diagonal,
    DiagonalTail,
    IndexSet,
    Lower,
    RowData,
    RowOverride,
    SubsemigroupSpec,
    TwoSidedI,
    TwoSidedII,
    Upper,
    validate,
)

__all__ = list(_EXPORTS["specfile"])


class SpecError(Exception):
    """Base class for spec file problems."""


class SpecSyntaxError(SpecError):
    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(where + message)


class SpecValidationError(SpecError):
    def __init__(self, violations: tuple[str, ...]):
        self.violations = violations
        super().__init__("; ".join(violations))


_CLASSES = {cls.form: cls for cls in (Diagonal, Upper, Lower, TwoSidedI, TwoSidedII)}
_KEYS_BY_FORM = {
    "diagonal": {"elements", "tail_N", "tail_d", "tail_r"},
    "upper": {"d", "N", "I0", "R", "FD", "default_m"},
    "lower": {"d", "N", "I0", "R", "FD", "default_m"},
    "twosided-i": {"q", "p", "d", "I", "P", "FD", "F"},
    "twosided-ii": {"q", "p", "d", "I", "P", "FD", "F"},
}

# ASCII digits only: str.isdigit also passes digits such as "²" that int() refuses.
_INT_RE = re.compile(r"[0-9]+")


def _int(text: str, key: str, line_no: int) -> int:
    # int() refuses more digits than sys.get_int_max_str_digits().
    try:
        return int(text)
    except ValueError as exc:
        raise SpecSyntaxError(f"{key} has too many digits ({len(text)})", line_no) from exc


def _parse_int(value: str, key: str, line_no: int) -> int:
    if not _INT_RE.fullmatch(value):
        raise SpecSyntaxError(f"{key} expects a nonnegative integer, got {value!r}", line_no)
    return _int(value, key, line_no)


def _parse_int_set(value: str, key: str, line_no: int) -> frozenset[int]:
    if value == "":
        return frozenset()
    out = set()
    for part in value.split(","):
        if not _INT_RE.fullmatch(part):
            raise SpecSyntaxError(f"{key} expects comma-separated integers, got {part!r}", line_no)
        out.add(_int(part, key, line_no))
    return frozenset(out)


def _parse_elements(value: str, key: str, line_no: int) -> frozenset[Element]:
    if value == "":
        return frozenset()
    # The pattern that parse_element uses admits spaces inside an element,
    # but a value comes from str.split(), which leaves no character that
    # \s matches, so here it reads exactly (i,j).
    matches = list(_ELEMENT_RE.finditer(value))
    rebuilt = ",".join(m.group(0) for m in matches)
    if rebuilt != value:
        raise SpecSyntaxError(
            f"{key} expects elements like (0,0),(1,2) with no spaces, got {value!r}", line_no
        )
    return frozenset(Element(_int(m.group(1), key, line_no), _int(m.group(2), key, line_no)) for m in matches)


def _split_tokens(line: str, line_no: int) -> list[tuple[str, str]]:
    tokens = []
    for part in line.split():
        key, sep, value = part.partition("=")
        if not sep or not key:
            raise SpecSyntaxError(f"expected key=value, got {part!r}", line_no)
        tokens.append((key, value))
    return tokens


_ROW_KEYS = {"m": _parse_int, "F": _parse_elements}


def _parse_row_line(tokens: list[tuple[str, str]], line_no: int) -> RowOverride:
    row = _parse_int(tokens[0][1], "row", line_no)
    parsed = {}
    for key, value in tokens[1:]:
        if key in parsed:
            raise SpecSyntaxError(f"duplicate key {key!r} on row line", line_no)
        if key not in _ROW_KEYS:
            raise SpecSyntaxError(f"unknown key {key!r} on row line", line_no)
        parsed[key] = _ROW_KEYS[key](value, key, line_no)
    if "m" not in parsed:
        raise SpecSyntaxError("row line needs m=<int>", line_no)
    return RowOverride(row, parsed["m"], parsed.get("F", frozenset()))


@lru_cache(maxsize=_CACHE_SIZE)
def parse_spec_unchecked(text: str) -> SubsemigroupSpec:
    """Parse without running validation (the CLI classify path needs that).

    Specs are immutable, so the last `_CACHE_SIZE` texts (16, the bound
    that coverage's scan memo shares) are kept and each gives back the
    same spec object; that object keeps its own validation report, so
    every later `validate` of the text costs O(1).  Only a process that
    runs several commands hits the cache (a library session, or the
    benchmark's and the differential's workers), each repeat being the
    next command on the same text; a one-command CLI process parses
    once.  A text with a syntax error raises every time, as exceptions
    are not cached.
    """
    fields: dict[str, tuple[str, int]] = {}
    rows: list[RowOverride] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _split_tokens(line, line_no)
        if tokens[0][0] == "row":
            rows.append(_parse_row_line(tokens, line_no))
            continue
        for key, value in tokens:
            if key == "row":
                raise SpecSyntaxError("row must start its own line", line_no)
            if key in fields:
                raise SpecSyntaxError(f"duplicate key {key!r}", line_no)
            fields[key] = (value, line_no)

    if "form" not in fields:
        raise SpecSyntaxError("missing form=<diagonal|upper|lower|twosided-i|twosided-ii>")
    form, form_line = fields.pop("form")
    if form not in _CLASSES:
        raise SpecSyntaxError(f"unknown form {form!r}", form_line)
    cls = _CLASSES[form]
    allowed = _KEYS_BY_FORM[form]
    for key, (_, line_no) in fields.items():
        if key not in allowed:
            raise SpecSyntaxError(f"unknown key {key!r} for form={form}", line_no)
    if rows and form not in ("upper", "lower"):
        raise SpecSyntaxError(f"row lines are not allowed for form={form}")

    def read(key: str, parse, default=None):
        if key in fields:
            value, line_no = fields[key]
            return parse(value, key, line_no)
        if default is None:
            raise SpecSyntaxError(f"form={form} requires {key}=<...>")
        return default

    if form == "diagonal":
        elements = read("elements", _parse_elements, frozenset())
        tail_keys = [k for k in ("tail_N", "tail_d", "tail_r") if k in fields]
        tail = None
        if tail_keys:
            if len(tail_keys) != 3:
                raise SpecSyntaxError("tail needs all of tail_N, tail_d, tail_r")
            tail = DiagonalTail(read("tail_N", _parse_int), read("tail_d", _parse_int), read("tail_r", _parse_int))
        return Diagonal(elements, tail)

    if form in ("upper", "lower"):
        index_set = IndexSet(
            fixed=read("I0", _parse_int_set, frozenset()),
            residues=read("R", _parse_int_set, frozenset()),
            start=read("N", _parse_int),
            step=read("d", _parse_int),
        )
        row_data = RowData(m_default=read("default_m", _parse_int, 0), overrides=tuple(rows))
        return cls(read("FD", _parse_elements, frozenset()), index_set, row_data)

    return cls(
        q=read("q", _parse_int),
        p=read("p", _parse_int),
        step=read("d", _parse_int),
        row_indices=read("I", _parse_int_set),
        offsets=read("P", _parse_int_set),
        diagonal_part=read("FD", _parse_elements, frozenset()),
        triangle_part=read("F", _parse_elements, frozenset()),
    )


def parse_spec(text: str) -> SubsemigroupSpec:
    """Parse and validate; violations raise SpecValidationError."""
    spec = parse_spec_unchecked(text)
    report = validate(spec)
    if not report.ok:
        raise SpecValidationError(report.violations)
    return spec
