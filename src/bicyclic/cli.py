"""Command line interface.

Exit status convention: 0 for yes/ok, 1 for no/refuted, 2 for errors
(bad syntax, invalid parameters, unreadable files, a witness that fails
verification, stdout closed before the output was written).
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import compress
from typing import Optional

from .coverage import CoverageReport, coverage, cross_validate
from .elements import multiply, inverse, parse_element
from .iorder import decide_left_iorder, decide_right_iorder, decision_lines
from .render import render_window
from .specfile import SpecError, SpecValidationError, parse_spec, parse_spec_unchecked
from .subsemigroups import validate
from .witness import NotLeftIOrderError, decompose, verify_witness
from .words import word_normalize

__all__ = ["main"]


def _read_spec_text(path: str) -> str:
    # open(), not Path(): Path("") is ".", which names a path never given.
    # Bytes decoded once cost less than a text-mode read; the parser's
    # splitlines() ends lines at \r\n and \r as text mode would.  A
    # leading BOM is dropped by hand: "utf-8-sig" decodes several times slower.
    try:
        with open(path, "rb") as f:
            return f.read().decode("utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc


def _load_spec(path: str):
    return parse_spec(_read_spec_text(path))


def _cmd_mul(args) -> int:
    print(multiply(parse_element(args.left), parse_element(args.right)))
    return 0


def _cmd_inv(args) -> int:
    print(inverse(parse_element(args.element)))
    return 0


def _cmd_normalize(args) -> int:
    print(word_normalize(args.word))
    return 0


def _cmd_classify(args) -> int:
    spec = parse_spec_unchecked(_read_spec_text(args.file))
    report = validate(spec)
    print(f"form={spec.form}")
    print(f"valid={'yes' if report.ok else 'no'}")
    for note in report.notes:
        print(f"note={note}")
    for violation in report.violations:
        print(f"violation={violation}")
    return 0 if report.ok else 1


def _cmd_decide(args) -> int:
    spec = _load_spec(args.file)
    if args.right:
        decision = decide_right_iorder(spec)
        side = "right"
    else:
        decision = decide_left_iorder(spec)
        side = "left"
    for line in decision_lines(decision, side=side):
        print(line)
    return 0 if decision.verdict else 1


def _cmd_witness(args) -> int:
    spec = _load_spec(args.file)
    q = parse_element(args.element)
    try:
        w = decompose(spec, q)
    except NotLeftIOrderError as exc:
        for line in decision_lines(exc.decision):
            print(line)
        print("witness=refused")
        return 1
    if not verify_witness(spec, w):
        raise ValueError(f"witness failed verification: {w}")
    print(w)
    return 0


def _cmd_render(args) -> int:
    spec = _load_spec(args.file)
    print(render_window(spec, args.window))
    return 0


# Translates a row's bit string into compress() selectors.
_PICKS = bytes.maketrans(b"01", b"\x00\x01")


def _gap_lines(report: CoverageReport) -> str:
    """The gap=(i,j) lines of the uncovered cells, in (i, j) order.

    Built row by row: each gap row selects its lines' tails from one
    list with `compress` and joins them on the row's head, so a gap
    costs no Python step of its own.
    """
    size = report.window + 1
    full = (1 << size) - 1
    ends = [f"{j})\n" for j in range(size)]
    lines = []
    for i, row in enumerate(report.rows):
        gap = full & ~row
        if gap:
            # format() writes column 0 last, so each row's bits are reversed
            picks = format(gap, f"0{size}b")[::-1].encode().translate(_PICKS)
            head = f"gap=({i},"
            lines.append(head + head.join(compress(ends, picks)))
    return "".join(lines)


def _cmd_coverage(args) -> int:
    spec = _load_spec(args.file)
    report = coverage(spec, args.window, args.pairs)
    gaps = report.gap_count
    print(f"window={report.window}")
    print(f"pair_bound={report.pair_bound}")
    print(f"covered={(report.window + 1) ** 2 - gaps}")
    print(f"gaps={gaps}")
    # All gap lines in one write: a print call per line costs more than the walk.
    sys.stdout.write(_gap_lines(report))
    return 0 if not gaps else 1


def _cmd_crosscheck(args) -> int:
    spec = _load_spec(args.file)
    report = cross_validate(spec, args.window)
    print(f"verdict={'yes' if report.decision.verdict else 'no'}")
    print(f"window={report.coverage.window}")
    print(f"pair_bound={report.coverage.pair_bound}")
    print(f"coverage_gaps={report.coverage.gap_count}")
    if report.closure is None:
        print("closure=ok")
    else:
        print(f"closure=counterexample {report.closure.x} {report.closure.y} {report.closure.product}")
    for note in report.notes:
        print(f"note={note}")
    print(f"result={'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


_WINDOW = ("--window", {"type": int, "required": True})

# Every command once, in help order: handler, help, positional names, and
# options as (flag, add_argument keywords).  `build_parser` and
# `_plain_args` both read it.
_COMMANDS = {
    "mul": (_cmd_mul, "multiply two elements (i,j) (k,l)", ("left", "right"), ()),
    "inv": (_cmd_inv, "invert an element (i,j)", ("element",), ()),
    "normalize": (_cmd_normalize, "normalize a word over {a,b}", ("word",), ()),
    "classify": (_cmd_classify, "parse a spec file and report validation", ("file",), ()),
    "decide": (
        _cmd_decide,
        "decide the left (or right) I-order question",
        ("file",),
        (("--right", {"action": "store_true", "help": "decide the right I-order instead"}),),
    ),
    "witness": (_cmd_witness, "decompose an element over the subsemigroup", ("file", "element"), ()),
    "render": (_cmd_render, "draw the subsemigroup on a window", ("file",), (_WINDOW,)),
    "coverage": (
        _cmd_coverage,
        "brute-force coverage report on a window",
        ("file",),
        (_WINDOW, ("--pairs", {"type": int, "default": None, "help": "override the pair window bound"})),
    ),
    "crosscheck": (_cmd_crosscheck, "cross-validate the decision against coverage", ("file",), (_WINDOW,)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicyclic",
        description="Exact arithmetic and I-order decisions in the bicyclic monoid",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, positionals, options) in _COMMANDS.items():
        s = sub.add_parser(name, help=text)
        for dest in positionals:
            s.add_argument(dest)
        for flag, keywords in options:
            s.add_argument(flag, **keywords)
        s.set_defaults(func=func)
    return parser


def _plain_args(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse gives a plain argv, or None for any other argv.

    A plain argv names a command, then gives exactly its positionals, none
    starting with `-`, and its options spelled out in full, in any order;
    an int option's value does not start with `-` and `int()` reads it.
    Abbreviations, `--opt=value`, `--`, `-h`, negative values and every
    usage error are left to argparse, so reading an argv here never
    changes what it does.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, positionals, options = _COMMANDS[argv[0]]
    flags = dict(options)
    # what argparse leaves in an option's dest when the option is not given
    values = {"command": argv[0], "func": func}
    for flag, kw in options:
        values[flag[2:]] = False if kw.get("action") == "store_true" else kw.get("default")
    words = []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            words.append(arg)
        elif arg not in flags:
            return None
        elif flags[arg].get("action") == "store_true":
            values[arg[2:]] = True
        else:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
            try:
                values[arg[2:]] = int(value)
            except ValueError:
                return None
    if len(words) != len(positionals):
        return None
    if any(values[flag[2:]] is None for flag, kw in options if kw.get("required")):
        return None
    values.update(zip(positionals, words))
    return argparse.Namespace(**values)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`).  Point stdout at
        # /dev/null so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except SpecValidationError as exc:
        for violation in exc.violations:
            print(f"violation={violation}", file=sys.stderr)
        print("error=invalid spec", file=sys.stderr)
        return 2
    except (SpecError, ValueError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
