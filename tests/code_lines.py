"""Count the code lines of a package's modules.

    python3 tests/code_lines.py SRC
    python3 tests/code_lines.py OLD_SRC NEW_SRC

A code line is a line that holds a token other than a comment, a line
break or an indent, and is not part of a docstring: the string that
opens a module, class or function body.  With one SRC, prints one
`module=lines` line for each module under it, then `total=`.  With two,
prints `module=old -> new` for each module under either (a module that
a tree lacks counts 0), then `total=old -> new (delta)`.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """How many code lines the module at `path` has."""
    lines: set[int] = set()
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(path.read_text(encoding="utf-8"))))


def _counts(root: Path) -> dict[str, int]:
    """The code lines of each module under `root`, keyed by relative path."""
    return {path.relative_to(root).as_posix(): code_lines(path) for path in sorted(root.rglob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 tests/code_lines.py SRC | OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    if len(argv) == 1:
        counts = _counts(Path(argv[0]))
        for name, count in counts.items():
            print(f"{name}={count}")
        print(f"total={sum(counts.values())}")
        return 0
    old, new = (_counts(Path(src)) for src in argv)
    for name in sorted(old.keys() | new.keys()):
        print(f"{name}={old.get(name, 0)} -> {new.get(name, 0)}")
    before, after = sum(old.values()), sum(new.values())
    print(f"total={before} -> {after} ({after - before:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
