"""CLI differential between two source trees.

    python3 tests/differential.py OLD_SRC NEW_SRC [--seed S] [--count N]

Runs every command in `test_cli_transcripts.ARGVS`, plus the large-window
runs of `test_large_windows.ARGVS` and the argv variants of `VARIANTS`,
on each corpus file and on N specs drawn with seed S from
`test_cli_transcripts`' generators (one in five fills row 0 by finite
parts), once against each tree; the variants that name no spec run once.
Each spec text with a line of two or more key=value tokens, other than
a form= or row= line, also has a faulted twin (see `faulted`), named
`<name>~fault`, on which `classify` and `decide` run, so the trees must
report the same first error of a spec with several faults.
Each tree runs in its own subprocess, with only its `src` on the import
path.  Exit code, stdout and stderr are compared run by run.  A run whose
CLI raises records `raised <ExceptionType>` as its exit code, with empty
digests, and the next run goes on.

An intended output change is declared in `declared_differences.json`,
next to this script: a JSON list of [name, argv] pairs, keyed as the
`diff=` lines key them.  No file declares no difference.  The runs that
differ must be exactly the declared ones, so a declaration that no
longer differs fails the next comparison and cannot linger.

The script prints `runs=`, `differences=` and `crashes=` (the runs of
NEW_SRC that raised), then `declared=`, the number of declared runs,
then one `undeclared=` line per differing run that is not declared, one
`missing=` line per declared run that does not differ, one `diff=` line
per differing run and one `crash=` line per crash, the first ten of
each.  It exits 1 unless the differing runs are the declared ones, and
on any crash of NEW_SRC even where OLD_SRC crashed the same way: every
argv should end in exit 0, 1 or 2.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SHOWN = 10

DECLARED = Path(__file__).with_name("declared_differences.json")

# Argvs off the pinned shapes, for argparse to read: abbreviations, `=`,
# options before the file, `--`, help, unknown and missing commands,
# missing, extra and empty positionals, repeated options, and values that
# are negative, not digits, not ASCII, or one digit past the int limit;
# and render and crosscheck at window 40, whose grids run past row T + d
# of most specs, where `_grid` shifts rows instead of reading them.
# No usage error here echoes SPEC, whose path differs between the trees.
VARIANTS = (
    [["coverage", "SPEC", "--win", "3"], ["decide", "SPEC", "--ri"], ["render", "SPEC", "--window=3"]]
    + [["coverage", "SPEC", "--window=4", "--pa", "3"], ["crosscheck", "SPEC", "--w", "2"]]
    + [["decide", "--right", "SPEC"], ["coverage", "--window", "3", "--pairs", "40", "SPEC"]]
    + [["decide", "--", "SPEC"], ["render", "--window", "2", "--", "SPEC"], ["witness", "SPEC", "--", "(1,2)"]]
    + [["-h"], ["--help"]]
    + [[command, "-h"] for command in ("mul", "inv", "normalize", "classify", "decide", "witness")]
    + [[command, "-h"] for command in ("render", "coverage", "crosscheck")]
    + [[], ["frobnicate"], ["frobnicate", "SPEC"], ["--right"], ["", "SPEC"], ["decid", "SPEC"]]
    + [["witness", "SPEC"], ["mul", "(1,2)"], ["classify"], ["render", "SPEC"], ["inv"]]
    + [["classify", "SPEC", "extra"], ["mul", "(1,2)", "(3,4)", "(5,6)"], ["decide", "SPEC", ""]]
    + [["classify", ""], ["inv", ""], ["mul", "", "(1,2)"], ["normalize", ""], ["witness", "SPEC", ""]]
    + [["coverage", "SPEC", "--window", "3", "--window", "5"], ["decide", "SPEC", "--right", "--right"]]
    + [["coverage", "SPEC", "--window", "4", "--pairs", "3", "--pairs", "40"]]
    + [["render", "SPEC", "--window", v] for v in ("-1", "x", "٣", "+3", " 3", "3_0", "", "1" * 4301)]
    + [["coverage", "SPEC", "--window", "3", "--pairs", v] for v in ("-2", "y", "٤")]
    + [["render", "SPEC", "--window", "40"], ["crosscheck", "SPEC", "--window", "40"]]
)

# The runs of each spec's faulted twin: both read the parse error, and
# decide reads it through parse_spec's path, classify through the
# unchecked one.
FAULT_ARGVS = [["classify", "SPEC"], ["decide", "SPEC"]]


def faulted(text: str) -> str | None:
    """`text` with two faults on its first line of two or more key=value
    tokens that is not a form= or row= line, or None if it has no such line.

    The line loses its first token, which leaves that key missing, and
    its last token's value becomes `x`, which no key reads; the twin's
    error shows which of the faults the parser meets first.
    """
    lines = text.splitlines()
    for n, line in enumerate(lines):
        tokens = line.split("#", 1)[0].split()
        if len(tokens) < 2 or not all("=" in token for token in tokens):
            continue
        if tokens[0].partition("=")[0] in ("form", "row"):
            continue
        lines[n] = " ".join(tokens[1:-1] + [tokens[-1].partition("=")[0] + "=x"])
        return "\n".join(lines) + "\n"
    return None


def declared_mismatch(differing: list, declared: list) -> tuple[list, list]:
    """The differing runs that are not declared, and the declared runs
    that do not differ, each in its list's order.

    Runs are [name, argv] pairs; the comparison passes when both are empty.
    """
    differ = {tuple(run) for run in differing}
    expected = {tuple(run) for run in declared}
    undeclared = [run for run in differing if tuple(run) not in expected]
    missing = [run for run in declared if tuple(run) not in differ]
    return undeclared, missing


def _outcome(argv: list[str], path: Path) -> list:
    """Exit code and stdout and stderr digests of one run on the spec at `path`.

    A run whose CLI raises gives `raised <ExceptionType>` and two empty
    digests instead.
    """
    import test_large_windows

    try:
        code, out, err = test_large_windows.run(argv, path)
    except Exception as exc:
        return [f"raised {type(exc).__name__}", "", ""]
    return [code, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest()]


def _worker(seed: int, count: int) -> None:
    """Print the loaded package's path, then one JSON line per run.

    The package and the test modules that import it are imported here,
    as only a worker has a tree on its import path.
    """
    import bicyclic
    import test_cli_transcripts
    import test_large_windows

    print(Path(bicyclic.__file__).resolve())
    argvs = list(test_cli_transcripts.ARGVS) + list(test_large_windows.ARGVS)
    argvs += [argv for argv in VARIANTS if "SPEC" in argv]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.spec"
        for argv in VARIANTS:
            if "SPEC" not in argv:
                print(json.dumps(["-", " ".join(argv), *_outcome(argv, path)]))
        for name, text in test_cli_transcripts.spec_texts(seed, count).items():
            path.write_text(text, encoding="utf-8")
            for argv in argvs:
                print(json.dumps([name, " ".join(argv), *_outcome(argv, path)]))
            twin = faulted(text)
            if twin is not None:
                path.write_text(twin, encoding="utf-8")
                for argv in FAULT_ARGVS:
                    print(json.dumps([f"{name}~fault", " ".join(argv), *_outcome(argv, path)]))


def _start(src: Path, seed: int, count: int, out) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, __file__, "--worker", "--seed", str(seed), "--count", str(count)]
    return subprocess.Popen(argv, env=env, stdout=out, text=True)


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare CLI runs between two source trees.")
    parser.add_argument("trees", nargs="*", type=Path, metavar="SRC", help="OLD_SRC NEW_SRC")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _worker(args.seed, args.count)
        return 0
    if len(args.trees) != 2:
        parser.error("give OLD_SRC and NEW_SRC")
    trees = [src.resolve() for src in args.trees]
    # the workers write to files, so both run at once without filling a pipe
    outs = [tempfile.TemporaryFile("w+") for _ in trees]
    workers = [_start(src, args.seed, args.count, out) for src, out in zip(trees, outs)]
    results = []
    for src, worker, out in zip(trees, workers, outs):
        if worker.wait() != 0:
            raise SystemExit(f"error=worker for {src} exited {worker.returncode}")
        out.seek(0)
        loaded, *lines = out.read().splitlines()
        if not Path(loaded).is_relative_to(src):
            raise SystemExit(f"error=worker for {src} loaded {loaded}")
        results.append([json.loads(line) for line in lines])
    old, new = results
    if len(old) != len(new):
        raise SystemExit(f"error=run counts differ: {len(old)} against {len(new)}")
    differing = [a[:2] for a, b in zip(old, new) if a != b]
    crashes = [b for b in new if str(b[2]).startswith("raised ")]
    declared = json.loads(DECLARED.read_text(encoding="utf-8")) if DECLARED.exists() else []
    undeclared, missing = declared_mismatch(differing, declared)
    print(f"runs={len(old)}")
    print(f"differences={len(differing)}")
    print(f"crashes={len(crashes)}")
    print(f"declared={len(declared)}")
    for name, argv in undeclared[:SHOWN]:
        print(f"undeclared={name}: {argv}")
    for name, argv in missing[:SHOWN]:
        print(f"missing={name}: {argv}")
    for name, argv in differing[:SHOWN]:
        print(f"diff={name}: {argv}")
    for name, argv, code, *_ in crashes[:SHOWN]:
        print(f"crash={name}: {argv}: {code}")
    return int(bool(undeclared or missing or crashes))


if __name__ == "__main__":
    sys.exit(main())
