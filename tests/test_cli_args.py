"""The CLI's argument reader against argparse, and its help text against a record.

`main` reads a plain argv (a known command, exactly its positionals, and
its options spelled out in full, with int values that do not start with
`-`) through `cli._plain_args`, and leaves every other argv to argparse.
These tests check that wherever the reader answers it answers what
argparse answers, that every argv the transcripts and the benchmark
workloads run is plain, and that the help text stays the text recorded
before the command table existed.

`cli_help.json` holds the top-level `--help` and each command's
`--help` output at 80 columns, recorded on the Python version it names:
argparse's layout differs between versions, so the record is checked on
that version only.  Re-record only when help is meant to change:

    PYTHONPATH=src python3 tests/test_cli_args.py --record
"""

import json
import os
import random
import sys
from pathlib import Path

import pytest

from bicyclic import cli

import test_cli_transcripts
import test_large_windows

RECORD = Path(__file__).resolve().parent / "cli_help.json"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
COLUMNS = "80"
COMMANDS = ("mul", "inv", "normalize", "classify", "decide", "witness", "render", "coverage", "crosscheck")
HELP_ARGVS = [["--help"]] + [[command, "--help"] for command in COMMANDS]


def _help(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a --help argv, which names no spec."""
    return test_large_windows.run(argv, None)


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=lambda argv: argv[0])
def test_help_matches_the_record(argv, monkeypatch):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    if record["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"help text recorded on Python {record['python']}")
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert _help(argv) == (0, record["help"][" ".join(argv)], "")


# ----------------------------------------------------------------------
# the reader against argparse

FILES = ("corpus/r1.spec", "", "-", "-x", "(1,2)", "ab", "decide", " -1")
FLAGS = ("--right", "--window", "--pairs")
ODD_TOKENS = ("--win", "--ri", "--pa", "--window=3", "--pairs=2", "--", "-h", "--help", "-w", "---window", "--Right")
VALUES = ("3", "0", "12", "-1", "x", "٣", "+3", " 3", "3 ", "3_0", "", "-", "1" * 4301, "9" * 5000)


def _argv(rng: random.Random) -> list[str]:
    """A command with its positionals and options, drawn from the token
    sets above, then often mangled: tokens added, shuffled or dropped."""
    command = rng.choice(COMMANDS + ("frobnicate", "", "-h"))
    _, _, positionals, options = cli._COMMANDS.get(command, (None, None, ("file",), ()))
    words = [rng.choice(FILES) for _ in positionals]
    for flag, _ in options:
        if rng.random() < 0.8:
            words += [flag] if flag == "--right" else [flag, rng.choice(VALUES)]
    for _ in range(rng.choice((0, 0, 1, 2))):
        words.insert(rng.randrange(len(words) + 1), rng.choice(FILES + FLAGS + ODD_TOKENS + VALUES))
    if rng.random() < 0.5:
        rng.shuffle(words)
    if words and rng.random() < 0.1:
        del words[rng.randrange(len(words))]
    return words if rng.random() < 0.03 else [command] + words


def test_the_reader_agrees_with_argparse():
    rng = random.Random(20261020)
    parser = cli.build_parser()
    read = 0
    for _ in range(4000):
        argv = _argv(rng)
        plain = cli._plain_args(argv)
        if plain is not None:
            assert vars(plain) == vars(parser.parse_args(argv)), argv
            read += 1
    assert read > 400


def _workload_argvs():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    for name, pool in workloads.WORKLOADS.items():
        corpus = json.loads((PERFBENCH / "expected" / f"{name}.json").read_text(encoding="utf-8"))["corpus"]
        for case in pool(corpus):
            yield from case.ops


def test_every_pinned_and_benchmarked_argv_is_plain():
    parser = cli.build_parser()
    argvs = [*test_cli_transcripts.ARGVS, *test_large_windows.ARGVS, *_workload_argvs()]
    shapes = set()
    for argv in argvs:
        argv = ["corpus/r1.spec" if a == "SPEC" else a for a in argv]
        plain = cli._plain_args(argv)
        # a negative value is argparse's to read: `coverage --pairs -1`
        if "-1" in argv:
            assert plain is None
            continue
        assert plain is not None, argv
        assert vars(plain) == vars(parser.parse_args(argv)), argv
        shapes.add((argv[0], len(argv)))
    assert len(shapes) == 11


def _record() -> None:
    os.environ["COLUMNS"] = COLUMNS
    texts = {}
    for argv in HELP_ARGVS:
        code, out, err = _help(argv)
        assert code == 0 and not err, argv
        texts[" ".join(argv)] = out
    record = {"python": "%d.%d" % sys.version_info[:2], "columns": int(COLUMNS), "help": texts}
    RECORD.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(texts)} help texts to {RECORD}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    _record()
