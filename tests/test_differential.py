"""The CLI differential's per-run step: a run whose CLI raises is an outcome.

`differential._outcome` runs one argv; when the CLI raises, it records
the exception's type with empty digests, so the worker goes on to the
next argv instead of dying with a traceback that hides every later run.
"""

import hashlib
import sys

from bicyclic import cli

import differential


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_a_crashing_argv_is_an_outcome_and_the_next_argv_runs(monkeypatch, tmp_path):
    main = cli.main

    def crash_on_mul(argv):
        if argv == ["mul", "(1,2)"]:
            raise AttributeError("'Namespace' object has no attribute 'right'")
        return main(argv)

    monkeypatch.setattr(cli, "main", crash_on_mul)
    stdout, stderr = sys.stdout, sys.stderr
    path = tmp_path / "spec.spec"
    assert differential._outcome(["mul", "(1,2)"], path) == ["raised AttributeError", "", ""]
    assert (sys.stdout, sys.stderr) == (stdout, stderr)
    assert differential._outcome(["mul", "(1,2)", "(3,4)"], path) == [0, _digest("(2,4)\n"), _digest("")]
