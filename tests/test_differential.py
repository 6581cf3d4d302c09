"""The CLI differential's per-run step and its declared differences.

`differential._outcome` runs one argv; when the CLI raises, it records
the exception's type with empty digests, so the worker goes on to the
next argv instead of dying with a traceback that hides every later run.
`differential.declared_mismatch` holds the differing runs to the
declared ones: the comparison passes only when they are the same runs.
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


DECIDE = ["b_plus", "decide SPEC --right"]
RENDER = ["gen-3", "render SPEC --window 12"]


def test_declared_differences_that_match_pass():
    assert differential.declared_mismatch([], []) == ([], [])
    assert differential.declared_mismatch([DECIDE, RENDER], [RENDER, DECIDE]) == ([], [])


def test_an_undeclared_difference_fails():
    assert differential.declared_mismatch([DECIDE, RENDER], [DECIDE]) == ([RENDER], [])
    assert differential.declared_mismatch([RENDER], []) == ([RENDER], [])


def test_a_declared_run_that_does_not_differ_fails():
    assert differential.declared_mismatch([DECIDE], [DECIDE, RENDER]) == ([], [RENDER])
    assert differential.declared_mismatch([], [RENDER]) == ([], [RENDER])
