"""The CLI differential's per-run step and its declared differences.

`differential._outcome` runs one argv; when the CLI raises, it records
the exception's type with empty digests, so the worker goes on to the
next argv instead of dying with a traceback that hides every later run.
`differential.declared_mismatch` holds the differing runs to the
declared ones: the comparison passes only when they are the same runs.
`differential.faulted` builds the twin whose parse error the trees must
agree on.
"""

import hashlib
import sys

import pytest

from bicyclic import cli, parse_spec_unchecked
from bicyclic.specfile import SpecSyntaxError

import differential
import test_cli_transcripts


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


def test_the_faulted_twin_breaks_the_first_line_of_several_keys():
    text = "# d=1 N=1\nform=upper d=1\nI0=0\nrow=0 m=1 F=\nd=1 N=2 R=0 # note\nFD= default_m=0\n"
    assert differential.faulted(text) == "# d=1 N=1\nform=upper d=1\nI0=0\nrow=0 m=1 F=\nN=2 R=x\nFD= default_m=0\n"
    assert differential.faulted("form=diagonal\nelements=(0,0)\n") is None


def test_every_faulted_twin_fails_to_parse():
    twins = [differential.faulted(text) for text in test_cli_transcripts.spec_texts(1, 100).values()]
    twins = [twin for twin in twins if twin is not None]
    assert len(twins) == 100
    for twin in twins:
        with pytest.raises(SpecSyntaxError):
            parse_spec_unchecked(twin)
