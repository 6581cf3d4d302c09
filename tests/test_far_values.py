"""Every command ends in exit 0, 1 or 2 with a message, in bounded memory, on far values.

Each form has one spec text whose threshold or corner is F, for F from 0
to 10**100.  Every command that reads a spec runs on it in process: the
exit code is 0, 1 or 2, stderr holds no traceback, it is empty unless
the exit is 2, where its last line is an `error=` line, and the run's
`tracemalloc` peak stays under a fixed bound whatever F is.  Some of
these specs are invalid (F = 0 empties a range) and some refuse a window
or pair bound; those are exit 2 cases, held to the same rules.

F also takes values with one digit fewer than, as many digits as and one
digit more than `int()` reads, written as text, since `str()` of such an
int raises.  The spec texts and argvs take the text as it is.  Past the
limit, `--pairs F` is argparse's usage error, as every int option is.
A far F costs no more memory than a near one: each run's peak at
F = 10**6, 10**18 and 10**100 is at most its F = 5 twin's plus 4 KB.

`normalize` on a word of 10**6 letters exits 0 with the scan's answer,
and its peak stays under 2.5 bytes a letter.
"""

import contextlib
import gc
import io
import random
import tracemalloc

import pytest

from bicyclic.cli import main
from rewriting_oracle import normalize_by_scan
from test_cli import INT_STR_DIGITS, needs_int_str_limit

FORMS = {
    "diagonal": "form=diagonal\nelements=(0,0),({F},{F}) tail_N={F} tail_d=2 tail_r=0",
    "upper": "form=upper\nd=2 N={F} I0=0 R=1 default_m={F} FD=(0,0)",
    "lower": "form=lower\nd=2 N={F} I0=0 R=1 default_m={F} FD=(0,0)",
    "twosided-i": "form=twosided-i\nq=0 p={F} d=2 I=0 P=0 FD=(0,0)",
    "twosided-ii": "form=twosided-ii\nq=0 p={F} d=1 I=0 P=0 FD=(0,0)",
}
NEAR = ("0", "1", "5", "499", "500", "501", "1000000")
FAR = {"10**18": str(10**18), "10**100": str(10**100)}
# F with one digit fewer than, as many digits as, and one digit more
# than int() reads; no int is built, as str() of one past the limit raises
AT_LIMIT = {
    name: "1" + "0" * (INT_STR_DIGITS + k - 1)
    for name, k in (("limit-1-digits", -1), ("limit-digits", 0), ("limit+1-digits", 1))
}
VALUES = (
    [pytest.param(far, id=far) for far in NEAR]
    + [pytest.param(far, id=name) for name, far in FAR.items()]
    + [pytest.param(far, id=name, marks=needs_int_str_limit) for name, far in AT_LIMIT.items()]
)
WINDOWS = (-1, 0, 12, 501)
PEAK_BYTES = 2_000_000
# how far a far F's peak may exceed its F = 5 twin's
FAR_PEAK_SLACK = 4096
LONG_WORD = 10**6


def argvs(path, far):
    yield ["classify", path]
    yield ["decide", path]
    yield ["decide", path, "--right"]
    yield ["witness", path, "(0,1)"]
    yield ["witness", path, f"({far},5)"]
    for command in ("render", "coverage", "crosscheck"):
        for window in WINDOWS:
            yield [command, path, "--window", str(window)]
    yield ["coverage", path, "--window", "12", "--pairs", str(far)]


def run(argv):
    """Exit code, stderr and tracemalloc peak of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, err.getvalue(), peak


def runs(tmp_path, form, far):
    """Argv, exit code, stderr and peak of every command on the form's spec at F = far."""
    path = tmp_path / "far.spec"
    path.write_text(FORMS[form].format(F=far))
    return [(argv, *run(argv)) for argv in argvs(str(path), far)]


def least_peaks(tmp_path, form, far, repeats=3):
    """Each command's least peak over `repeats` runs, with the cyclic collector off.

    A collection frees the cycles that argparse leaves, and when one
    falls inside a run depends on the counts the runs before it left;
    with the collector off, a run's peak holds all it allocates.  A
    process-wide table that grows inside a run still adds up to 11 KB
    to that run alone, and the least of a few runs leaves it out.
    """
    gc.disable()
    try:
        rounds = [runs(tmp_path, form, far) for _ in range(repeats)]
    finally:
        gc.enable()
    return [min(peaks) for peaks in zip(*([peak for *_, peak in r] for r in rounds))]


@pytest.mark.parametrize("far", VALUES)
@pytest.mark.parametrize("form", FORMS)
def test_every_command_exits_cleanly_in_bounded_memory(tmp_path, form, far):
    past_limit = INT_STR_DIGITS and len(far) > INT_STR_DIGITS
    bad = []
    for argv, code, err, peak in runs(tmp_path, form, far):
        if past_limit and argv[-2:] == ["--pairs", far]:
            # argparse's usage error, as for any int option int() cannot read
            clean = code == 2 and "invalid int value" in err
        else:
            last = err.splitlines()[-1:]
            message = last != [] and last[0].startswith("error=") if code == 2 else err == ""
            clean = code in (0, 1, 2) and message
        if not clean or "Traceback" in err or peak >= PEAK_BYTES:
            bad.append((argv[0], argv[2:], code, err[-200:], peak))
    assert bad == []


@pytest.mark.parametrize("form", FORMS)
def test_far_values_cost_no_more_memory_than_near_ones(tmp_path, form):
    commands = [argv[:1] + argv[2:] for argv in argvs("far.spec", "5")]
    near = least_peaks(tmp_path, form, "5")
    over = []
    for name, far in {"10**6": "1000000", **FAR}.items():
        for argv, peak, twin in zip(commands, least_peaks(tmp_path, form, far), near):
            if peak > twin + FAR_PEAK_SLACK:
                over.append((name, argv, peak, twin))
    assert over == []


def test_normalize_long_word_in_bounded_memory():
    word = "".join(random.Random(1_000_003).choices("ab", k=LONG_WORD))
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["normalize", word])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2.5 * LONG_WORD
    assert out.getvalue() == f"{normalize_by_scan(word)}\n"
