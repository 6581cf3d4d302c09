"""Every command ends in exit 0, 1 or 2 with a message, in bounded memory, on far values.

Each form has one spec text whose threshold or corner is F, for F from 0
to 10**100.  Every command that reads a spec runs on it in process: the
exit code is 0, 1 or 2, stderr holds no traceback, it is empty unless
the exit is 2, where its last line is an `error=` line, and the run's
`tracemalloc` peak stays under a fixed bound whatever F is.  Some of
these specs are invalid (F = 0 empties a range) and some refuse a window
or pair bound; those are exit 2 cases, held to the same rules.
"""

import contextlib
import io
import tracemalloc

import pytest

from bicyclic.cli import main

FORMS = {
    "diagonal": "form=diagonal\nelements=(0,0),({F},{F}) tail_N={F} tail_d=2 tail_r=0",
    "upper": "form=upper\nd=2 N={F} I0=0 R=1 default_m={F} FD=(0,0)",
    "lower": "form=lower\nd=2 N={F} I0=0 R=1 default_m={F} FD=(0,0)",
    "twosided-i": "form=twosided-i\nq=0 p={F} d=2 I=0 P=0 FD=(0,0)",
    "twosided-ii": "form=twosided-ii\nq=0 p={F} d=1 I=0 P=0 FD=(0,0)",
}
VALUES = (0, 1, 5, 499, 500, 501, 10**6, 10**18, 10**100)
WINDOWS = (-1, 0, 12, 501)
PEAK_BYTES = 2_000_000


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


@pytest.mark.parametrize("far", VALUES, ids=lambda far: str(far) if far < 10**7 else f"10**{len(str(far)) - 1}")
@pytest.mark.parametrize("form", FORMS)
def test_every_command_exits_cleanly_in_bounded_memory(tmp_path, form, far):
    path = tmp_path / "far.spec"
    path.write_text(FORMS[form].format(F=far))
    bad = []
    for argv in argvs(str(path), far):
        code, err, peak = run(argv)
        last = err.splitlines()[-1:]
        message = last != [] and last[0].startswith("error=") if code == 2 else err == ""
        if code not in (0, 1, 2) or "Traceback" in err or not message or peak >= PEAK_BYTES:
            bad.append((argv[0], argv[2:], code, err[-200:], peak))
    assert bad == []
