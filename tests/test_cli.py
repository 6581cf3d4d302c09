import subprocess
import sys
import textwrap

import pytest

from bicyclic import coverage, parse_spec
from bicyclic import cli
from bicyclic.cli import main
from bicyclic.coverage import CoverageReport
from golden import CORPUS, CORPUS_DIR, VALID_ENTRIES

# the interpreter's int-to-string digit limit; 0 where there is none
# (PYTHONINTMAXSTRDIGITS=0, or Python before 3.10.7)
INT_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_str_limit = pytest.mark.skipif(INT_STR_DIGITS == 0, reason="no int-to-string digit limit")


def corpus(name):
    return str(CORPUS_DIR / f"{name}.spec")


def test_mul(capsys):
    assert main(["mul", "(2,3)", "(5,1)"]) == 0
    assert capsys.readouterr().out == "(4,1)\n"


def test_inv(capsys):
    assert main(["inv", "(2,5)"]) == 0
    assert capsys.readouterr().out == "(5,2)\n"


def test_normalize(capsys):
    assert main(["normalize", "aababb"]) == 0
    assert capsys.readouterr().out == "(2,2)\n"


def test_normalize_bad_word(capsys):
    assert main(["normalize", "abc"]) == 2
    assert "error=" in capsys.readouterr().err


def test_bad_element_is_an_error(capsys):
    assert main(["mul", "2,3", "(5,1)"]) == 2


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["mul", "(٣,1)", "(5,1)"], "(٣,1)"),  # ARABIC-INDIC DIGIT THREE
        (["inv", "(2,٥)"], "(2,٥)"),
        (["witness", corpus("r1"), "(١,1)"], "(١,1)"),
        (["inv", "(３,1)"], "(３,1)"),  # FULLWIDTH DIGIT THREE
    ],
)
def test_non_ascii_digits_in_elements_are_errors(argv, bad, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error=expected an element of the form (i,j), got {bad!r}\n"


@needs_int_str_limit
def test_element_arguments_beyond_the_int_string_limit(capsys):
    digits = INT_STR_DIGITS + 700
    assert main(["inv", f"({'1' * digits},1)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error=element coordinate has too many digits ({digits})\n"


@needs_int_str_limit
@pytest.mark.parametrize("command", ("mul", "witness"))
def test_results_beyond_the_int_string_limit(command, capsys):
    # N has as many digits as int() accepts: (N,0)(N,0) = (2N,0), and the
    # lower witness of (N,5) lifts into row 2N+5; both have one digit more
    nines = "9" * INT_STR_DIGITS
    if command == "mul":
        argv = ["mul", f"({nines},0)", f"({nines},0)"]
    else:
        argv = ["witness", corpus("t_above2"), f"({nines},5)"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error=element coordinate has too many digits to print ({len(nines) + 1})\n"


def test_classify_valid(capsys):
    assert main(["classify", corpus("r1")]) == 0
    out = capsys.readouterr().out
    assert "form=upper" in out and "valid=yes" in out


def test_classify_invalid_is_refuted(capsys):
    assert main(["classify", corpus("invalid_q_not_in_I")]) == 1
    out = capsys.readouterr().out
    assert "valid=no" in out
    assert "violation=q in I fails" in out


@pytest.mark.parametrize(
    "text, lines",
    [
        (
            "form=diagonal\nelements=(0,0)\ntail_N=0 tail_d=0 tail_r=0\n",
            ["form=diagonal", "valid=no", "violation=tail_d >= 1 fails: tail_d=0"],
        ),
        (
            "form=upper\nd=1 N=1 I0=0 R=\nFD=(0,1)\n",
            [
                "form=upper",
                "valid=no",
                "note=FD bound read as the column strip: diagonal indices <= min(I)=0",
                "violation=FD on the diagonal fails: (0,1) is off the diagonal",
            ],
        ),
        ("form=upper\nd=0 N=1 I0=0\n", ["form=upper", "valid=no", "violation=d >= 1 fails: d=0"]),
        (
            "form=upper\nd=1 N=1 I0=0 R=\nrow=0 m=0\nrow=0 m=1\n",
            ["form=upper", "valid=no", "violation=duplicate row override fails: row 0"],
        ),
        (
            "form=twosided-i\nq=0 p=1 d=0 I=0 P=0\n",
            ["form=twosided-i", "valid=no", "violation=d >= 1 fails: d=0"],
        ),
        (
            "form=twosided-i\nq=3 p=1 d=1 I=3 P=0\n",
            [
                "form=twosided-i",
                "valid=no",
                "violation=q <= p fails: q=3, p=1",
                "violation=I within {q,...,p-1} fails: 3 with q=3, p=1",
            ],
        ),
        (
            "form=twosided-i\nq=0 p=2 d=1 I=0 P=0\nF=(0,5)\n",
            [
                "form=twosided-i",
                "valid=no",
                "violation=F within the triangle fails: (0,5) is outside q <= i <= j < p with q=0, p=2",
            ],
        ),
    ],
    ids=["tail_d", "FD-off-diagonal", "upper-d", "duplicate-row", "twosided-d", "q-above-p", "F-outside-triangle"],
)
def test_classify_names_each_violation(text, lines, tmp_path, capsys):
    path = tmp_path / "invalid.spec"
    path.write_text(text, encoding="utf-8")
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "".join(f"{line}\n" for line in lines)
    assert captured.err == ""


def test_classify_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("form=upper\nwhat\n")
    assert main(["classify", str(bad)]) == 2


@pytest.mark.parametrize(
    "row_lines, error",
    [
        ("row=0 m=1 m=2", "line 3: duplicate key 'm' on row line"),
        ("row=0 m=1 x=2", "line 3: unknown key 'x' on row line"),
        ("FD= row=0", "line 3: row must start its own line"),
    ],
)
def test_row_line_errors(row_lines, error, tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text(f"form=upper\nd=1 N=1 I0=0 R=\n{row_lines}\n", encoding="utf-8")
    for command in ("classify", "decide"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error={error}\n"


def test_missing_file_is_an_error(capsys):
    assert main(["decide", "/nonexistent/path.spec"]) == 2


def test_empty_path_is_named_as_given(capsys):
    assert main(["decide", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error=cannot read : [Errno 2] No such file or directory: ''\n"


def test_undecodable_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_bytes(b"form=upper\nd=1 N=1 I0=0 \xff\n")
    assert main(["decide", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error=cannot read {path}: 'utf-8' codec can't decode byte 0xff"
        " in position 24: invalid start byte\n"
    )


def test_decide_yes(capsys):
    assert main(["decide", corpus("r1")]) == 0
    out = capsys.readouterr().out
    assert "verdict=yes" in out and "side=left" in out


def test_decide_no_with_certificate(capsys):
    assert main(["decide", corpus("lower_column0")]) == 1
    out = capsys.readouterr().out
    assert "verdict=no" in out
    assert "certificate.element=(1,1)" in out
    assert "certificate.reason=empty-L-class" in out


def test_decide_right(capsys):
    assert main(["decide", corpus("b_plus"), "--right"]) == 0
    assert "side=right" in capsys.readouterr().out
    assert main(["decide", corpus("r1"), "--right"]) == 1


def test_decide_invalid_spec(capsys):
    assert main(["decide", corpus("invalid_q_not_in_I")]) == 2
    assert "error=invalid spec" in capsys.readouterr().err


def test_witness(capsys):
    assert main(["witness", corpus("r1"), "(3,5)"]) == 0
    assert capsys.readouterr().out == "q=(3,5) x=(0,3) y=(0,5) scheme=row0\n"


def test_witness_far_out(capsys):
    assert main(["witness", corpus("r1"), f"({10**12},5)"]) == 0
    assert capsys.readouterr().out == f"q=({10**12},5) x=(0,{10**12}) y=(0,5) scheme=row0\n"


def test_witness_refused(capsys):
    assert main(["witness", corpus("lower_column0"), "(2,2)"]) == 1
    out = capsys.readouterr().out
    assert "witness=refused" in out and "verdict=no" in out


def test_witness_that_fails_verification_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_witness", lambda spec, w: False)
    assert main(["witness", corpus("r1"), "(3,5)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error=witness failed verification: q=(3,5) x=(0,3) y=(0,5) scheme=row0\n"


@pytest.mark.parametrize(
    "newline, bom", [(b"\r\n", b""), (b"\r", b""), (b"\n", b"\xef\xbb\xbf")], ids=["\r\n", "\r", "bom"]
)
def test_crlf_and_cr_spec_files_read_as_lf(newline, bom, tmp_path, capsys):
    # the spec file is read as bytes and decoded once: its lines must end
    # where text mode ends them, and a UTF-8 byte order mark is no text
    for entry in CORPUS:
        twin = tmp_path / f"{entry.name}.spec"
        twin.write_bytes(bom + entry.path.read_bytes().replace(b"\n", newline))
        for argv in (["classify"], ["decide"], ["coverage", "--window", "4"]):
            outcomes = []
            for path in (entry.path, twin):
                code = main([argv[0], str(path), *argv[1:]])
                outcomes.append((code, capsys.readouterr()))
            assert outcomes[0] == outcomes[1], (entry.name, argv)


def test_render_byte_exact(capsys):
    assert main(["render", corpus("r1"), "--window", "2"]) == 0
    assert capsys.readouterr().out == "# # #\n. . .\n. . .\n"

    assert main(["render", corpus("b_plus"), "--window", "2"]) == 0
    assert capsys.readouterr().out == "# # #\n. # #\n. . #\n"


def test_render_diagonal_byte_exact(tmp_path, capsys):
    spec = tmp_path / "diag.spec"
    spec.write_text("form=diagonal\nelements=(0,0),(1,1)\n")
    assert main(["render", str(spec), "--window", "1"]) == 0
    assert capsys.readouterr().out == "# .\n. #\n"


def test_coverage_full(capsys):
    assert main(["coverage", corpus("r1"), "--window", "5"]) == 0
    out = capsys.readouterr().out
    assert "gaps=0" in out


def test_coverage_with_gaps(capsys):
    assert main(["coverage", corpus("diagonal_pair"), "--window", "2"]) == 1
    out = capsys.readouterr().out
    assert "gap=(0,1)" in out


def test_coverage_pairs_override(capsys):
    assert main(["coverage", corpus("r1"), "--window", "3", "--pairs", "3"]) == 0
    assert "pair_bound=3" in capsys.readouterr().out


@pytest.mark.parametrize("pairs", ["-2", "-1000000"])
def test_coverage_pair_bounds_below_minus_one_scan_no_members(pairs, capsys):
    # the scan's grid has -1 rows and columns, on every form
    for entry in VALID_ENTRIES:
        assert main(["coverage", str(entry.path), "--window", "3", "--pairs", pairs]) == 1
        gaps = [f"gap=({i},{j})" for i in range(4) for j in range(4)]
        head = ["window=3", f"pair_bound={pairs}", "covered=0", "gaps=16"]
        assert capsys.readouterr().out.splitlines() == head + gaps, entry.name


def test_lower_spec_with_a_far_row_is_refused_not_refuted(tmp_path, capsys):
    # the reflection of an upper spec whose row 0 starts at column 1000:
    # a yes spec whose window cells need factors in rows up to 1004
    path = tmp_path / "lower_far_row0.spec"
    path.write_text("form=lower\nd=1\nN=0\nI0=\nR=0\ndefault_m=0\nrow=0 m=1000\n")
    assert main(["decide", str(path)]) == 0
    capsys.readouterr()
    for command in ("coverage", "crosscheck"):
        assert main([command, str(path), "--window", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error=pair bound 1004 exceeds the limit 500\n"


@needs_int_str_limit
@pytest.mark.parametrize("form", ("upper", "lower"))
def test_pair_bound_beyond_the_int_string_limit_is_refused(form, tmp_path, capsys):
    # m has as many digits as int() accepts, so the default pair bound
    # 3 * (2w + p + m + 4) has one digit more than str() gives back
    nines = "9" * INT_STR_DIGITS
    if form == "upper":
        text = (CORPUS_DIR / "upper_row0_from3.spec").read_text(encoding="utf-8")
        text = text.replace("default_m=3", f"default_m={nines}")
    else:
        text = f"form=lower\nd=1\nN=0\nI0=\nR=0\ndefault_m=0\nrow=0 m={nines}\n"
    path = tmp_path / f"{form}_huge_m.spec"
    path.write_text(text, encoding="utf-8")
    for command in ("coverage", "crosscheck"):
        assert main([command, str(path), "--window", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error=pair bound exceeds the limit 500\n"


def _coverage_outcome(path, window, pairs):
    """(exit code, stdout) of `coverage`, spelled from the report's Elements."""
    report = coverage(parse_spec(path.read_text(encoding="utf-8")), window, pairs)
    gaps = report.gaps
    lines = [
        f"window={report.window}",
        f"pair_bound={report.pair_bound}",
        f"covered={(window + 1) ** 2 - len(gaps)}",
        f"gaps={len(gaps)}",
    ] + [f"gap={gap}" for gap in gaps]
    return int(bool(gaps)), "".join(f"{line}\n" for line in lines)


def test_coverage_gap_lines_build_no_elements(monkeypatch, capsys):
    runs = [(entry.path, window, None) for entry in VALID_ENTRIES for window in range(61)]
    runs += [(CORPUS_DIR / f"{name}.spec", 500, 500) for name in ("diagonal_pair", "b_plus")]
    expected = [_coverage_outcome(*run) for run in runs]

    def refuse(report):
        raise AssertionError("the gap lines read CoverageReport.gaps")

    monkeypatch.setattr(CoverageReport, "gaps", property(refuse))
    for (path, window, pairs), (code, out) in zip(runs, expected):
        argv = ["coverage", str(path), "--window", str(window)]
        if pairs is not None:
            argv += ["--pairs", str(pairs)]
        assert main(argv) == code, argv
        assert capsys.readouterr().out == out, argv


def test_crosscheck(capsys):
    assert main(["crosscheck", corpus("r1"), "--window", "6"]) == 0
    out = capsys.readouterr().out
    assert "result=PASS" in out and "closure=ok" in out

    assert main(["crosscheck", corpus("lower_column0"), "--window", "4"]) == 0
    out = capsys.readouterr().out
    assert "result=PASS" in out
    assert "evidence" in out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bicyclic", "mul", "(2,3)", "(5,1)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(4,1)\n"


def test_closed_stdout_pipe_exits_without_traceback():
    # the reader takes one line and closes the pipe while render still writes
    proc = subprocess.Popen(
        [sys.executable, "-m", "bicyclic", "render", corpus("b_plus"), "--window", "400"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert first.startswith(b"# # #")
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_closed_stdout_pipe_during_gap_lines_exits_without_traceback():
    # the reader takes one line and closes the pipe before the gap lines are written
    proc = subprocess.Popen(
        [sys.executable, "-m", "bicyclic", "coverage", corpus("diagonal_pair"), "--window", "500", "--pairs", "500"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert first == b"window=500\n"
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


SUBCOMMANDS = ("mul", "inv", "normalize", "classify", "decide", "witness", "render", "coverage", "crosscheck")


def _outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of one call, usage errors and --help included."""
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_only_declined_argvs_build_a_parser():
    # a fresh interpreter, so the count starts before the first call; of
    # 1,100 calls, only the 100 `frobnicate` ones reach argparse
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from bicyclic import cli
        calls = 0
        build = cli.build_parser
        def counted():
            global calls
            calls += 1
            return build()
        cli.build_parser = counted
        argvs = [
            ["mul", "(2,3)", "(5,1)"], ["inv", "(2,5)"], ["normalize", "ab"],
            ["classify", sys.argv[1]], ["decide", sys.argv[1]], ["decide", sys.argv[1], "--right"],
            ["witness", sys.argv[1], "(3,5)"], ["render", sys.argv[1], "--window", "2"],
            ["coverage", sys.argv[1], "--window", "2"], ["crosscheck", sys.argv[1], "--window", "2"],
            ["frobnicate"],
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for n in range(1100):
                try:
                    cli.main(argvs[n % len(argvs)])
                except SystemExit:
                    pass
        print(calls)
        """
    )
    proc = subprocess.run([sys.executable, "-c", script, corpus("r1")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "100\n"


@pytest.mark.parametrize("command", (None,) + SUBCOMMANDS)
def test_help_matches_a_fresh_parser(command, capsys):
    for argv in (["decide", corpus("r1")], ["inv", "--help"], ["frobnicate"]):
        _outcome(main, argv, capsys)
    argv = ["--help"] if command is None else [command, "--help"]
    code, out, err = _outcome(main, argv, capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: bicyclic")
    assert out == _outcome(cli.build_parser().parse_args, argv, capsys)[1]


@pytest.mark.parametrize(
    "bad",
    [
        ["frobnicate"],
        ["render", corpus("r1")],
        ["render", corpus("r1"), "--window", "two"],
    ],
)
def test_usage_errors_are_stable_and_leave_no_state(bad, capsys):
    fresh = _outcome(cli.build_parser().parse_args, bad, capsys)
    assert fresh[0] == 2 and fresh[1] == "" and fresh[2].startswith("usage: bicyclic")
    good = ["coverage", corpus("r1"), "--window", "3"]
    alone = _outcome(main, good, capsys)
    for _ in range(3):
        assert _outcome(main, bad, capsys) == fresh
        assert _outcome(main, good, capsys) == alone
    assert alone == (0, "window=3\npair_bound=30\ncovered=16\ngaps=0\n", "")


def test_defaults_return_after_a_call_that_set_them(capsys):
    assert main(["coverage", corpus("r1"), "--window", "3", "--pairs", "3"]) == 0
    assert "pair_bound=3\n" in capsys.readouterr().out
    assert main(["coverage", corpus("r1"), "--window", "3"]) == 0
    assert "pair_bound=30\n" in capsys.readouterr().out
    assert main(["decide", corpus("r1"), "--right"]) == 1
    assert main(["decide", corpus("r1")]) == 0
    assert "side=left" in capsys.readouterr().out
