import subprocess
import sys

import pytest

from bicyclic import cli
from bicyclic.cli import main
from golden import CORPUS_DIR


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


def test_classify_valid(capsys):
    assert main(["classify", corpus("r1")]) == 0
    out = capsys.readouterr().out
    assert "form=upper" in out and "valid=yes" in out


def test_classify_invalid_is_refuted(capsys):
    assert main(["classify", corpus("invalid_q_not_in_I")]) == 1
    out = capsys.readouterr().out
    assert "valid=no" in out
    assert "violation=q in I fails" in out


def test_classify_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("form=upper\nwhat\n")
    assert main(["classify", str(bad)]) == 2


def test_missing_file_is_an_error(capsys):
    assert main(["decide", "/nonexistent/path.spec"]) == 2


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
