"""Acceptance suite: the exit criteria, one test per criterion.

Everything is exact integer arithmetic, so every tolerance is zero
mismatches.  Each criterion prints a single PASS/FAIL line (visible with
pytest -v -s); a FAIL line is always followed by the failing assert.
"""

import random
import subprocess
import sys

from bicyclic import (
    Diagonal,
    Element,
    Lower,
    TwoSidedI,
    TwoSidedII,
    Upper,
    closure_falsify,
    coverage,
    cross_validate,
    decide_left_iorder,
    decide_right_iorder,
    decompose,
    green,
    hat,
    hat_spec,
    inverse,
    multiply,
    parse_spec,
    parse_spec_unchecked,
    render_window,
    validate,
    verify_witness,
)
from bicyclic.cli import main
from golden import CORPUS, CORPUS_DIR, INVALID_ENTRIES, NO_ENTRIES
from rewriting_oracle import multiply_via_rewriting
from test_row_masks import grid_cells


def report(number, name, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {name}")
    return ok


def test_criterion_1_arithmetic_oracle_equivalence():
    mismatches = 0
    for xi in range(16):
        for xj in range(16):
            x = Element(xi, xj)
            for yi in range(16):
                for yj in range(16):
                    y = Element(yi, yj)
                    if multiply(x, y) != multiply_via_rewriting(x, y):
                        mismatches += 1
    ok = report(1, "multiply agrees with the rewriting oracle on 65536 pairs", mismatches == 0)
    assert ok, f"{mismatches} mismatches"


def test_criterion_2_associativity_and_inverse_laws():
    rng = random.Random(314159)
    failures = 0
    for _ in range(10_000):
        x = Element(rng.randint(0, 20), rng.randint(0, 20))
        y = Element(rng.randint(0, 20), rng.randint(0, 20))
        z = Element(rng.randint(0, 20), rng.randint(0, 20))
        if multiply(multiply(x, y), z) != multiply(x, multiply(y, z)):
            failures += 1
        xi = inverse(x)
        if multiply(multiply(x, xi), x) != x or multiply(multiply(xi, x), xi) != xi:
            failures += 1
    ok = report(2, "associativity and inverse laws on 10000 random triples", failures == 0)
    assert ok, f"{failures} failures"


def test_criterion_3_green_relations_exhaustive():
    window = [Element(i, j) for i in range(12) for j in range(12)]
    failures = 0
    for x in window:
        for y in window:
            flags = green(x, y)
            if flags.l != (x.j == y.j) or flags.r != (x.i == y.i):
                failures += 1
            if flags.h != (flags.l and flags.r) or not flags.d:
                failures += 1
    ok = report(3, "Green relations read off coordinates on the 12x12 window", failures == 0)
    assert ok, f"{failures} failures"


def test_criterion_4_classification_validation():
    problems = []
    forms = {entry.form for entry in CORPUS}
    if len(CORPUS) < 12:
        problems.append("corpus smaller than 12")
    if forms != {"diagonal", "upper", "lower", "twosided-i", "twosided-ii"}:
        problems.append(f"forms missed: {forms}")
    if len(INVALID_ENTRIES) < 3:
        problems.append("fewer than 3 invalid parameter sets")
    for required in ("r1", "b_plus", "t_above2", "upper_rows_1_4_7_mod3",
                     "lower_columns_1_4_6_mod3", "invalid_sigma_residue_large"):
        if not any(e.name == required for e in CORPUS):
            problems.append(f"missing corpus entry {required}")
    for entry in CORPUS:
        report_ = validate(parse_spec_unchecked(entry.text()))
        if report_.ok != entry.valid:
            problems.append(f"{entry.name}: validity {report_.ok}, expected {entry.valid}")
        elif not entry.valid and not any(entry.violation in v for v in report_.violations):
            problems.append(f"{entry.name}: violation {entry.violation!r} not reported")
    ok = report(4, "golden corpus validates exactly as expected", not problems)
    assert ok, problems


def test_criterion_5_positive_decisions_and_witnesses(corpus_specs):
    required = {
        "r1": Upper, "b_plus": Upper, "t_above2": Lower,
        "twosided_ii_all_columns": TwoSidedII, "twosided_i_with_r1": TwoSidedI,
    }
    problems = []
    for name, cls in required.items():
        spec = corpus_specs[name]
        if not isinstance(spec, cls):
            problems.append(f"{name}: unexpected form")
        if not decide_left_iorder(spec).verdict:
            problems.append(f"{name}: expected yes")
            continue
        for i in range(13):
            for j in range(13):
                w = decompose(spec, Element(i, j))
                if w.x.i != w.y.i:
                    problems.append(f"{name}: witness for ({i},{j}) not straight")
                if not verify_witness(spec, w):
                    problems.append(f"{name}: witness for ({i},{j}) fails verification")
    ok = report(5, "positive decisions with verified straight witnesses on 12x12", not problems)
    assert ok, problems[:5]


def test_criterion_6_negative_decisions_with_confirmed_certificates(corpus_specs):
    problems = []
    kinds = {"diagonal": 0, "step": 0, "lower": 0, "twosided-ii": 0}
    for entry in NO_ENTRIES:
        spec = corpus_specs[entry.name]
        decision = decide_left_iorder(spec)
        if decision.verdict:
            problems.append(f"{entry.name}: expected no")
            continue
        cert = decision.certificate
        if cert is None or cert.uncovered is None:
            problems.append(f"{entry.name}: missing certificate element")
            continue
        if isinstance(spec, Diagonal):
            kinds["diagonal"] += 1
        if getattr(spec, "step", 1) >= 2:
            kinds["step"] += 1
        if isinstance(spec, Lower) and not spec.row_indices.is_full():
            kinds["lower"] += 1
        if isinstance(spec, TwoSidedII) and spec.row_indices != frozenset(range(spec.p)):
            kinds["twosided-ii"] += 1
        gaps = coverage(spec, 10).gaps
        if cert.uncovered not in gaps:
            problems.append(f"{entry.name}: certificate {cert.uncovered} covered")
    for kind, count in kinds.items():
        if count == 0:
            problems.append(f"no negative case of kind {kind}")
    ok = report(6, "negative decisions, certificates confirmed uncovered at window 10", not problems)
    assert ok, problems


def test_criterion_7_duality(corpus_specs):
    problems = []
    if not decide_right_iorder(corpus_specs["b_plus"]).verdict:
        problems.append("b_plus: expected right yes")
    if decide_right_iorder(corpus_specs["r1"]).verdict:
        problems.append("r1: expected right no")
    for name, spec in corpus_specs.items():
        if hat_spec(hat_spec(spec)) != spec:
            problems.append(f"{name}: hat_spec not an involution")
        mirrored = hat_spec(spec)
        if grid_cells(mirrored, 13, 13) != {hat(e) for e in grid_cells(spec, 13, 13)}:
            problems.append(f"{name}: window members do not commute with hat")
    ok = report(7, "right decisions via reflection, involution, window commutation", not problems)
    assert ok, problems


def test_criterion_8_cross_validation(corpus_specs):
    problems = []
    for name, spec in corpus_specs.items():
        result = cross_validate(spec, 10)
        if not result.passed:
            problems.append(f"{name}: crosscheck FAIL {result.notes}")
        if closure_falsify(spec, 12) is not None:
            problems.append(f"{name}: closure falsified at window 12")
    ok = report(8, "cross-validation PASS and closure ok across the corpus", not problems)
    assert ok, problems


def test_criterion_9_cli_contract(tmp_path, capsys):
    problems = []

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    diag = tmp_path / "diag.spec"
    diag.write_text("form=diagonal\nelements=(0,0),(1,1)\n")

    code, out = run(["render", str(CORPUS_DIR / "r1.spec"), "--window", "2"])
    if (code, out) != (0, "# # #\n. . .\n. . .\n"):
        problems.append(f"render r1: {(code, out)!r}")
    code, out = run(["render", str(diag), "--window", "1"])
    if (code, out) != (0, "# .\n. #\n"):
        problems.append(f"render diagonal: {(code, out)!r}")
    code, out = run(["render", str(CORPUS_DIR / "b_plus.spec"), "--window", "2"])
    if (code, out) != (0, "# # #\n. # #\n. . #\n"):
        problems.append(f"render b_plus: {(code, out)!r}")

    expectations = [
        (["mul", "(2,3)", "(5,1)"], 0),
        (["decide", str(CORPUS_DIR / "r1.spec")], 0),
        (["decide", str(CORPUS_DIR / "lower_column0.spec")], 1),
        (["decide", str(CORPUS_DIR / "invalid_q_not_in_I.spec")], 2),
        (["classify", str(CORPUS_DIR / "invalid_zero_not_in_P.spec")], 1),
        (["witness", str(CORPUS_DIR / "b_plus.spec"), "(4,1)"], 0),
        (["witness", str(CORPUS_DIR / "diagonal_pair.spec"), "(0,1)"], 1),
        (["coverage", str(CORPUS_DIR / "r1.spec"), "--window", "5"], 0),
        (["coverage", str(CORPUS_DIR / "diagonal_pair.spec"), "--window", "2"], 1),
        (["crosscheck", str(CORPUS_DIR / "twosided_ii_all_columns.spec"), "--window", "6"], 0),
        (["normalize", "xyz"], 2),
        (["decide", "/no/such/file.spec"], 2),
    ]
    for argv, want in expectations:
        code, _ = run(argv)
        if code != want:
            problems.append(f"{argv}: exit {code}, expected {want}")

    proc = subprocess.run(
        [sys.executable, "-m", "bicyclic", "normalize", "ba"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0 or proc.stdout != "(0,0)\n":
        problems.append(f"module entry point: {proc!r}")

    ok = report(9, "CLI byte-exact renders and exit statuses 0/1/2", not problems)
    assert ok, problems
