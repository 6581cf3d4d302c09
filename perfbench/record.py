#!/usr/bin/env python3
"""Record the expected output of every pool case, after checking it.

Run from the repository root at a commit whose answers are trusted:

    python3 perfbench/record.py [workload ...]

Every operation of every pool case runs once through the CLI.  Before
anything is written, the outputs are checked against facts that do not
come from the program's own code paths:

- corpus verdicts, certificates and validation notes match the known
  answers in tests/golden.py;
- every witness printed satisfies q = inverse(x) * y under the product
  formula below, with x and y in one row (the R relation);
- every crosscheck whose closure probe found no counterexample says
  result=PASS, and every crosscheck-dense spec passes the probe;
- no operation raises.

The exit code and a digest of stdout of each operation, plus flags for
the input-property report, go to expected/<workload>.json.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

ELEMENT = r"\((\d+),(\d+)\)"
WITNESS_RE = re.compile(rf"q={ELEMENT} x={ELEMENT} y={ELEMENT} scheme=\S+")


def product(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(k, l)(m, n) = (k - l + t, n - m + t) with t = max(l, m)."""
    (k, l), (m, n) = x, y
    t = max(l, m)
    return k - l + t, n - m + t


def parse_element(text: str) -> tuple[int, int]:
    i, j = re.fullmatch(ELEMENT, text).groups()
    return int(i), int(j)


def line_value(stdout: str, key: str):
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return line[len(key) + 1 :]
    return None


def check_witness(argv, code, stdout, problems) -> None:
    if code != 0:
        return
    match = WITNESS_RE.fullmatch(stdout.strip())
    if match is None:
        problems.append(f"{argv}: unreadable witness {stdout!r}")
        return
    m, n, a, b, c, d = (int(g) for g in match.groups())
    if (m, n) != parse_element(argv[2]) or product((b, a), (c, d)) != (m, n) or a != c:
        problems.append(f"{argv}: witness {stdout.strip()} fails q = inverse(x) * y with x R y")


def check_crosscheck(argv, code, stdout, problems) -> None:
    if line_value(stdout, "closure") == "ok" and line_value(stdout, "result") != "PASS":
        problems.append(f"{argv}: closure holds but crosscheck says {line_value(stdout, 'result')}")


def check_corpus(entry, results, problems) -> None:
    """`results` maps each command (decide --right as 'decide-right') to (code, stdout)."""
    code, stdout = results["classify"]
    if line_value(stdout, "form") != entry.form or line_value(stdout, "valid") != ("yes" if entry.valid else "no"):
        problems.append(f"corpus {entry.name}: classify says {stdout!r}")
    if not entry.valid:
        if entry.violation not in stdout:
            problems.append(f"corpus {entry.name}: violation {entry.violation!r} not reported")
        for command in ("decide", "decide-right", "witness"):
            if results[command][0] != 2:
                problems.append(f"corpus {entry.name}: {command} on an invalid spec exits {results[command][0]}")
        return
    code, stdout = results["decide"]
    if line_value(stdout, "verdict") != ("yes" if entry.left_verdict else "no") or code != (0 if entry.left_verdict else 1):
        problems.append(f"corpus {entry.name}: decide says {stdout!r}")
    if entry.cert_element is not None and line_value(stdout, "certificate.element") != str(entry.cert_element):
        problems.append(f"corpus {entry.name}: certificate element differs in {stdout!r}")
    if entry.cert_reason is not None and line_value(stdout, "certificate.reason") != entry.cert_reason:
        problems.append(f"corpus {entry.name}: certificate reason differs in {stdout!r}")


def record(workload: str, cli, known: dict) -> dict:
    """`known` maps corpus names to their golden entries."""
    corpus = {}
    if workload == "decide-mix":
        corpus = {name: entry.text() for name, entry in known.items()}
    pool = workloads.WORKLOADS[workload](corpus)
    problems: list[str] = []
    cases = {}
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK_DIR))
    try:
        spec_path = work / "case.spec"
        for case in pool:
            if case.spec is not None:
                spec_path.write_text(case.spec, encoding="utf-8")
            outcomes, results, flags = [], {}, ""
            for argv in case.ops:
                argv = [str(spec_path) if a == workloads.SPEC else a for a in argv]
                _, code, stdout = run.run_op(cli.main, argv)
                if code is None:
                    problems.append(f"{case.key} {argv}: raised")
                outcomes.append(run.outcome(code, stdout))
                command = "decide-right" if "--right" in argv else argv[0]
                results[command] = (code, stdout)
                if command == "witness":
                    check_witness(argv, code, stdout, problems)
                if command == "crosscheck":
                    check_crosscheck(argv, code, stdout, problems)
            if case.stratum == "corpus":
                check_corpus(known[case.key.split("/", 1)[1]], results, problems)
            if "decide" in results and results["decide"][0] == 0:
                flags += "y"
            if "crosscheck" in results and line_value(results["crosscheck"][1], "verdict") == "yes":
                flags += "y"
            if "classify" in results and results["classify"][0] == 1:
                flags += "i"
            if "crosscheck" in results and (line_value(results["crosscheck"][1], "closure") or "").startswith(
                "counterexample"
            ):
                flags += "c"
            if workload == "crosscheck-dense" and "c" in flags:
                problems.append(f"{case.key}: dense specs are meant to be closed, the probe found a counterexample")
            cases[case.key] = [flags, outcomes]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        raise run.BenchError(f"{workload}: {len(problems)} problems, nothing recorded:\n" + "\n".join(problems))
    return {
        "workload": workload,
        "pool_seed": workloads.POOL_SEED,
        "pool_digest": workloads.pool_digest(pool),
        "corpus": corpus,
        "cases": cases,
    }


def write(path: Path, data: dict) -> None:
    """JSON with one case per line, so a re-recording diffs line by line."""
    head = {k: v for k, v in data.items() if k != "cases"}
    lines = [json.dumps(head)[:-1] + ', "cases": {']
    lines.append(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in data["cases"].items()))
    lines.append("}}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    try:
        run.import_program()
        sys.path.insert(0, str(run.ROOT / "tests"))
        from golden import CORPUS

        known = {entry.name: entry for entry in CORPUS}
        cli = sys.modules["bicyclic.cli"]
        run.WORK_DIR.mkdir(exist_ok=True)
        run.EXPECTED_DIR.mkdir(exist_ok=True)
        for name in names:
            data = record(name, cli, known)
            write(run.EXPECTED_DIR / f"{name}.json", data)
            print(f"recorded {name}: {len(data['cases'])} cases")
    except run.BenchError as exc:
        print(f"error={exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
