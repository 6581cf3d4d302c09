#!/usr/bin/env python3
"""One pass of an operation list, in a fresh interpreter.

``run.py`` starts this once per pass:

    python3 perfbench/worker.py JOB.json TRACE

JOB.json holds the pass's CLI argument lists.  Each one goes through
``bicyclic.cli.main`` in turn, and the last line of stdout is one JSON
object: every operation's seconds and outcome (exit code and stdout
digest), the peak resident memory of this process, and, with TRACE 1,
the per-layer totals of ``tracing.py``.

A fresh interpreter per pass means nothing the program keeps in memory
(the ``validate`` cache, or any memo table a later version adds) carries
from one pass into the next: every pass meets its specs for the first
time, as a new CLI session does.  The first operation also pays the
one-time costs of a first call, which every invocation of the CLI pays.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import run
import tracing


def one_pass(argvs: list[list[str]], trace: bool) -> dict:
    cli = sys.modules["bicyclic.cli"]
    tracer = tracing.Tracer() if trace else None
    seconds, outcomes = [], []
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        for argv in argvs:
            took, code, stdout = run.run_op(cli.main, argv)
            seconds.append(took)
            outcomes.append(run.outcome(code, stdout))
        pass_s = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "seconds": seconds,
        "outcomes": outcomes,
        "pass_s": pass_s,
        "peak_rss_mb": run.peak_rss_mb(),
        "trace": tracer.totals() if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    job, trace = argv
    run.import_program()
    argvs = json.loads(Path(job).read_text(encoding="utf-8"))
    print(json.dumps(one_pass(argvs, trace == "1")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
