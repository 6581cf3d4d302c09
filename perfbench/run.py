#!/usr/bin/env python3
"""End-to-end benchmark of the bicyclic command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide-mix --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` and drives ``bicyclic.cli.main``
in-process: one single-threaded caller in a closed loop, each operation
sent when the previous one returned.  The seed picks the workload's
operation list from its recorded pool (see ``workloads.py``); the list
is written out as spec files and run a fixed number of times, each pass
in a fresh interpreter (``worker.py``), so no state the program keeps in
memory carries from one pass into the next.  The pass count is
``round(--seconds / PASS_SECONDS[workload])``, set by the benchmark and
not by the program's speed.

Every operation's exit code and stdout are compared with the output
recorded for that case (``expected/``); a mismatch or an exception is a
failed operation, counted rather than fatal.

With ``--trace 0`` the last line reports the end-to-end metrics:

    setup_s       median time of ``import bicyclic`` in a fresh interpreter,
                  SETUP_SAMPLES imports spread between the passes
    wall_s        time to finish the operation list once
    ops_per_s     operations of the list per second of wall_s
    op_p50_ms     median per-operation latency
    op_tail_ms    latency at the highest percentile with >= 10 samples beyond it
    ok_frac       operations with the recorded output / operations attempted
    peak_rss_mb   median over the passes of the pass process's peak
                  resident memory

Each operation of the list is timed as the fastest of its passes, and
these per-operation times are the samples: wall_s is their sum, and the
latency percentiles are taken over them.  Every pass runs the same
operations from the same fresh state, garbage collections included, so
a slower repetition measures other processes on the machine, not the
program; a shared machine has slowdowns lasting seconds that a single
pass time, or even a median of a few passes, would absorb.  The tail's
percentile, the sample count and the median pass time are printed above
the result.  ``ok_frac`` is ``1 - failed_frac``, so that no metric is
zero.

With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics of ``tracing.py`` per pass, together with
the tracing overhead.  The lines above the result give the run's context
and the properties of its inputs.

``python3 perfbench/record.py`` re-records the expected outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

EXPECTED_DIR = HERE / "expected"
WORK_DIR = ROOT / ".perfbench"
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


# ----------------------------------------------------------------------
# the program


def import_program():
    """Import bicyclic from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    if not (src / "bicyclic" / "__init__.py").is_file():
        raise BenchError(f"no bicyclic package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import bicyclic
    import bicyclic.cli

    if Path(bicyclic.__file__).resolve().parent != (src / "bicyclic").resolve():
        raise BenchError(f"imported bicyclic from {bicyclic.__file__}, not from {src}")
    return bicyclic


def import_seconds() -> float:
    """Time of ``import bicyclic`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import bicyclic; print(time.perf_counter() - t); print(bicyclic.__file__)"
    )
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, "-c", code, src], cwd=ROOT, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"importing bicyclic failed:\n{done.stderr}")
    seconds, path = done.stdout.split()
    if not Path(path).resolve().is_relative_to(Path(src).resolve()):
        raise BenchError(f"the set-up import loaded {path}, not the checkout's package")
    return float(seconds)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def run_op(main: Callable, argv: list[str]) -> tuple[float, Optional[int], str]:
    """One CLI call: (seconds, exit code or None if it raised, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation; the run goes on
            code = None
            trace = traceback.format_exc()
        seconds = perf_counter() - start
    if code is None:
        print(f"operation {argv} raised:\n{trace}", file=sys.stderr)
    return seconds, code, out.getvalue()


def outcome(code: Optional[int], stdout: str) -> str:
    return f"{code}:{digest(stdout)}"


# ----------------------------------------------------------------------
# inputs


def load_expected(name: str) -> dict:
    path = EXPECTED_DIR / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"no recorded outputs at {path}; run perfbench/record.py")
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class OpList:
    """The operations of one pass, with the recorded outcome of each."""

    cases: list[workloads.Case]
    case_flags: list[str] = field(default_factory=list)
    argvs: list[list[str]] = field(default_factory=list)
    expected: list[str] = field(default_factory=list)


def build_ops(workload: str, seed: int, work: Path) -> OpList:
    """Write the seed's spec files under `work` and list their operations."""
    recorded = load_expected(workload)
    pool = workloads.WORKLOADS[workload](recorded["corpus"])
    if workloads.pool_digest(pool) != recorded["pool_digest"]:
        raise BenchError(f"the {workload} pool differs from the recorded one; run perfbench/record.py")
    ops = OpList(workloads.select(workload, pool, seed))
    for n, case in enumerate(ops.cases):
        spec_path = work / f"case{n:04d}.spec"
        if case.spec is not None:
            spec_path.write_text(case.spec, encoding="utf-8")
        flags, outcomes = recorded["cases"][case.key]
        ops.case_flags.append(flags)
        for argv, expected in zip(case.ops, outcomes):
            ops.argvs.append([str(spec_path) if a == workloads.SPEC else a for a in argv])
            ops.expected.append(expected)
    return ops


def input_properties(ops: OpList, parse_spec_unchecked: Callable) -> list[str]:
    """Context lines describing the run's inputs.

    Flags recorded per case: y = left verdict yes, i = invalid spec,
    c = the closure probe found a counterexample.
    """
    forms: dict[str, int] = {}
    windows, ps = set(), set()
    spec_flags, crosschecked = [], []
    for case, flags in zip(ops.cases, ops.case_flags):
        spec = None if case.spec is None else parse_spec_unchecked(case.spec)
        form = "arith" if spec is None else spec.form
        forms[form] = forms.get(form, 0) + 1
        if spec is None:
            continue
        spec_flags.append(flags)
        if hasattr(spec, "p"):
            ps.add(spec.p)
        for argv in case.ops:
            if "--window" in argv:
                windows.add(int(argv[argv.index("--window") + 1]))
            if argv[0] == "crosscheck":
                crosschecked.append(flags)
    specs = [case.spec for case in ops.cases if case.spec is not None]

    def span(values) -> str:
        return f"{min(values)}-{max(values)}" if values else "none"

    def share(flag: str, among: list[str]) -> str:
        return f"{sum(flag in f for f in among) / len(among):.3f}" if among else "none"

    return [
        f"input.cases={len(ops.cases)}",
        f"input.operations={len(ops.argvs)}",
        "input.forms=" + ",".join(f"{k}:{v}" for k, v in sorted(forms.items())),
        f"input.windows={span(windows)}",
        f"input.p={span(ps)}",
        f"input.yes_share={share('y', spec_flags)}",
        f"input.invalid_share={share('i', spec_flags)}",
        f"input.closure_fail_share={share('c', crosschecked)}",
        f"input.specs_unique={'yes' if len(set(specs)) == len(specs) else 'no'}",
    ]


# ----------------------------------------------------------------------
# measuring


# About the seconds one pass of each workload takes, interpreter start
# included, at the commit that defined the benchmark, on a quiet 2-core
# Xeon VM with Python 3.11.7, rounded so that a 25-second run makes 10, 4
# and 5 passes.  A run makes
# round(--seconds / PASS_SECONDS) passes.  The count depends on these
# constants and --seconds alone, never on how fast the program runs, so
# two versions compared with the same settings get the same number of
# samples.
PASS_SECONDS = {"decide-mix": 2.5, "crosscheck-dense": 6.25, "coverage-sparse": 5.0}
SETUP_SAMPLES = 15
# A run must end within 180 s: no pass starts that would, at the run's
# average pass time so far, end later than RUN_LIMIT seconds after the
# first one started.  Only a much slower program meets this limit.
RUN_LIMIT = 150


@dataclass
class Passes:
    """Every pass's samples, per operation of the list."""

    latencies: list[list[float]]
    pass_s: list[float] = field(default_factory=list)
    peak_rss_mb: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def fits(start: float, done: int) -> bool:
    """Whether one more round like the `done` ones since `start` ends within RUN_LIMIT."""
    return done == 0 or (perf_counter() - start) * (done + 1) / done <= RUN_LIMIT


def run_pass(ops: OpList, job: Path, into: Passes, trace: bool = False) -> Optional[dict]:
    """Run the list once in a fresh interpreter (``worker.py``); returns its trace totals."""
    command = [sys.executable, str(HERE / "worker.py"), str(job), "1" if trace else "0"]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass took more than {RUN_LIMIT} s") from None
    if done.returncode != 0:
        raise BenchError(f"a pass exited with code {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    for k, (seconds, got) in enumerate(zip(result["seconds"], result["outcomes"], strict=True)):
        into.latencies[k].append(seconds)
        into.failed += got != ops.expected[k]
    into.attempted += len(result["seconds"])
    into.pass_s.append(result["pass_s"])
    into.peak_rss_mb.append(result["peak_rss_mb"])
    return result["trace"]


def measure(ops: OpList, job: Path, count: int) -> Passes:
    """`count` passes (fewer only at RUN_LIMIT), with SETUP_SAMPLES set-up
    imports spread between them.

    The machine's speed drifts over seconds, so set-up samples spread over
    the run give a steadier median than samples taken back to back.
    """
    passes = Passes([[] for _ in ops.argvs])
    start = perf_counter()
    for n in range(count):
        if not fits(start, n):
            break
        samples = SETUP_SAMPLES * (n + 1) // count - SETUP_SAMPLES * n // count
        passes.setup_s += [import_seconds() for _ in range(samples)]
        run_pass(ops, job, passes)
    return passes


def measure_traced(ops: OpList, job: Path, count: int) -> tuple[Passes, Passes, tracing.Tracer]:
    """Alternate untraced and traced passes, `count` in all (at least one pair)."""
    plain, traced = Passes([[] for _ in ops.argvs]), Passes([[] for _ in ops.argvs])
    tracer = tracing.Tracer()
    start = perf_counter()
    for n in range(max(1, count // 2)):
        if not fits(start, n):
            break
        run_pass(ops, job, plain)
        tracer.merge(run_pass(ops, job, traced, trace=True))
    return plain, traced, tracer


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100 * (rank + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def op_times(passes: Passes) -> list[float]:
    """Each operation's time: the fastest of its repetitions."""
    return [min(lat) for lat in passes.latencies if lat]


def end_to_end(passes: Passes) -> tuple[dict, list[str]]:
    samples = op_times(passes)
    wall_s = sum(samples)
    tail_s, tail_pct = tail(samples)
    ok = passes.attempted - passes.failed
    values = {
        "setup_s": (statistics.median(passes.setup_s), "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (len(samples) / wall_s, "1/s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "ok_frac": (ok / passes.attempted, "ratio"),
        "peak_rss_mb": (statistics.median(passes.peak_rss_mb), "MB"),
    }
    notes = [
        f"passes={len(passes.pass_s)}",
        f"pass_s.median={statistics.median(passes.pass_s):.6g}",
        f"setup_samples={len(passes.setup_s)}",
        f"op_samples={len(samples)}",
        f"op_tail_percentile={tail_pct:.2f}",
        f"failed_frac={passes.failed / passes.attempted}",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, notes


def context_lines(bicyclic, workload: str, seed: int) -> list[str]:
    return [
        f"context.workload={workload}",
        f"context.seed={seed}",
        f"context.python={sys.version.split()[0]}",
        f"context.kernel={getattr(bicyclic, 'KERNEL', 'absent')}",
        f"context.pure_kernel_env={'set' if os.environ.get('BICYCLIC_PURE_KERNEL') else 'unset'}",
        f"context.nproc={len(os.sched_getaffinity(0))}",
    ]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and prints the lines above it."""
    bicyclic = import_program()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        ops = build_ops(workload, seed, work)
        job = work / "job.json"
        job.write_text(json.dumps(ops.argvs), encoding="utf-8")
        parse = sys.modules["bicyclic.specfile"].parse_spec_unchecked
        lines = context_lines(bicyclic, workload, seed) + input_properties(ops, parse)
        count = pass_count(workload, seconds)
        if trace:
            plain, traced, tracer = measure_traced(ops, job, count)
            metrics = tracer.metrics(
                len(traced.pass_s), statistics.mean(traced.pass_s), sum(op_times(traced)) - sum(op_times(plain))
            )
            lines.append("trace.absent=" + (",".join(tracer.absent) or "none"))
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
        else:
            passes = measure(ops, job, count)
            metrics, notes = end_to_end(passes)
            lines += notes
            attempted, failed = passes.attempted, passes.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    for name, metric in metrics.items():
        print(f"metric.{name}={metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the bicyclic CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error={exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
