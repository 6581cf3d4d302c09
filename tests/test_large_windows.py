"""Large windows: coverage, crosscheck and render past the transcripts' windows 0-12.

`large_windows.json` holds, for each valid corpus spec and each command
in `ARGVS`, the exit code and a digest of stdout.  At window 500 the
coverage engine's masks run to 501 bits, at window 80 crosscheck
runs the engine and the closure probe on a grid past 64 columns, and
render writes 501 rows, most of them shifts of the rows below; a change
that alters an exit code or a byte of stdout there fails here.  Five
specs are refused at window 80, as their default pair bound is 501, past
the limit; the refusal is pinned as well.

Re-record only when an output is meant to change, and say which:

    PYTHONPATH=src python3 tests/test_large_windows.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from bicyclic import cli
from golden import CORPUS

RECORD = Path(__file__).resolve().parent / "large_windows.json"
ARGVS = (
    ["coverage", "SPEC", "--window", "500", "--pairs", "500"],
    ["crosscheck", "SPEC", "--window", "80"],
    ["render", "SPEC", "--window", "500"],
)
VALID = [entry for entry in CORPUS if entry.valid]


def run(argv: list[str], path: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run on the spec file at `path`,
    usage errors and --help included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(path) if a == "SPEC" else a for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def outcomes(path: Path) -> list[list]:
    """[exit code, stdout digest] of each run in ARGVS."""
    runs = []
    for argv in ARGVS:
        code, out, _ = run(argv, path)
        runs.append([code, hashlib.sha256(out.encode()).hexdigest()])
    return runs


def test_large_window_output_matches_the_record():
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert record["argvs"] == [list(argv) for argv in ARGVS]
    assert sorted(record["specs"]) == sorted(entry.name for entry in VALID)
    assert len(VALID) == 16
    changed = [entry.name for entry in VALID if outcomes(entry.path) != record["specs"][entry.name]]
    assert not changed, f"large-window output changed on {len(changed)} specs: {changed}"


def _record() -> None:
    specs = {entry.name: outcomes(entry.path) for entry in VALID}
    RECORD.write_text(json.dumps({"argvs": ARGVS, "specs": specs}, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(specs)} specs x {len(ARGVS)} runs to {RECORD}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    _record()
