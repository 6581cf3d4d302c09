"""CLI transcripts: every output contract, byte for byte, against a record.

`cli_transcripts.json` holds the text of each corpus file and of 200
seeded random specs, valid and invalid, of all five forms (one in five
fills row 0 by finite parts), together with one digest per spec.  The digest covers, for every command in `ARGVS`,
the argv (with the spec path written as `SPEC`), the exit code, stdout
and stderr.  A change that alters any of them for any spec fails here.

Re-record only when an output is meant to change, and say which:

    PYTHONPATH=src python3 tests/test_cli_transcripts.py --record
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from bicyclic.cli import main

RECORD = Path(__file__).resolve().parent / "cli_transcripts.json"
CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
RANDOM_SEED = 20261018
RANDOM_SPECS = 200

WITNESS_ELEMENTS = ("(0,0)", "(3,1)", "(2,7)", "(1000000000000,5)")
ARGVS = (
    [["classify", "SPEC"], ["decide", "SPEC"], ["decide", "SPEC", "--right"]]
    + [["witness", "SPEC", q] for q in WITNESS_ELEMENTS]
    + [[command, "SPEC", "--window", str(w)] for command in ("render", "coverage", "crosscheck") for w in range(13)]
    + [["coverage", "SPEC", "--window", "6", "--pairs", str(b)] for b in (0, 3, 40, -1)]
)


def digest(path: Path) -> str:
    """One digest of every run in ARGVS on the spec file at `path`."""
    runs = []
    for argv in ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(path) if a == "SPEC" else a for a in argv])
        runs.append([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


def _ints(values) -> str:
    return ",".join(str(v) for v in sorted(values))


def _elements(pairs) -> str:
    return ",".join(f"({i},{j})" for i, j in sorted(pairs))


def _sample(rng, pool, most):
    pool = list(pool)
    return rng.sample(pool, rng.randint(0, min(most, len(pool))))


def random_spec_text(rng) -> str:
    """Spec text of a random form; small parameters, sometimes invalid.

    Row 0 is often filled by finite parts (row-0 overrides, a triangle
    on row 0), so the identity-row scans of the decisions see prefixes
    with and without a gap.
    """
    form = rng.choices(("diagonal", "upper", "lower", "twosided-i", "twosided-ii"), (1, 3, 2, 3, 2))[0]
    lines = [f"form={form}"]
    if form == "diagonal":
        lines.append("elements=" + _elements((k, k) for k in _sample(rng, range(6), 3)))
        if rng.random() < 0.6:
            d = rng.randint(1, 3)
            lines.append(f"tail_N={rng.randint(0, 5)} tail_d={d} tail_r={rng.randint(0, d)}")
        return "\n".join(lines) + "\n"
    d = rng.choice((1, 1, 1, 2, 3))
    if form in ("upper", "lower"):
        n = rng.randint(0, 5)
        fixed = _sample(rng, range(n), n)
        residues = rng.sample(range(d), rng.randint(1, d)) if rng.random() < 0.9 else []
        lines.append(f"d={d} N={n} I0={_ints(fixed)} R={_ints(residues)} default_m={rng.randint(0, 4)}")
        rows = [k for k in range(8) if k in fixed or (k >= n and k % d in residues)]
        strip = (min(rows) if rows else 0) + rng.choice((1, 1, 1, 2))
        lines.append("FD=" + _elements((k, k) for k in _sample(rng, range(strip), 2)))
        if rng.random() < 0.1:
            rows.append(rng.randint(0, 8))
        for row in _sample(rng, rows, 2):
            m = rng.randint(row, row + 9)
            if rng.random() < 0.6:
                extra = list(range(row, m, d))
                if extra and rng.random() < 0.4:
                    extra.remove(rng.choice(extra))
            else:
                extra = _sample(rng, range(row, m + 3, d), 3)
            lines.append(f"row={row} m={m} F=" + _elements((row, j) for j in extra))
        return "\n".join(lines) + "\n"
    q = rng.choice((0, 0, 1, 2))
    p = rng.randint(q + 1, q + 9)
    rows = {q} | set(_sample(rng, range(q, p), 4))
    offsets = {0} | set(_sample(rng, range(d), d))
    if rng.random() < 0.05:
        rows.add(p)
    triangle = set(_sample(rng, [(a, b) for a in range(q, p) for b in range(a, p)], 3))
    if rng.random() < 0.7:
        triangle |= {(q, b) for b in range(q, p)}
        if rng.random() < 0.5:
            triangle.discard((q, rng.randint(q, p - 1)))
    lines.append(f"q={q} p={p} d={d} I={_ints(rows)} P={_ints(offsets)}")
    lines.append("FD=" + _elements((k, k) for k in _sample(rng, range(q + rng.choice((1, 1, 1, 2))), 2)))
    lines.append("F=" + _elements(triangle))
    return "\n".join(lines) + "\n"


def row0_prefix_text(rng) -> str:
    """An upper or two-sided (i) spec whose finite parts fill row 0 up to
    a random column, often with one column left out."""
    d = rng.choice((1, 1, 1, 2))
    size = rng.randint(1, 30)
    cols = list(range(0, size, d))
    if rng.random() < 0.6:
        cols.remove(rng.choice(cols))
    if rng.random() < 0.5:
        m = size + rng.choice((0, 0, 1, 2))
        return f"form=upper\nd={d} N=1 I0=0 R=\nrow=0 m={m} F={_elements((0, j) for j in cols)}\n"
    fd = "(0,0)" if rng.random() < 0.3 else ""
    return f"form=twosided-i\nq=0 p={size} d={d} I=0 P=0\nFD={fd}\nF={_elements((0, j) for j in cols)}\n"


def spec_texts(seed: int = RANDOM_SEED, count: int = RANDOM_SPECS) -> dict[str, str]:
    texts = {path.stem: path.read_text(encoding="utf-8") for path in sorted(CORPUS_DIR.glob("*.spec"))}
    rng = random.Random(seed)
    for n in range(count):
        texts[f"random{n:03d}"] = row0_prefix_text(rng) if n % 5 == 0 else random_spec_text(rng)
    return texts


def test_cli_output_matches_the_record(tmp_path):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert record["argvs"] == ARGVS
    path = tmp_path / "spec.spec"
    changed = []
    for name, entry in record["specs"].items():
        path.write_text(entry["text"], encoding="utf-8")
        if digest(path) != entry["digest"]:
            changed.append(name)
    assert len(record["specs"]) == 221
    assert not changed, f"CLI output changed on {len(changed)} specs: {changed}"


def _record() -> None:
    import tempfile

    specs = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.spec"
        for name, text in spec_texts().items():
            path.write_text(text, encoding="utf-8")
            specs[name] = {"text": text, "digest": digest(path)}
    RECORD.write_text(json.dumps({"argvs": ARGVS, "specs": specs}, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(specs)} specs x {len(ARGVS)} runs = {len(specs) * len(ARGVS)} runs to {RECORD}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    _record()
