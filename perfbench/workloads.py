"""Seeded inputs for the benchmark workloads.

Every workload draws its operation list from a fixed pool of cases.  A
case is one spec file (none for the arithmetic calls) plus the CLI
argument lists run against it; ``SPEC`` in an argument list stands for
the path of the case's spec file.  The pool comes from a fixed pool
seed, so the expected output of every case can be recorded once from a
known-good commit (``record.py``) and checked on every run.  The
benchmark's ``--seed`` only chooses which pool cases make up the run's
operation list: one case from every stratum, where a stratum fixes what
sets the cost of its calls, so every seed gets the same mix of forms,
sizes and windows and about the same amount of work.

Every spec in a pool is unique.  An operation list therefore never
repeats a spec except for the several queries one case makes on its own
spec, so the ``lru_cache`` on ``validate`` helps exactly where it helps
a real session: repeated queries on one spec.  The harness runs every
repetition of the list in a fresh interpreter, so nothing cached carries
from one repetition to the next.

Only integer-valued ``random.Random`` methods are used, which give the
same numbers on every platform; the recorded pool digest catches any
drift all the same.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

SPEC = "SPEC"
POOL_SEED = 20111107

# Bit-length ranges of the size classes: values from 1 to about 10**5.
SIZE_BITS = ((1, 4), (5, 7), (8, 10), (11, 14), (15, 17))
FORMS = ("diagonal", "upper", "lower", "twosided-i", "twosided-ii")


@dataclass(frozen=True)
class Case:
    key: str
    stratum: str
    spec: Optional[str]
    ops: tuple[tuple[str, ...], ...]


# ----------------------------------------------------------------------
# spec text


def _elements(pairs) -> str:
    return ",".join(f"({i},{j})" for i, j in sorted(set(pairs)))


def _ints(values) -> str:
    return ",".join(str(v) for v in sorted(set(values)))


def _row_family(form, d, n, fixed, residues, default_m, fd=(), rows=()) -> str:
    lines = [
        f"form={form}",
        f"d={d}",
        f"N={n}",
        f"I0={_ints(fixed)}",
        f"R={_ints(residues)}",
        f"default_m={default_m}",
    ]
    if fd:
        lines.append(f"FD={_elements(fd)}")
    for row, m, extra in rows:
        lines.append(f"row={row} m={m} F={_elements(extra)}")
    return "\n".join(lines) + "\n"


def _two_sided(form, q, p, d, rows, offsets, fd=(), triangle=()) -> str:
    lines = [f"form={form}", f"q={q}", f"p={p}", f"d={d}", f"I={_ints(rows)}", f"P={_ints(offsets)}"]
    if fd:
        lines.append(f"FD={_elements(fd)}")
    if triangle:
        lines.append(f"F={_elements(triangle)}")
    return "\n".join(lines) + "\n"


def _diagonal(points, tail) -> str:
    lines = ["form=diagonal"]
    if points:
        lines.append(f"elements={_elements((k, k) for k in points)}")
    if tail is not None:
        lines.append("tail_N={} tail_d={} tail_r={}".format(*tail))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# random helpers


def _sized(rng: random.Random, cls: int) -> int:
    """Log-uniform integer of size class `cls` (bit length drawn first)."""
    lo, hi = SIZE_BITS[cls]
    bits = rng.randint(lo, hi)
    return rng.randrange(1 << (bits - 1), 1 << bits)


def _subset(rng: random.Random, values, k: int) -> list[int]:
    """k distinct members of a list or range (fewer if it is shorter)."""
    return rng.sample(values, min(k, len(values)))


def _element(rng: random.Random, cls: int) -> str:
    return f"({_sized(rng, cls)},{_sized(rng, cls)})"


def _row_extras(rng: random.Random, row: int, d: int, below: int, count: int):
    """Up to `count` extra members of `row`, spaced by d, below column `below`."""
    cols = range(row, max(row + 1, below), d)
    return [(row, j) for j in _subset(rng, cols, count)]


# ----------------------------------------------------------------------
# decide-mix: every form, parameters and witness coordinates spread over
# the size classes, one spec in twelve invalid.
#
# Each stratum is one slot whose shape fixes what sets the cost of its
# four calls: the verdict the spec is built for, validity, d, the large
# parameters (p, N, default_m, row thresholds) and the witness element.
# The pool holds two twins per slot that differ only in the rest, and the
# seed picks one of them, so every seed gets the same ladder of sizes.

SLOTS = 12


@dataclass(frozen=True)
class _Shape:
    """What sets the cost of a decide-mix slot; both twins share it."""

    yes: bool
    invalid: bool
    d: int
    small: int
    sizes: tuple[int, int, int]
    element: str


def _shape(form: str, cls: int, slot: int) -> _Shape:
    rng = random.Random(f"{POOL_SEED}/{form}/{cls}/{slot}")
    return _Shape(
        yes=form != "diagonal" and slot % 2 == 0,
        invalid=slot == SLOTS - 1,
        d=rng.choice((1, 1, 2, 3)),
        small=rng.randint(1, 6),
        sizes=(_sized(rng, cls), _sized(rng, cls), _sized(rng, cls)),
        element=_element(rng, cls),
    )


def _decide_upper_or_lower(rng: random.Random, form: str, shape: _Shape) -> str:
    n, default_m, row_m = shape.sizes
    fd = [(0, 0)] if rng.randrange(2) else ()
    if shape.yes:
        # Unit spacing and, for upper, row 0 with its prefix patched in;
        # for lower, every column index present.
        if form == "upper":
            m0 = rng.randint(0, 6)
            fixed = [0] + _subset(rng, range(1, shape.small), rng.randint(0, 3))
            rows = [(0, m0, [(0, j) for j in range(m0)])]
            return _row_family(form, 1, shape.small, fixed, [0], default_m, fd=fd, rows=rows)
        rows = [(r, rng.randint(0, 9), []) for r in _subset(rng, range(6), rng.randint(0, 2))]
        return _row_family(form, 1, shape.small, range(shape.small), [0], default_m, fd=fd, rows=rows)
    d = shape.d
    fixed = _subset(rng, range(n), rng.randint(0, 5))
    residues = _subset(rng, range(d), rng.randint(0 if fixed else 1, d))
    rows = [(row, row_m, _row_extras(rng, row, d, row_m, rng.randint(0, 3))) for row in _subset(rng, fixed, 2)]
    return _row_family(form, d, n, fixed, residues, default_m, rows=rows)


def _decide_two_sided(rng: random.Random, form: str, shape: _Shape) -> str:
    fd = [(0, 0)] if rng.randrange(2) else []
    if shape.yes:
        # d = 1, q = 0, and for form (i) the identity row patched in below
        # p, for form (ii) every column below p.
        p = shape.small + 2
        triangle = [(i, j) for i in range(p) for j in range(i, p) if rng.randrange(4) == 0]
        if form == "twosided-i":
            rows = [0] + _subset(rng, range(1, p), rng.randint(0, 3))
            triangle += [(0, h) for h in range(len(fd), p)]
            return _two_sided(form, 0, p, 1, rows, [0], fd, triangle)
        return _two_sided(form, 0, p, 1, range(p), [0], fd, triangle)
    d = shape.d
    p = shape.sizes[0] + 1
    q = rng.randint(0, min(p - 1, 4))
    rows = [q] + _subset(rng, range(q + 1, p), rng.randint(0, 4))
    offsets = [0] + _subset(rng, range(1, d), rng.randint(0, d - 1))
    fd = [(k, k) for k in _subset(rng, range(q + 1), rng.randint(0, 2))]
    corners = _subset(rng, range(q, p), rng.randint(0, 3))
    triangle = [(i, rng.randint(i, min(p - 1, i + 8))) for i in corners]
    return _two_sided(form, q, p, d, rows, offsets, fd, triangle)


def _decide_diagonal(rng: random.Random, shape: _Shape) -> str:
    points = shape.sizes[: rng.randint(0, 3)]
    d = rng.randint(1, 6)
    tail = (shape.sizes[1], d, rng.randrange(d)) if not points or rng.randrange(4) else None
    return _diagonal(points, tail)


def _invalidate(text: str, form: str) -> str:
    """Break one parameter constraint, so validation has something to report."""
    if form == "diagonal":
        return text + "# off the diagonal\nelements=(0,1)\n" if "elements=" not in text else text.replace(
            "elements=", "elements=(0,1),"
        )
    if form in ("upper", "lower"):
        # A diagonal point beyond the column strip.
        return text + "FD=(999999,999999)\n" if "FD=" not in text else text.replace("FD=", "FD=(999999,999999),")
    # A square offset that is not a residue mod d <= 3.
    return text.replace("\nP=", "\nP=7,")


def _decide_spec(rng: random.Random, form: str, shape: _Shape) -> str:
    if form == "diagonal":
        text = _decide_diagonal(rng, shape)
    elif form in ("upper", "lower"):
        text = _decide_upper_or_lower(rng, form, shape)
    else:
        text = _decide_two_sided(rng, form, shape)
    return _invalidate(text, form) if shape.invalid else text


def _spec_ops(element: str) -> tuple[tuple[str, ...], ...]:
    return (("classify", SPEC), ("decide", SPEC), ("decide", SPEC, "--right"), ("witness", SPEC, element))


def _twins(make: Callable[[], str], seen: set[str]) -> list[str]:
    """Two spec texts from `make` that no earlier case uses."""
    found: list[str] = []
    for _ in range(1000):
        text = make()
        if text not in seen:
            seen.add(text)
            found.append(text)
            if len(found) == 2:
                return found
    raise ValueError("cannot make two distinct twins for a slot")


def _decide_mix_pool(corpus: dict[str, str]) -> list[Case]:
    rng = random.Random(POOL_SEED)
    seen: set[str] = set(corpus.values())
    cases = []
    for name in sorted(corpus):
        cases.append(Case(f"corpus/{name}", "corpus", corpus[name], _spec_ops(_element(rng, 1))))
    for form in FORMS:
        for cls in range(len(SIZE_BITS)):
            for slot in range(SLOTS):
                shape = _shape(form, cls, slot)
                texts = _twins(lambda: _decide_spec(rng, form, shape), seen)
                for twin, text in enumerate(texts):
                    stratum = f"{form}/s{cls}/{slot:02d}"
                    cases.append(Case(f"{stratum}/{twin}", stratum, text, _spec_ops(shape.element)))
    for slot in range(60):
        cls = slot % len(SIZE_BITS)
        shape = _shape("arith", cls, slot)
        length = _sized(random.Random(f"{POOL_SEED}/arith/{slot}"), min(cls, 3))
        for twin in range(2):
            word = "".join(rng.choice("ab") for _ in range(length))
            ops = (("mul", shape.element, _element(rng, cls)), ("inv", _element(rng, cls)), ("normalize", word))
            cases.append(Case(f"arith/{slot:02d}/{twin}", f"arith/{slot:02d}", None, ops))
    return cases


# ----------------------------------------------------------------------
# The windowed workloads fix, per stratum, every parameter that sets the
# cost of a call: the window, the form, d, p and default_m, which fix the
# pair bound 3 * (2 * window + p + default_m + 4) of the membership scan,
# and the number of rows.  The seed varies the rest (diagonal parts,
# triangle parts, row overrides, which rows), so every seed's operation
# list costs about the same.


def _windowed_pool(families, windows, variants, make, commands) -> list[Case]:
    rng = random.Random(POOL_SEED)
    seen: set[str] = set()
    cases = []
    for family in families:
        for window in windows:
            made = 0
            while made < variants:
                text = make(rng, family, window)
                if text in seen:
                    continue
                seen.add(text)
                w = str(window)
                ops = tuple((cmd, SPEC, "--window", w) for cmd in commands)
                cases.append(Case(f"{family}/w{window}/{made}", f"{family}/w{window}", text, ops))
                made += 1
    return cases


# crosscheck-dense: d = 1 specs that fill most of the window, through
# crosscheck and coverage.  Every one of them is closed (record.py checks
# it), so the closure probe runs over the whole window instead of
# stopping at a counterexample.

DENSE_FAMILIES = ("twosided-i", "twosided-ii", "lower", "upper")
DENSE_WINDOWS = (8, 10, 12, 14, 16)


def _dense_spec(rng: random.Random, family: str, window: int) -> str:
    if family in ("twosided-i", "twosided-ii"):
        fd = [(0, 0)] if rng.randrange(2) else []
        triangle = [e for e in ((0, 0), (0, 1), (1, 1)) if rng.randrange(2)]
        return _two_sided(family, 0, 2, 1, range(2), [0], fd, triangle)
    # I0 = {0..N-1} with R = {0} is every index whatever N is; overrides
    # only lower thresholds below default_m = 2.
    n = rng.randint(0, 3)
    rows = [(r, rng.randint(0, 2), []) for r in _subset(rng, (1, 3), rng.randint(0, 2))]
    fd = [(0, 0)] if family == "lower" else ()
    return _row_family(family, 1, n, range(n), [0], 2, fd=fd, rows=rows)


def _dense_pool(corpus: dict[str, str]) -> list[Case]:
    return _windowed_pool(DENSE_FAMILIES, DENSE_WINDOWS, 3, _dense_spec, ("crosscheck", "coverage"))


# coverage-sparse: d in {2, 3}, two rows or columns, or a diagonal tail,
# through coverage, render and crosscheck.  Row extras below a row's
# threshold make some of them fail the closure probe.

SPARSE_FAMILIES = ("upper", "lower", "diagonal")
SPARSE_WINDOWS = (30, 36, 42, 48, 54, 60)


def _sparse_spec(rng: random.Random, family: str, window: int) -> str:
    d = 2 if window % 12 == 0 else 3
    if family == "diagonal":
        points = _subset(rng, range(12), rng.randint(0, 3))
        return _diagonal(points, (rng.randint(0, 12), d, rng.randrange(d)))
    fixed = _subset(rng, range(8), 2)
    rows = []
    for row in _subset(rng, fixed, rng.randint(0, 2)):
        m = row + d * rng.randint(0, 2)
        rows.append((row, m, _row_extras(rng, row, d, m, rng.randint(0, 2))))
    lo = min(fixed)
    fd = [(lo, lo)] if rng.randrange(3) == 0 else ()
    return _row_family(family, d, 8, fixed, (), 6, fd=fd, rows=rows)


def _sparse_pool(corpus: dict[str, str]) -> list[Case]:
    return _windowed_pool(SPARSE_FAMILIES, SPARSE_WINDOWS, 4, _sparse_spec, ("coverage", "render", "crosscheck"))


# ----------------------------------------------------------------------

# Each workload's pool, made from the corpus texts (which only
# decide-mix uses).
WORKLOADS: dict[str, Callable[[dict[str, str]], list[Case]]] = {
    "decide-mix": _decide_mix_pool,
    "crosscheck-dense": _dense_pool,
    "coverage-sparse": _sparse_pool,
}


def pool_digest(cases: list[Case]) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(repr((case.key, case.stratum, case.spec, case.ops)).encode())
    return h.hexdigest()


def select(workload: str, cases: list[Case], seed: int) -> list[Case]:
    """The operation list for `seed`: one case from every stratum.

    Every corpus case is always included; the chosen cases run in a
    seeded order.
    """
    rng = random.Random(f"{workload}:{seed}")
    strata: dict[str, list[Case]] = {}
    for case in cases:
        strata.setdefault(case.stratum, []).append(case)
    chosen = []
    for stratum, members in strata.items():
        chosen.extend(members if stratum == "corpus" else [rng.choice(members)])
    rng.shuffle(chosen)
    return chosen
