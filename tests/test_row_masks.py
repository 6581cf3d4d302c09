"""Row masks, the one membership primitive, against the element oracle.

Grids, scalar membership and the closure probe are checked against the
test-only oracle in `membership_oracle`, on the corpus and on seeded
random specs of all five forms; decisions on huge parameters must not
grow with them; window-sized work is refused beyond the limit.
"""

import gc
import importlib
import random
import time
import weakref

import pytest

import membership_oracle as oracle
from bicyclic import (
    ClosureFailure,
    Diagonal,
    DiagonalTail,
    Element,
    IndexSet,
    Lower,
    RowData,
    RowOverride,
    TwoSidedI,
    TwoSidedII,
    Upper,
    closure_falsify,
    contains,
    coverage,
    cross_validate,
    decide_left_iorder,
    decide_right_iorder,
    decision_lines,
    decompose,
    multiply,
    parse_spec,
    render_window,
    validate,
    verify_witness,
)
from bicyclic.cli import main
from bicyclic.specfile import SpecSyntaxError, parse_spec_unchecked
from bicyclic.subsemigroups import _CACHE_SIZE, WINDOW_LIMIT, _SPARSE, _blocks, _grid, _last_start, _set_bits, _transpose
from golden import CORPUS_DIR
from test_cli import INT_STR_DIGITS, needs_int_str_limit
from test_random_specs import random_diagonal, random_row_family, random_two_sided, subset

fs = frozenset
FAR = 10**12


def random_specs(seed, count):
    """`count` valid specs, drawn evenly from the five forms."""
    rng = random.Random(seed)
    makers = (random_diagonal, random_row_family, random_two_sided)
    specs = []
    while len(specs) < count:
        spec = makers[len(specs) % 3](rng)
        if spec is not None and validate(spec).ok:
            specs.append(spec)
    return specs


def lift(spec, b):
    """The same spec moved b steps down the diagonal: (i, j) -> (i + b, j + b)."""
    up = lambda elements: fs(Element(e.i + b, e.j + b) for e in elements)
    if isinstance(spec, Diagonal):
        tail = spec.tail
        if tail is not None:
            tail = DiagonalTail(tail.start + b, tail.step, (tail.residue + b) % tail.step)
        return Diagonal(up(spec.elements), tail)
    if isinstance(spec, (Upper, Lower)):
        idx = spec.row_indices
        lifted = IndexSet(
            fs(k + b for k in idx.fixed),
            fs((r + b) % idx.step for r in idx.residues),
            idx.start + b,
            idx.step,
        )
        overrides = tuple(RowOverride(ov.row + b, ov.m + b, up(ov.extra)) for ov in spec.rows.overrides)
        return type(spec)(up(spec.diagonal_part), lifted, RowData(spec.rows.m_default + b, overrides))
    return type(spec)(
        spec.q + b, spec.p + b, spec.step, fs(k + b for k in spec.row_indices),
        spec.offsets, up(spec.diagonal_part), up(spec.triangle_part),
    )


def overridden_row_families(seed, count):
    """`count` valid upper and lower specs with 2-4 overrides on distinct rows.

    Some overrides carry extras, and some raise m above default_m, as far
    as FAR, so the rows show their extras and little else.
    """
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        d = rng.choice([1, 1, 2, 3])
        n = rng.randint(0, 4)
        idx = IndexSet(subset(range(n), rng), fs({0}) | subset(range(d), rng), n, d)
        m_default = rng.randint(0, 4)
        rows = [k for k in range(12) if k in idx]  # at least 6 and 9, as 0 is in R
        overrides = []
        for row in rng.sample(rows, rng.randint(2, min(4, len(rows)))):
            m = rng.choice([rng.randint(0, m_default), rng.randint(m_default + 1, 14), FAR])
            extras = subset([Element(row, row + d * u) for u in range(5)], rng)
            overrides.append(RowOverride(row, m, extras))
        fd = subset([Element(k, k) for k in range(idx.min() + 1)], rng, 2)
        cls = Upper if rng.random() < 0.5 else Lower
        spec = cls(fd, idx, RowData(m_default, tuple(overrides)))
        assert validate(spec).ok, spec
        specs.append(spec)
    return specs


def timed(call):
    """`call()` and its wall-clock seconds, the clock started on a collected heap.

    By the time these tests run, a full collection of the test session's
    heap takes about 0.15 s on a 2-core VM; one that lands inside the
    timed call would charge it to the call.
    """
    gc.collect()
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def grid_cells(spec, rows, cols):
    return {Element(i, j) for i, row in enumerate(_grid(spec, rows, cols)) for j in range(cols) if row >> j & 1}


def test_random_specs_cover_all_five_forms():
    forms = {spec.form for spec in random_specs(5, 800)}
    assert forms == {"diagonal", "upper", "lower", "twosided-i", "twosided-ii"}


def test_grids_equal_the_oracle(corpus_specs):
    # rows past the window (25 x 8), columns past it (8 x 25), and the
    # square window (13 x 13); lower forms put members below the diagonal (j < i)
    specs = list(corpus_specs.values()) + random_specs(11, 800) + overridden_row_families(17, 200)
    below_diagonal = 0
    for spec in specs:
        for rows, cols in ((25, 8), (8, 25), (13, 13)):
            expected = oracle.members(spec, rows, cols)
            assert grid_cells(spec, rows, cols) == expected, (spec, rows, cols)
            below_diagonal += any(e.j < e.i for e in expected)
        assert _grid(spec, 0, 5) == [] and _grid(spec, 3, 0) == [0, 0, 0]
        # coverage's scan at a pair bound below -1
        assert _grid(spec, -1, -1) == [] and _grid(spec, 0, 0) == []
    assert below_diagonal > 200


def row_by_row(spec, rows, cols):
    """The grid read with `row_bits` on every row, as `_grid` read it
    before the period rule."""
    if spec.reflected:
        return _transpose([spec.row_bits(j, 0, rows) for j in range(cols)], rows)
    return [spec.row_bits(i, 0, cols) for i in range(rows)]


def last_start_by_row(spec, rows):
    """`_last_start` read on every row, as it was before the period rule."""
    last = 0
    for i in range(rows):
        finite = spec._finite_columns.get(i)
        start = spec._start(i)
        last = max(last, finite[-1] if finite else 0, 0 if start is None else start)
    return last


def far_specs(seed, count):
    """`count` valid specs with far parameters: an override m that starts
    its row past every grid here, or a d, tail_d or p that puts T + d
    past them."""
    rng = random.Random(seed)
    specs = []
    for n in range(count):
        form = rng.choice(("upper", "lower"))
        d = rng.randint(1, 3)
        texts = (
            f"form={form}\nd={d} N=1 I0=0 R=\nrow=0 m={rng.randint(122, 1000)}\n",
            f"form={form}\nd=1 N=0 I0= R=0\nrow={rng.randint(0, 5)} m={10**18}\n",
            f"form=lower\nd={10**18} N=2 I0=0,1 R=0,{rng.randint(1, 10**6)}\n",
            f"form=diagonal\nelements=(1,1)\ntail_N={rng.randint(0, 9)} tail_d={10**18} tail_r={rng.randint(0, 99)}\n",
            f"form=twosided-ii\nq=0 p={10**18} d={d} I=0,{rng.randint(1, 99)} P=0\n",
        )
        specs.append(parse_spec(texts[n % len(texts)]))
    return specs


def test_grids_follow_the_period_rule(corpus_specs):
    # past row T + d of the upper orientation every row is a shift: the
    # grid and the last start must equal the ones read row by row, at
    # sizes short of T + d and past it, and on far specs
    rng = random.Random(31)
    specs = list(corpus_specs.values()) + random_specs(37, 1500) + overridden_row_families(41, 200)
    specs += far_specs(43, 250)
    past = far = 0
    for spec in specs:
        first, step, _ = spec._period
        edge = min(first + step + 2, 121)
        sizes = {(1, 1), (121, 121), (edge, 9), (9, edge), (rng.randint(1, 121), rng.randint(1, 121))}
        for rows, cols in sizes:
            assert _grid(spec, rows, cols) == row_by_row(spec, rows, cols), (spec, rows, cols)
            past += (cols if spec.reflected else rows) > first + step
            if spec.form != "diagonal":
                assert _last_start(spec, rows) == last_start_by_row(spec, rows), (spec, rows)
        far += first + step > 121
    assert past > 3000 and far == 150, (past, far)


def walked_transpose(rows, width):
    """The bit walk `_grid` used for reflected forms before `_transpose`."""
    out = [0] * max(width, 0)
    for i, row in enumerate(rows):
        for j in _set_bits(row):
            out[j] |= 1 << i
    return out


def zipped_transpose(rows, width):
    """The string zip of the coverage engine's mirror before `_transpose`."""
    columns = zip(*(format(row, f"0{width}b") for row in rows))
    return [int("".join(bits)[::-1], 2) for bits in columns][::-1]


def test_transpose_equals_both_earlier_methods():
    rng = random.Random(23)
    grids = [([], 0), ([], 4), ([0, 0, 0], 0), ([0] * 5, 7), ([0b1], 1), ([0b101, 0b010], 3)]
    for _ in range(400):
        height, width = rng.randint(1, 70), rng.randint(1, 70)
        if rng.random() < 0.3:
            width = height
        # one cell in `spread` set: either side of the cut, and on it
        spread = rng.choice([1, 2, 4, _SPARSE // 2, _SPARSE, 2 * _SPARSE, 8 * _SPARSE])
        rows = [sum(1 << j for j in range(width) if rng.randrange(spread) == 0) for _ in range(height)]
        grids.append((rows, width))
    sparse = 0
    for rows, width in grids:
        out = _transpose(rows, width)
        assert out == walked_transpose(rows, width), (rows, width)
        if rows and width:
            assert out == zipped_transpose(rows, width), (rows, width)
            sparse += sum(row.bit_count() for row in rows) * _SPARSE < len(rows) * width
        assert _transpose(out, len(rows)) == rows
    assert 100 < sparse < len(grids) - 100



def test_blocks_equal_their_definition():
    rng = random.Random(29)
    cases = [([], 0), ([], 5), ([0b1], 1), ([0, 0, 0], 1), ([0] * 6, 9), ([0b111, 0, 0b1], 1)]
    for _ in range(400):
        height, width = rng.randint(1, 40), rng.randint(1, 40)
        # rows up to twice as wide as the cut, with some all zero
        rows = [rng.getrandbits(rng.randint(1, 2 * width)) if rng.random() < 0.7 else 0 for _ in range(height)]
        cases.append((rows, width))
    for rows, width in cases:
        full = (1 << width) - 1
        expected = []
        for a in range(len(rows)):
            block = 0
            for r in range(a + 1):
                block |= rows[r] << (a - r)
            expected.append(block & full)
        assert _blocks(rows, width) == expected, (rows, width)

def test_scalar_membership_far_out_equals_the_oracle(corpus_specs):
    specs = list(corpus_specs.values()) + random_specs(13, 400)
    near = range(0, 9)
    for spec in specs:
        lifted = lift(spec, FAR)
        assert validate(lifted).ok, lifted
        for a in near:
            for b in near:
                x = Element(a, b)
                far = Element(FAR + a, FAR + b)
                assert contains(lifted, far) == oracle.contains(lifted, far) == contains(spec, x), (spec, x)
                for y in (Element(a, FAR + b), Element(FAR + a, b), far):
                    assert contains(spec, y) == oracle.contains(spec, y), (spec, y)


def test_witnesses_far_out(corpus_specs):
    for spec in corpus_specs.values():
        if not decide_left_iorder(spec).verdict:
            continue
        for q in (Element(FAR, 5), Element(5, FAR), Element(FAR, FAR)):
            w = decompose(spec, q)
            assert verify_witness(spec, w) and w.q == q, (spec, w)
            assert oracle.contains(spec, w.x) and oracle.contains(spec, w.y), (spec, w)


def test_closure_probe_equals_the_pair_loop(corpus_specs):
    rng = random.Random(2024)
    # two-sided specs fail closure most often
    makers = (random_diagonal, random_row_family) + (random_two_sided,) * 4
    failing = above = 0
    cases = 0
    while cases < 420:
        spec = makers[cases % len(makers)](rng)
        if spec is None or not validate(spec).ok:
            continue
        cases += 1
        # the oracle takes about 20 ms a spec at window 16, so one spec in ten
        for window in (0, 3, 6, 10, 16) if cases % 10 == 0 else (0, 3, 6, 10):
            expected = oracle.closure_falsify(spec, window)
            assert closure_falsify(spec, window) == expected, (spec, window)
            failing += expected is not None
            # y in a row above x.j: the side that the offset lookup checks
            above += expected is not None and expected.y.i > expected.x.j
    for spec in corpus_specs.values():
        for window in (0, 3, 6, 10, 16):
            assert closure_falsify(spec, window) is None
    assert failing >= 350, failing
    assert above >= 150, above


@pytest.mark.parametrize(
    "spec, window, expected",
    [
        # Column 0 from row 2 down plus the square from (2,2) on.
        # (2,3) * (2,0) = (2,1): y's row 2 is at most x.j = 3, so the row
        # lands in x's row 2 shifted by 1, and column 1 is empty.
        (
            TwoSidedII(0, 2, 1, fs({0}), fs({0})),
            3,
            ClosureFailure(Element(2, 3), Element(2, 0), Element(2, 1)),
        ),
        # Row 0 from column 2 on plus the same square.  x = (0,2) sends every
        # row m <= 2 into row 0, which holds them; y's row 3 lies above x.j,
        # so it lands unshifted in row 3 - 2 = 1, which is empty.
        (
            TwoSidedI(0, 2, 1, fs({0}), fs({0})),
            3,
            ClosureFailure(Element(0, 2), Element(3, 2), Element(1, 2)),
        ),
    ],
    ids=["row-at-or-below-x.j", "row-above-x.j"],
)
def test_closure_probe_names_the_first_failing_pair(spec, window, expected):
    assert closure_falsify(spec, window) == expected == oracle.closure_falsify(spec, window)
    # more rows and offsets, same first failure
    assert closure_falsify(spec, 20) == expected


def test_closure_probe_is_quadratic_in_the_window():
    # One block check and one offset lookup per member; one product per
    # (member, row) pair is cubic and takes about 2.5 s here on a 2-core VM.
    spec = parse_spec((CORPUS_DIR / "twosided_ii_all_columns.spec").read_text())
    failure, elapsed = timed(lambda: closure_falsify(spec, 160))
    assert failure is None
    assert elapsed < 0.5, elapsed


def test_closure_probe_multiplies_once_per_member_row(corpus_specs, monkeypatch):
    # counts, not the clock: on a closed window, one block product per
    # member row whose union of B(l) is nonzero, and none on a row whose
    # union is 0, as rows 0 .. l are empty for each of its members (k, l);
    # one product per member was 225 at window 16 on twosided_ii_all_columns
    subsemigroups = importlib.import_module("bicyclic.subsemigroups")
    products = 0

    def counting(x, y):
        nonlocal products
        products += 1
        return multiply(x, y)

    # column 2 from row 5 down: rows 0 .. 2 are empty
    column = Lower(fs(), IndexSet(fs({2}), fs(), 3, 1), RowData(0, (RowOverride(2, 5),)))
    cases = [(spec, window) for spec in corpus_specs.values() for window in (16, 160)]
    cases += [(column, 16), (column, 160)]
    cases += [(spec, 12) for spec in random_specs(47, 300) if closure_falsify(spec, 12) is None]
    monkeypatch.setattr(subsemigroups, "multiply", counting)
    zero = 0
    for spec, window in cases:
        rows = _grid(spec, window + 1, window + 1)
        blocks = _blocks(rows, 2 * window + 1)
        unions = [0] * len(rows)
        for k, row in enumerate(rows):
            for l in _set_bits(row):
                unions[k] |= blocks[l]
        products = 0
        assert closure_falsify(spec, window) is None, (spec, window)
        assert products == sum(map(bool, unions)), (spec, window)
        zero += sum(1 for row, union in zip(rows, unions) if row and not union)
    assert len(cases) > 250 and zero > 250, (len(cases), zero)
    products = 0
    closure_falsify(corpus_specs["twosided_ii_all_columns"], 16)
    assert products == 15


def dense_specs(seed, count):
    """`count` distinct d = 1 specs shaped like the benchmark's
    crosscheck-dense ones, half of them broken twins of the others, which
    some of the window's products escape.

    Two-sided specs have q = 0, p = 2, P = {0} and part of the triangle;
    their twin leaves row 1 out of I.  Upper and lower specs take every
    row, default_m = 2 and overrides below it; their twin leaves one of
    rows 1 .. N - 1 out of I, or gives an override a threshold of 6 with
    one extra below it.
    """
    rng = random.Random(seed)
    specs = {}
    while len(specs) < count:
        cls = (TwoSidedI, TwoSidedII, Upper, Lower)[len(specs) // 2 % 4]
        if cls in (TwoSidedI, TwoSidedII):
            fd = subset([Element(0, 0)], rng)
            triangle = subset([Element(0, 0), Element(0, 1), Element(1, 1)], rng)
            spec = cls(0, 2, 1, fs({0, 1}), fs({0}), fd, triangle)
            twin = cls(0, 2, 1, fs({0}), fs({0}), fd, triangle)
        else:
            fd = fs({Element(0, 0)}) if cls is Lower else fs()
            n = rng.randint(2, 4)
            whole = IndexSet(fs(range(n)), fs({0}), n, 1)
            overrides = tuple(RowOverride(r, rng.randint(0, 2)) for r in subset((1, 3), rng, 2))
            spec = cls(fd, whole, RowData(2, overrides))
            if rng.randrange(2):
                gap = rng.randint(1, n - 1)
                kept = tuple(ov for ov in overrides if ov.row != gap)
                twin = cls(fd, IndexSet(fs(range(n)) - {gap}, fs({0}), n, 1), RowData(2, kept))
            else:
                row = rng.choice((1, 3))
                extra = fs({Element(row, row + rng.randint(0, 4))})
                kept = tuple(ov for ov in overrides if ov.row != row)
                twin = cls(fd, whole, RowData(2, kept + (RowOverride(row, 6, extra),)))
        if spec not in specs and twin not in specs:
            specs.update(dict.fromkeys((spec, twin)))
    for spec in specs:
        assert validate(spec).ok, spec
    return list(specs)


def test_closure_probe_equals_the_pair_loop_on_dense_specs():
    # the windows of the benchmark's crosscheck-dense, where every member
    # row is full from its threshold on and the probe checks whole rows
    failing = 0
    specs = dense_specs(43, 16)
    for spec in specs:
        for window in (8, 12, 16):
            expected = oracle.closure_falsify(spec, window)
            assert closure_falsify(spec, window) == expected, (spec, window)
            failing += expected is not None
    assert 20 <= failing <= 3 * len(specs) - 20, failing


class TestHugeParameters:
    """Decisions cost O(spec data), not O(p) or O(N)."""

    P = 10**18

    def test_twosided_ii_missing_column(self):
        spec = TwoSidedII(0, self.P, 1, fs({0, 1, 3}), fs({0}), fs({Element(0, 0)}), fs({Element(2, 4)}))
        decision = decide_left_iorder(spec)
        assert not decision.verdict
        assert decision.certificate.uncovered == Element(4, 4)

    def test_twosided_ii_q_above_zero(self):
        spec = TwoSidedII(2, self.P, 1, fs({2}), fs({0}))
        assert decide_left_iorder(spec).certificate.uncovered == Element(0, 0)

    def test_lower_missing_column(self):
        spec = Lower(fs({Element(0, 0)}), IndexSet(fs({1}), fs({0}), self.P, 1), RowData(0))
        assert not spec.row_indices.is_full()
        decision = decide_left_iorder(spec)
        assert not decision.verdict
        assert decision.certificate.uncovered == Element(2, 2)

    def test_lower_far_override_leaves_the_column_scan_short(self):
        # a scan bounded by the largest constant would run to 10**18 here
        rows = RowData(0, (RowOverride(5, self.P),))
        spec = Lower(fs({Element(0, 0), Element(1, 1)}), IndexSet(fs({1}), fs({0}), 2, 1), rows)
        assert decision_lines(decide_left_iorder(spec)) == [
            "side=left",
            "verdict=no",
            "form=lower",
            "condition.d-is-1=holds",
            "condition.all-columns-present=fails",
            "certificate.failed=all-columns-present",
        ]
        assert decide_right_iorder(spec).certificate.uncovered == Element(0, 1)

    def test_upper_far_override_m(self):
        extras = fs({Element(0, 0), Element(0, 1), Element(0, 2)})
        spec = Upper(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(0, (RowOverride(0, self.P, extras),)))
        left = decide_left_iorder(spec)
        assert left.certificate.failed_condition == "row-0-prefix-covered"
        assert left.certificate.uncovered == Element(0, 3)
        assert decide_right_iorder(spec).certificate.uncovered == Element(1, 1)

    def test_upper_and_twosided_i_thresholds(self):
        upper = Upper(fs({Element(0, 0)}), IndexSet(fs({0}), fs(), 1, 1), RowData(self.P))
        assert decide_left_iorder(upper).certificate.uncovered == Element(0, 1)
        two = TwoSidedI(0, self.P, 1, fs({0}), fs({0}), fs(), fs({Element(0, 1)}))
        assert decide_left_iorder(two).certificate.uncovered == Element(0, 0)


ROW0_SIZE = 20000


def _row0_filled(form, missing):
    """Spec text whose finite parts fill row 0 below ROW0_SIZE, bar `missing`."""
    cols = ",".join(f"(0,{j})" for j in range(ROW0_SIZE) if j != missing)
    if form == "upper":
        return f"form=upper\nd=1 N=1 I0=0 R=\nrow=0 m={ROW0_SIZE} F={cols}\n"
    return f"form=twosided-i\nq=0 p={ROW0_SIZE} d=1 I=0 P=0\nF={cols}\n"


@pytest.mark.parametrize("form, covered", [("upper", "row-0-prefix-covered"), ("twosided-i", "identity-row-covered")])
@pytest.mark.parametrize("missing", [None, ROW0_SIZE - 1])
def test_row0_decisions_are_linear_in_the_spec_data(form, covered, missing, tmp_path, capsys):
    # Each decision reads row 0 once, however many columns the finite
    # parts fill; a column-by-column scan is quadratic, about 30 s a call here.
    spec = tmp_path / "row0.spec"
    spec.write_text(_row0_filled(form, missing))
    fails = missing is not None
    decision = [
        "side=left",
        f"verdict={'no' if fails else 'yes'}",
        f"form={form}",
        "condition.d-is-1=holds",
        "condition.row-0-in-indices=holds" if form == "upper" else "condition.q-is-0=holds",
        f"condition.{covered}={'fails' if fails else 'holds'}",
    ]
    if fails:
        decision += [f"certificate.failed={covered}", f"certificate.element=(0,{missing})", "certificate.reason=row0-gap"]
    witness = decision + ["witness=refused"] if fails else ["q=(3,5) x=(0,3) y=(0,5) scheme=row0"]
    for argv, lines in ((["decide", str(spec)], decision), (["witness", str(spec), "(3,5)"], witness)):
        code, elapsed = timed(lambda: main(argv))
        assert (code, capsys.readouterr().out.splitlines()) == (int(fails), lines)
        assert elapsed < 1.0, (argv[0], elapsed)


def test_render_reads_each_finite_part_once():
    # Finite parts are indexed by row once; rescanning the whole triangle
    # for every rendered row takes about 0.8 s here.
    rendered = {}
    for form in ("upper", "twosided-i"):
        spec = parse_spec(_row0_filled(form, None))
        rendered[form], elapsed = timed(lambda: render_window(spec, WINDOW_LIMIT))
        assert elapsed < 0.25, (form, elapsed)
    first, *rest = rendered["twosided-i"].split("\n")
    assert first == " ".join("#" * (WINDOW_LIMIT + 1))
    assert all("#" not in row for row in rest)
    assert rendered["upper"] == rendered["twosided-i"]


def test_render_reads_each_square_offset_once():
    # Validation keeps P below d, so a row read looks up the one offset that
    # can hold it; looping over all of P for every row takes about 1.6 s on
    # a 2-core VM.
    spec = TwoSidedI(0, 1, 200_000, fs({0}), fs(range(100_000)))
    rendered, elapsed = timed(lambda: render_window(spec, WINDOW_LIMIT))
    assert elapsed < 0.25, elapsed
    # inside the window, each corner 1 + r holds its own idempotent only
    size = WINDOW_LIMIT + 1
    assert rendered.split("\n") == [
        " ".join("#" if j == i > 0 else "." for j in range(size)) for i in range(size)
    ]


def test_render_reads_each_override_once():
    # Overrides are indexed by row once; scanning them all for every row
    # read takes 0.38-0.62 s here, as the rows sit at the end of the list.
    # Each override (k, m=k+1, F={(k,k)}) restates row k of the plain spec.
    header = "form=upper\nd=1 N=0 I0= R=0\n"
    overrides = "".join(f"row={k} m={k + 1} F=({k},{k})\n" for k in reversed(range(ROW0_SIZE)))
    spec = parse_spec(header + overrides)
    rendered, elapsed = timed(lambda: render_window(spec, WINDOW_LIMIT))
    assert elapsed < 0.1, elapsed
    assert rendered == render_window(parse_spec(header), WINDOW_LIMIT)


def test_parse_cache_is_bounded():
    # the parse cache hands back one spec object per text
    parse_spec_unchecked.cache_clear()
    texts = [f"form=diagonal\nelements=({k},{k})\n" for k in range(_CACHE_SIZE + 50)]
    for text in texts:
        validate(parse_spec_unchecked(text))
    assert parse_spec_unchecked.cache_info().currsize == _CACHE_SIZE
    last = texts[-1]
    assert parse_spec_unchecked(last) is parse_spec_unchecked(last)
    assert parse_spec(last) is parse_spec_unchecked(last)
    # exceptions are not cached: a bad text raises on every call
    for _ in range(2):
        with pytest.raises(SpecSyntaxError):
            parse_spec_unchecked("form=diagonal\nelements=(0,0\n")


def test_each_spec_validates_once(monkeypatch):
    # the report is kept on the spec: equal but distinct specs run the
    # checks once each, however often they are validated
    subsemigroups = importlib.import_module("bicyclic.subsemigroups")
    checked = []
    check = subsemigroups._validate_diagonal

    def counting(spec):
        checked.append(spec)
        return check(spec)

    monkeypatch.setattr(subsemigroups, "_validate_diagonal", counting)
    first, second = (Diagonal(fs({Element(k, k) for k in range(3)})) for _ in range(2))
    assert first == second and first is not second
    for spec in (first, second, first, second):
        assert validate(spec) is validate(spec)
        decide_left_iorder(spec)
    assert len(checked) == 2 and checked[0] is first and checked[1] is second


WARM_SIZE = 2000


def _warm_text(form):
    """Spec text of `form` with about WARM_SIZE finite members."""
    if form == "diagonal":
        return "form=diagonal\nelements=" + ",".join(f"({k},{k})" for k in range(WARM_SIZE)) + "\n"
    if form in ("upper", "lower"):
        # row 0 is left out of I, so column 0 of the lower form is missing
        rows = "".join(f"row={k} m={k + 2} F=({k},{k})\n" for k in range(1, WARM_SIZE + 1))
        return f"form={form}\nd=1 N=2 I0=1 R=0\n" + rows
    # the full triangle: p = 60 keeps the default pair bound under 500
    triangle = ",".join(f"({i},{j})" for i in range(60) for j in range(i, 60))
    return f"form={form}\nq=0 p=60 d=1 I=0 P=0\nF={triangle}\n"


@pytest.mark.parametrize("form", ["diagonal", "upper", "lower", "twosided-i", "twosided-ii"])
def test_warm_calls_rebuild_nothing(form, monkeypatch, tmp_path, capsys):
    # A spec keeps its row index and its report, and the right decision
    # runs on the spec itself, so a second call of each entry rebuilds no
    # index, runs no check and builds no reflection, whatever the spec's size
    subsemigroups = importlib.import_module("bicyclic.subsemigroups")
    iorder = importlib.import_module("bicyclic.iorder")
    calls = []
    for module, name in (
        (subsemigroups, "_columns_by_row"),
        (subsemigroups, "_threshold"),
        (subsemigroups, "_validate_diagonal"),
        (subsemigroups, "_validate_row_family"),
        (subsemigroups, "_validate_two_sided"),
        (iorder, "hat_spec"),
    ):
        def counting(*args, _name=name, _call=getattr(module, name)):
            calls.append(_name)
            return _call(*args)

        monkeypatch.setattr(module, name, counting)
    parse_spec_unchecked.cache_clear()
    text = _warm_text(form)
    path = tmp_path / "warm.spec"
    path.write_text(text)
    spec = parse_spec(text)
    assert spec.form == form
    entries = {
        "validate": lambda: validate(spec),
        "decide_left_iorder": lambda: decide_left_iorder(spec),
        "decide_right_iorder": lambda: decide_right_iorder(spec),
        "contains": lambda: contains(spec, Element(1, 1)),
        "coverage": lambda: coverage(spec, 12),
        "render_window": lambda: render_window(spec, 12),
        "cross_validate": lambda: cross_validate(spec, 12),
        "decide --right": lambda: main(["decide", str(path), "--right"]),
    }
    for call in entries.values():
        call()
    assert calls
    warm = {}
    for name, call in entries.items():
        calls.clear()
        call()
        warm[name] = list(calls)
    capsys.readouterr()
    assert warm == dict.fromkeys(entries, []), warm


def test_caches_keep_the_last_specs_alive_and_no_others():
    # the parse cache and the scan memo each keep their last _CACHE_SIZE
    # entries, which name the same specs; a report lives on its spec
    parse_spec_unchecked.cache_clear()
    header = "form=upper\nd=1 N=0 I0= R=0\n"
    refs = []
    for n in range(_CACHE_SIZE + 24):
        spec = parse_spec(header + "".join(f"row={k} m={k + n + 1}\n" for k in range(200)))
        coverage(spec, 2)
        decide_left_iorder(spec)
        refs.append(weakref.ref(spec))
    del spec
    gc.collect()
    assert [n for n, ref in enumerate(refs) if ref() is not None] == list(range(24, _CACHE_SIZE + 24))


def test_warm_calls_rehash_no_override(monkeypatch):
    # RowData keeps its hash, so the scan memo's key costs O(1) in the
    # spec: rehashing 20,000 overrides on each call took about 3 ms
    parse_spec_unchecked.cache_clear()
    header = "form=upper\nd=1 N=0 I0= R=0\n"
    spec = parse_spec(header + "".join(f"row={k} m={k + 1} F=({k},{k})\n" for k in range(ROW0_SIZE)))
    hashes = 0
    generated = RowOverride.__hash__

    def counting(self):
        nonlocal hashes
        hashes += 1
        return generated(self)

    monkeypatch.setattr(RowOverride, "__hash__", counting)
    first = coverage(spec, 20)
    assert hashes == ROW0_SIZE
    hashes = 0
    assert coverage(spec, 20).rows is first.rows
    assert validate(spec).ok and decide_left_iorder(spec).verdict
    assert hashes == 0


R1 = Upper(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(0))
HUGE = 10**9


@pytest.mark.parametrize(
    "call",
    [
        lambda: coverage(R1, HUGE),
        lambda: coverage(R1, HUGE, pair_bound=0),
        lambda: coverage(R1, 5, pair_bound=HUGE),
        lambda: coverage(TwoSidedI(0, HUGE, 1, fs({0}), fs({0})), 5),
        lambda: coverage(Upper(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(HUGE)), 5),
        lambda: render_window(R1, HUGE),
        lambda: closure_falsify(R1, HUGE),
        lambda: cross_validate(R1, HUGE),
    ],
)
def test_window_sized_work_is_refused_beyond_the_limit(call):
    with pytest.raises(ValueError, match=f"exceeds the limit {WINDOW_LIMIT}"):
        call()


@pytest.mark.parametrize("call", [render_window, coverage, closure_falsify, cross_validate])
def test_negative_windows_are_refused(call):
    with pytest.raises(ValueError, match="window must be nonnegative, got -3"):
        call(R1, -3)


@needs_int_str_limit
@pytest.mark.parametrize("call", [render_window, coverage, closure_falsify, cross_validate])
def test_windows_beyond_the_int_string_limit_are_refused(call):
    # one digit more than str() converts: the message leaves the value out
    beyond = 10**INT_STR_DIGITS
    with pytest.raises(ValueError) as refused:
        call(R1, -beyond)
    assert str(refused.value) == "window must be nonnegative"
    with pytest.raises(ValueError) as refused:
        call(R1, beyond)
    assert str(refused.value) == f"window exceeds the limit {WINDOW_LIMIT}"


def test_limit_itself_is_accepted():
    assert coverage(R1, 3, pair_bound=WINDOW_LIMIT).gaps == ()
    assert render_window(R1, WINDOW_LIMIT).count("\n") == WINDOW_LIMIT


def test_cli_refuses_huge_windows(capsys):
    spec = str(CORPUS_DIR / "r1.spec")
    for argv in (
        ["coverage", spec, "--window", str(HUGE)],
        ["coverage", spec, "--window", str(HUGE), "--pairs", "0"],
        ["coverage", spec, "--window", "3", "--pairs", str(HUGE)],
        ["render", spec, "--window", str(HUGE)],
        ["crosscheck", spec, "--window", str(HUGE)],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "exceeds the limit" in err and err.startswith("error=")
