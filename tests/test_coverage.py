import gc
import importlib
import random
import sys
import tracemalloc

import pytest

from bicyclic import (
    Diagonal,
    DiagonalTail,
    Element,
    IndexSet,
    Lower,
    RowData,
    TwoSidedI,
    TwoSidedII,
    Upper,
    coverage,
    cross_validate,
    default_pair_bound,
    inverse,
    multiply,
    render_window,
)
from bicyclic import RowOverride, hat_spec, validate
from bicyclic import _cover
from bicyclic.cli import _gap_lines, main
from bicyclic.iorder import Condition, Decision
from bicyclic.specfile import parse_spec_unchecked
from bicyclic.subsemigroups import _CACHE_SIZE, WINDOW_LIMIT, InvalidSpecError, _grid, _last_start
import membership_oracle as oracle
from golden import CORPUS_DIR
from test_random_specs import random_diagonal, random_row_family, random_two_sided, subset
from test_row_masks import random_specs

fs = frozenset

R1 = Upper(fs(), IndexSet(fs({0}), fs(), 1, 1), RowData(0))
B_PLUS = Upper(fs(), IndexSet(fs(), fs({0}), 0, 1), RowData(0))
# the reflection of an upper spec whose row 0 starts at column 1000
FAR_ROW0 = Lower(fs(), IndexSet(fs(), fs({0}), 0, 1), RowData(0, (RowOverride(0, 1000),)))
# the package's `coverage` attribute is the function, so the module comes
# from the import system
COVERAGE = importlib.import_module("bicyclic.coverage")


def brute_force_covered(spec, window, pair_bound):
    members = oracle.members(spec, pair_bound + 1, pair_bound + 1)
    out = set()
    for x in members:
        for y in members:
            q = multiply(inverse(x), y)
            if q.i <= window and q.j <= window:
                out.add(q)
    return out


def pair_loop_grid(xi, xj, window):
    """Reference oracle for the engine: every ordered pair, one at a time."""
    out = set()
    for i1, j1 in zip(xi, xj):
        for i2, j2 in zip(xi, xj):
            t = max(i1, i2)
            qi, qj = j1 - i1 + t, j2 - i2 + t
            if qi <= window and qj <= window:
                out.add((qi, qj))
    return out


def covered_cells(report):
    """The covered window elements, read off the report's row masks."""
    size = range(report.window + 1)
    return {Element(i, j) for i in size for j in size if report.rows[i] >> j & 1}


def engine_cells(xi, xj, window):
    members = [0] * (max(xi, default=-1) + 1)
    for i, j in zip(xi, xj):
        members[i] |= 1 << j
    rows = _cover.cover_grid(members, window)
    assert len(rows) == window + 1
    assert all(0 <= row < 1 << (window + 1) for row in rows)
    # inverse(inverse(x) * y) = inverse(y) * x, so the grid is symmetric
    size = range(window + 1)
    assert all(rows[i] >> j & 1 == rows[j] >> i & 1 for i in size for j in size)
    return {(qi, qj) for qi, row in enumerate(rows) for qj in range(window + 1) if row >> qj & 1}


def test_r1_fully_covered():
    report = coverage(R1, 5)
    assert report.gaps == ()
    assert report.rows == (0b111111,) * 6


def test_diagonal_gaps_include_off_diagonal():
    spec = Diagonal(fs({Element(0, 0)}), DiagonalTail(1, 1, 0))
    report = coverage(spec, 2)
    assert Element(0, 1) in report.gaps
    # products of idempotents are idempotent
    assert covered_cells(report) == {Element(i, i) for i in range(3)}


def test_even_row_gaps_include_parity_witness():
    spec = Upper(fs(), IndexSet(fs({0}), fs(), 1, 2), RowData(0))
    report = coverage(spec, 3)
    assert Element(0, 1) in report.gaps


def test_coverage_matches_brute_force_definition():
    # includes members with j beyond the window, so the column cut of the
    # member scan is exercised against the raw definition; the lower and
    # two-sided (ii) forms put members below the diagonal
    specs = [
        R1,
        B_PLUS,
        Diagonal(fs({Element(0, 0), Element(2, 2)})),
        TwoSidedI(0, 2, 1, fs({0, 1}), fs({0}), fs({Element(0, 0)}), fs({Element(0, 1)})),
        Lower(fs({Element(0, 0)}), IndexSet(fs({0}), fs({1}), 3, 2), RowData(1)),
        TwoSidedII(0, 2, 1, fs({0, 1}), fs({0}), fs({Element(0, 0)}), fs({Element(0, 1)})),
    ]
    for spec in specs:
        for window, bound in ((3, 9), (4, 17), (3, 0), (4, 3), (4, -1)):
            report = coverage(spec, window, pair_bound=bound)
            expected = brute_force_covered(spec, window, bound)
            assert covered_cells(report) == expected
            full = {Element(i, j) for i in range(window + 1) for j in range(window + 1)}
            assert report.gaps == tuple(sorted(full - expected))


def test_covered_and_gaps_partition_window(corpus_specs):
    for spec in corpus_specs.values():
        report = coverage(spec, 6)
        window = {Element(i, j) for i in range(7) for j in range(7)}
        assert len(report.rows) == 7 and all(0 <= row < 1 << 7 for row in report.rows)
        assert covered_cells(report) | set(report.gaps) == window
        assert not (covered_cells(report) & set(report.gaps))
        assert report.gap_count == len(report.gaps)


def test_coverage_monotone_in_pair_bound():
    for bound in range(0, 40, 7):
        small = coverage(B_PLUS, 5, pair_bound=bound)
        big = coverage(B_PLUS, 5, pair_bound=bound + 13)
        assert covered_cells(small) <= covered_cells(big)


def test_default_pair_bound_formula():
    assert default_pair_bound(R1, 10) == 3 * (2 * 10 + 0 + 0 + 4)
    ts = TwoSidedI(0, 2, 1, fs({0, 1}), fs({0}))
    assert default_pair_bound(ts, 10) == 3 * (2 * 10 + 2 + 0 + 4)
    t2 = Upper(fs(), IndexSet(fs(), fs({0}), 0, 1), RowData(2))
    assert default_pair_bound(t2, 10) == 3 * (2 * 10 + 0 + 2 + 4)
    # reflected forms: at least L + d + window, L the last start in columns 0 .. window
    assert default_pair_bound(hat_spec(t2), 10) == 3 * (2 * 10 + 0 + 2 + 4)
    assert default_pair_bound(FAR_ROW0, 3) == 1000 + 1 + 3
    assert default_pair_bound(TwoSidedII(0, 2, 100, fs({0, 1}), fs({0})), 10) == 2 + 99 + 100 + 10


def far_scan(spec, window, bound):
    """Coverage with members up to `bound`, past the limit: the engine on the grid itself."""
    return tuple(_cover.cover_grid(_grid(spec, bound + 1, window + 1), window))


def test_default_pair_bound_reaches_every_product():
    # lower specs with an override m above the formula's bound, and
    # two-sided (ii) specs with d up to 160, against a scan far past the
    # bound; a scan at the formula alone misses some of their cells.
    # Two-sided (i) specs, whose bound is the formula itself, take d on
    # both sides of 5w + 2p + 12, past which the formula's rows hold less
    # than a period of the square plus the window; as the bound's
    # docstring proves, their rows up to the window reach every product.
    rng = random.Random(53)
    specs = []
    while len(specs) < 160:
        window = rng.randint(0, 10)
        if len(specs) % 2:
            q = rng.randint(0, 3)
            p = rng.randint(q + 1, q + 5)
            d = rng.randint(1, 160)
            rows = fs({q}) | subset(range(q, p), rng, p - q)
            offsets = fs({0}) | subset(range(d), rng)
            spec = TwoSidedII(q, p, d, rows, offsets, subset([Element(k, k) for k in range(q + 1)], rng, 2))
            formula = 3 * (2 * window + p + 4)
        else:
            d = rng.choice([1, 2, 3, 7])
            m_default = rng.randint(0, 4)
            idx = IndexSet(fs(), fs({0}) | subset(range(d), rng), 0, d)
            row = rng.choice([k for k in range(window + 1) if k in idx])
            formula = 3 * (2 * window + m_default + 4)
            extras = subset([Element(row, row + d * u) for u in range(4)], rng)
            overrides = (RowOverride(row, rng.randint(formula + 1, 400), extras),)
            spec = Lower(fs(), idx, RowData(m_default, overrides))
        if validate(spec).ok and default_pair_bound(spec, window) <= WINDOW_LIMIT:
            specs.append((spec, window, formula))
    sides = [0, 0]
    while min(sides) < 60:
        window = rng.randint(0, 10)
        q = rng.randint(0, 3)
        p = rng.randint(q + 1, q + 5)
        split = 5 * window + 2 * p + 12
        past = sides[0] > sides[1]
        d = rng.randint(split + 1, split + 200) if past else rng.randint(1, split)
        rows = fs({q}) | subset(range(q, p), rng, p - q)
        offsets = fs({0}) | subset(range(d), rng, min(d, 6))
        triangle = subset([Element(i, j) for i in range(q, p) for j in range(i, p)], rng, 4)
        spec = TwoSidedI(q, p, d, rows, offsets, subset([Element(k, k) for k in range(q + 1)], rng, 2), triangle)
        if validate(spec).ok and default_pair_bound(spec, window) <= WINDOW_LIMIT:
            assert default_pair_bound(spec, window) == 3 * (2 * window + p + 4)
            specs.append((spec, window, None))
            sides[past] += 1
    missed = 0
    for spec, window, formula in specs:
        report = coverage(spec, window)
        far = 2 * report.pair_bound + 2 * spec.step
        assert report.rows == far_scan(spec, window, far), (spec, window)
        if spec.reflected:
            missed += far_scan(spec, window, formula) != report.rows
        else:
            assert far_scan(spec, window, window) == report.rows, (spec, window)
    assert missed > 40


def test_engine_matches_pair_loop():
    # fixed cases: the empty set, window 0, and column 0 of a lower spec,
    # whose rows run far past the window yet reach it, since x = (a, 0)
    # and y = (r, 0) with r >= a give (r - a, 0); the random sets add
    # more rows past the window and members with j < i, and the last ones
    # windows past 64 columns with members up to row and column 150
    cases = [
        ([], [], 0),
        ([], [], 5),
        ([0], [0], 0),
        ([3, 1], [0, 2], 0),
        (list(range(30)), [0] * 30, 3),
    ]
    rng = random.Random(97)
    for _ in range(1200):
        top = rng.randint(0, 40)
        n = rng.randint(0, 50)
        xi = [rng.randint(0, top) for _ in range(n)]
        xj = [rng.randint(0, top) for _ in range(n)]
        cases.append((xi, xj, rng.randint(0, 16)))
    for _ in range(30):
        n = rng.randint(1, 150)
        xi = [rng.randint(0, 150) for _ in range(n)]
        xj = [rng.randint(0, 150) for _ in range(n)]
        cases.append((xi, xj, rng.randint(40, 100)))
    for xi, xj, window in cases:
        assert engine_cells(xi, xj, window) == pair_loop_grid(xi, xj, window), (xi, xj, window)
    # the member scan hands the engine no upper or diagonal row past the
    # window, whose members all lie beyond it, and the rows come out as
    # with the full scan, for pair bounds below, at and above the window;
    # the CLI's gap lines spell the report's gap cells
    rng = random.Random(59)
    trimmed = 0
    while trimmed < 300:
        spec = (random_diagonal, random_row_family, random_two_sided)[trimmed % 3](rng)
        if spec is None or not validate(spec).ok:
            continue
        trimmed += 1
        window = rng.randint(0, 20)
        for pairs in (rng.randint(-1, window), window, rng.randint(window, 3 * window + 5), None):
            report = coverage(spec, window, pairs)
            bound = report.pair_bound
            full = _cover.cover_grid(_grid(spec, bound + 1, min(window, bound) + 1), window)
            assert report.rows == tuple(full), (spec, window, pairs)
            text = "".join(f"gap=({i},{j})\n" for i, j in report.gap_cells())
            assert _gap_lines(report) == text


def test_reflected_scan_stops_at_the_last_row_it_needs():
    # lower and two-sided (ii) coverage reads rows up to L + d + window
    # only, whatever the pair bound: below, at and above that row, and at
    # the limit, the rows equal the engine's on the untrimmed scan of
    # every row up to the bound; one override puts L in the hundreds
    rng = random.Random(67)
    far = Lower(fs(), IndexSet(fs(), fs({0}), 0, 1), RowData(1, (RowOverride(2, 300, fs({Element(2, 5)})),)))
    specs = [spec for spec in random_specs(61, 240) if spec.reflected] + [far]
    trimmed = 0
    for spec in specs:
        window = 3 if spec is far else rng.randint(0, 16)
        reach = _last_start(spec, window + 1) + spec.step + window
        for bound in (default_pair_bound(spec, window), reach - 1, reach, reach + 1, WINDOW_LIMIT):
            if bound > WINDOW_LIMIT:
                continue
            full = _cover.cover_grid(_grid(spec, bound + 1, min(window, bound) + 1), window)
            assert coverage(spec, window, bound).rows == tuple(full), (spec, window, bound)
            trimmed += bound > reach
    assert reach > 300 and trimmed > 100, (reach, trimmed)


@pytest.fixture
def kernel_calls(monkeypatch):
    """An empty scan memo, and the windows of the engine calls made after it."""
    calls = []
    kernel = _cover.cover_grid

    def counting(rows, window):
        calls.append(window)
        return kernel(rows, window)

    monkeypatch.setattr(_cover, "cover_grid", counting)
    COVERAGE._reached.cache_clear()
    yield calls
    COVERAGE._reached.cache_clear()


def test_scan_memo_is_bounded():
    COVERAGE._reached.cache_clear()
    for window in range(_CACHE_SIZE + 8):
        coverage(R1, window)
    info = COVERAGE._reached.cache_info()
    assert info.misses == _CACHE_SIZE + 8
    assert info.currsize == _CACHE_SIZE
    # one bound serves the scan memo and the parse cache
    assert info.maxsize == parse_spec_unchecked.cache_info().maxsize == _CACHE_SIZE


def test_scan_memo_keeps_ints_and_each_call_gets_its_own_report(corpus_specs):
    COVERAGE._reached.cache_clear()
    spec = corpus_specs["lower_column0"]
    first, second = coverage(spec, 6), coverage(spec, 6)
    assert first is not second and first.rows is second.rows
    assert type(first.rows) is tuple and all(type(row) is int for row in first.rows)
    # one report's gaps are built on that report, never in the memo
    assert Element(1, 1) in first.gaps
    assert "gaps" not in vars(second)


def test_commands_share_a_scan(kernel_calls, corpus_specs, capsys):
    spec = corpus_specs["lower_column0"]
    cross_validate(spec, 8)
    coverage(spec, 8)
    assert len(kernel_calls) == 1
    # on r1, `--pairs 40` and the default bound 48 scan the same rows at
    # window 6, and each report prints its own bound
    r1 = str(CORPUS_DIR / "r1.spec")
    assert main(["coverage", r1, "--window", "6", "--pairs", "40"]) == 0
    assert main(["coverage", r1, "--window", "6"]) == 0
    out = capsys.readouterr().out
    assert "pair_bound=40\n" in out and "pair_bound=48\n" in out
    assert len(kernel_calls) == 2
    # a new window, a new spec, or a pair bound that cuts rows scans again
    coverage(spec, 9)
    coverage(corpus_specs["b_plus"], 8)
    coverage(spec, 8, pair_bound=5)
    assert kernel_calls == [8, 6, 9, 8, 8]
    cross_validate(spec, 8)
    coverage(corpus_specs["r1"], 6, pair_bound=40)
    assert len(kernel_calls) == 5


def test_refusals_are_not_cached(kernel_calls, corpus_specs):
    spec = corpus_specs["r1"]
    coverage(spec, 6)
    invalid = parse_spec_unchecked((CORPUS_DIR / "invalid_q_not_in_I.spec").read_text())
    for _ in range(2):
        with pytest.raises(ValueError, match=f"window {WINDOW_LIMIT + 1} exceeds the limit"):
            coverage(spec, WINDOW_LIMIT + 1)
        with pytest.raises(ValueError, match=f"pair bound {WINDOW_LIMIT + 1} exceeds the limit"):
            coverage(spec, 6, pair_bound=WINDOW_LIMIT + 1)
        with pytest.raises(InvalidSpecError):
            coverage(invalid, 6)
        assert COVERAGE._reached.cache_info().currsize == 1
    assert len(kernel_calls) == 1


def test_scan_memo_holds_under_a_megabyte(corpus_specs):
    # A full memo of window-500 scans on b_plus, whose window rows are all
    # full: each entry is one tuple of 501 ints of 501 bits.  Under
    # tracemalloc a scan keeps its tuple and the memo's few hundred bytes
    # of bookkeeping, and nothing else of what it built; sixteen traced
    # scans take about 6 s on a 2-core VM, so one is traced and the
    # tuples of all sixteen are sized.
    spec = corpus_specs["b_plus"]
    COVERAGE._reached.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        coverage(spec, WINDOW_LIMIT, WINDOW_LIMIT)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    bounds = range(WINDOW_LIMIT - _CACHE_SIZE + 1, WINDOW_LIMIT + 1)
    sizes = {}
    for bound in bounds:
        rows = coverage(spec, WINDOW_LIMIT, bound).rows
        sizes[bound] = sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
    info = COVERAGE._reached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, len(bounds), len(bounds)), info
    assert sizes[WINDOW_LIMIT] <= kept < sizes[WINDOW_LIMIT] + 1024, (kept, sizes[WINDOW_LIMIT])
    assert sum(sizes.values()) < 1_000_000, sizes


class TestCrossValidate:
    def test_r1_passes(self):
        assert cross_validate(R1, 6).passed

    def test_column0_certificate_confirmed(self, corpus_specs):
        report = cross_validate(corpus_specs["lower_column0"], 4)
        assert report.passed
        assert Element(1, 1) in report.coverage.gaps
        assert any("evidence" in n for n in report.notes)

    def test_twosided_ii_full_passes(self, corpus_specs):
        report = cross_validate(corpus_specs["twosided_ii_all_columns"], 6)
        assert report.passed
        assert report.coverage.gaps == ()

    def test_yes_verdict_with_gaps_fails(self, monkeypatch, corpus_specs, capsys):
        # a decider that wrongly says yes on the full first column: its
        # products reach only row 0 and column 0, so 16 of the 25 cells
        # of window 4 are gaps
        wrong = Decision(True, "lower", (Condition("d-is-1", True), Condition("all-columns-present", True)))
        monkeypatch.setattr(COVERAGE, "decide_left_iorder", lambda spec: wrong)
        report = cross_validate(corpus_specs["lower_column0"], 4)
        assert not report.passed
        assert report.notes == ("yes verdict but 16 window gaps",)
        assert main(["crosscheck", str(CORPUS_DIR / "lower_column0.spec"), "--window", "4"]) == 1
        assert capsys.readouterr().out == (
            "verdict=yes\nwindow=4\npair_bound=36\ncoverage_gaps=16\nclosure=ok\n"
            "note=yes verdict but 16 window gaps\nresult=FAIL\n"
        )

    def test_whole_corpus_at_window_10(self, corpus_specs):
        for name, spec in corpus_specs.items():
            report = cross_validate(spec, 10)
            assert report.passed, (name, report.notes)
            assert report.closure is None, name


class TestRender:
    def test_r1(self):
        assert render_window(R1, 2) == "# # #\n. . .\n. . ."

    def test_diagonal(self):
        spec = Diagonal(fs({Element(0, 0), Element(1, 1)}))
        assert render_window(spec, 1) == "# .\n. #"

    def test_b_plus(self):
        assert render_window(B_PLUS, 2) == "# # #\n. # #\n. . #"

    def test_byte_exact_size(self, corpus_specs):
        for spec in corpus_specs.values():
            for window in (0, 3, 7):
                text = render_window(spec, window)
                assert len(text) == (window + 1) * (2 * window + 1) + window
