"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces the public entry points of each bicyclic module
with timing wrappers, in every bicyclic module that binds them, so calls
between modules pass through the wrappers too; `uninstall` puts the
originals back.  Nothing inside the package changes.

A layer's time is its self time: the duration of its spans minus the
part covered by spans nested inside them, so the layer times of one pass
add up to at most the pass.  Counts are taken from the wrapped calls'
arguments and results, except the closure probe's products, which a bare
counter on the product function the subsemigroups module calls counts
as they happen.

Each traced pass runs in its own process (``worker.py``); ``totals``
exports a pass's sums and ``merge`` adds them up in the benchmark
process, which reports them per pass.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

# (layer, module, attribute path) of every traced entry point.  The
# coverage kernel is reached through the coverage submodule in
# sys.modules, because the package re-exports the `coverage` function
# under the submodule's name.
TARGETS = (
    ("cli", "bicyclic.cli", "main"),
    ("cli.parser", "bicyclic.cli", "build_parser"),
    ("specfile.parse", "bicyclic.specfile", "parse_spec"),
    ("specfile.parse", "bicyclic.specfile", "parse_spec_unchecked"),
    ("subsemigroups.validate", "bicyclic.subsemigroups", "validate"),
    ("subsemigroups.enumerate", "bicyclic.subsemigroups", "enumerate_window"),
    ("subsemigroups.closure", "bicyclic.subsemigroups", "closure_falsify"),
    ("iorder.decide", "bicyclic.iorder", "decide_left_iorder"),
    ("iorder.decide", "bicyclic.iorder", "decide_right_iorder"),
    ("witness.decompose", "bicyclic.witness", "decompose"),
    ("witness.verify", "bicyclic.witness", "verify_witness"),
    ("words.rewrite", "bicyclic.words", "multiply_via_rewriting"),
    ("words.rewrite", "bicyclic.words", "word_normalize"),
    ("coverage.grid", "bicyclic.coverage", "coverage"),
    ("coverage.kernel", "bicyclic.coverage", "_cover.cover_grid"),
    ("coverage.crosscheck", "bicyclic.coverage", "cross_validate"),
    ("render.render", "bicyclic.render", "render_window"),
)

# (count, module, attribute) of functions whose calls are counted, not
# timed, and only where that module calls them.
COUNTED = (("subsemigroups.closure_products", "bicyclic.subsemigroups", "multiply"),)

# Per-layer metrics in report order: (name, unit, better).  `_ms` names
# are the self time of the layer with that prefix.
METRICS = (
    ("cli.calls", "count", "higher"),
    ("cli.parser_ms", "ms", "lower"),
    ("cli.other_ms", "ms", "lower"),
    ("specfile.parse_ms", "ms", "lower"),
    ("subsemigroups.validate_ms", "ms", "lower"),
    ("iorder.decide_ms", "ms", "lower"),
    ("witness.decompose_ms", "ms", "lower"),
    ("witness.verify_ms", "ms", "lower"),
    ("words.rewrite_ms", "ms", "lower"),
    ("words.rewrite_letters", "count", "lower"),
    ("coverage.kernel_ms", "ms", "lower"),
    ("coverage.pairs", "count", "lower"),
    ("subsemigroups.closure_ms", "ms", "lower"),
    ("subsemigroups.closure_products", "count", "lower"),
    ("subsemigroups.closure_failures", "count", "lower"),
    ("subsemigroups.enumerate_ms", "ms", "lower"),
    ("subsemigroups.enumerate_cells", "count", "lower"),
    ("subsemigroups.enumerate_members", "count", "lower"),
    ("subsemigroups.enumerate_useful", "ratio", "higher"),
    ("coverage.grid_ms", "ms", "lower"),
    ("coverage.cells", "count", "lower"),
    ("coverage.gaps", "count", "lower"),
    ("render.render_ms", "ms", "lower"),
    ("render.cells", "count", "lower"),
    ("coverage.crosscheck_ms", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)


def _window(args, kwargs) -> int:
    return kwargs["window"] if "window" in kwargs else args[1]


class Tracer:
    """Self time and counts per layer, accumulated over traced calls."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_members = 0
        self._hooks: dict[str, Callable] = {
            "main": lambda args, kwargs, result: self._count("cli.calls", 1),
            "build_parser": self._on_parser,
            "enumerate_window": self._on_enumerate,
            "closure_falsify": self._on_closure,
            "word_normalize": lambda args, kwargs, result: self._count("words.rewrite_letters", len(args[0])),
            "coverage": self._on_coverage,
            "cover_grid": self._on_kernel,
            "render_window": lambda args, kwargs, result: self._count("render.cells", (_window(args, kwargs) + 1) ** 2),
        }

    # -- wrapping -------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        stack = self._stack
        totals = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                totals[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the missing ones as absent."""
        self.absent = []
        modules = [m for name, m in sys.modules.items() if name == "bicyclic" or name.startswith("bicyclic.")]
        for layer, module_name, path in TARGETS:
            owner = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(layer, original, self._hooks.get(attr))
            for holder in {id(h): h for h in [owner] + modules}.values():
                if getattr(holder, attr, None) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

        for name, module_name, attr in COUNTED:
            owner = sys.modules.get(module_name)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.counter(name, original))

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- hooks: counts read off arguments and results -------------------

    def _count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def _on_parser(self, args, kwargs, parser) -> None:
        parser.parse_args = self.wrap("cli.parser", parser.parse_args)

    def _on_enumerate(self, args, kwargs, members) -> None:
        self.counts["subsemigroups.enumerate_cells"] += (_window(args, kwargs) + 1) ** 2
        self.counts["subsemigroups.enumerate_members"] += len(members)
        self._last_members = len(members)

    def _on_closure(self, args, kwargs, failure) -> None:
        # closure_falsify enumerates the window first, so the latest
        # enumeration is its own, and every member it found is a factor
        # the probe may try.
        self.counts["usable_members"] += self._last_members
        self.counts["subsemigroups.closure_failures"] += failure is not None

    def _on_coverage(self, args, kwargs, report) -> None:
        self.counts["coverage.cells"] += (_window(args, kwargs) + 1) ** 2
        self.counts["coverage.gaps"] += len(report.gaps)

    def _on_kernel(self, args, kwargs, grid) -> None:
        self.counts["coverage.pairs"] += len(args[0]) ** 2
        self.counts["usable_members"] += len(args[0])

    # -- totals of one process, added up in another ----------------------

    def totals(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts), "absent": self.absent}

    def merge(self, totals: dict) -> None:
        self.self_s.update(totals["self_s"])
        self.counts.update(totals["counts"])
        self.absent = totals["absent"]

    # -- report ---------------------------------------------------------

    def metrics(self, passes: int, traced_pass_s: float, overhead_s: float) -> dict[str, dict]:
        """Every per-layer metric, per pass of the operation list.

        `traced_pass_s` is the mean traced pass, which the layer times add
        up to at most; `overhead_s` is what tracing adds to wall_s.
        """
        values: dict[str, float] = {}
        for name, unit, _ in METRICS:
            if unit == "ms":
                values[name] = 1000 * self.self_s[name[: -len("_ms")]] / passes
            else:
                values[name] = self.counts[name] / passes
        values["cli.other_ms"] = 1000 * self.self_s["cli"] / passes
        cells = self.counts["subsemigroups.enumerate_cells"]
        values["subsemigroups.enumerate_useful"] = self.counts["usable_members"] / cells if cells else 0.0
        values["trace.wall_ms"] = 1000 * traced_pass_s
        values["trace.overhead_ms"] = 1000 * overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
