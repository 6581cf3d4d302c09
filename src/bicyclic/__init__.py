"""Exact arithmetic in the bicyclic monoid and I-order decision procedures.

The monoid is generated by a and b with ba = 1; elements live in normal
form a^i b^j as exponent pairs.  On top of the arithmetic the package
describes subsemigroups by the five-form classification, decides which of
them are left (and right) I-orders, produces verified straight
decompositions q = inverse(x) * y with x R y, checked through a max-plus
matrix image of the monoid that shares no code with the arithmetic, and
cross-validates every decision against a window coverage scan.

The names below are loaded on first use (PEP 562): `import bicyclic`
imports no submodule, and reading a name imports the one submodule that
defines it, then binds the name here.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# Every exported name, by the submodule that defines it.
_EXPORTS = {
    "elements": (
        "Element",
        "GreenRelations",
        "green",
        "hat",
        "inverse",
        "multiply",
        "parse_element",
    ),
    "words": ("word_normalize",),
    "subsemigroups": (
        "ClosureFailure",
        "Diagonal",
        "DiagonalTail",
        "IndexSet",
        "InvalidSpecError",
        "Lower",
        "RowData",
        "RowOverride",
        "SubsemigroupSpec",
        "TwoSidedI",
        "TwoSidedII",
        "Upper",
        "ValidationReport",
        "closure_falsify",
        "contains",
        "validate",
    ),
    "iorder": (
        "Certificate",
        "Condition",
        "Decision",
        "decide_left_iorder",
        "decide_right_iorder",
        "decision_lines",
        "hat_spec",
    ),
    "witness": ("NotLeftIOrderError", "Witness", "decompose", "verify_witness"),
    "specfile": (
        "SpecError",
        "SpecSyntaxError",
        "SpecValidationError",
        "parse_spec",
        "parse_spec_unchecked",
    ),
    "coverage": (
        "CoverageReport",
        "CrossCheckReport",
        "coverage",
        "cross_validate",
        "default_pair_bound",
    ),
    "render": ("render_window",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(_ModuleType):
    """The package, whose `coverage` is always the function.

    Loading the `bicyclic.coverage` submodule binds it on the package
    under the function's name; that binding is dropped, so the next read
    of `bicyclic.coverage` finds (or loads) the function however the
    package was first imported.
    """

    def __setattr__(self, name, value):
        if name == "coverage" and isinstance(value, _ModuleType):
            return
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
